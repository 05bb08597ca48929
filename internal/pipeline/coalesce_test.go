package pipeline_test

import (
	"bytes"
	"fmt"
	"testing"

	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/wire"
)

func bput(rank, off, n int) wire.BatchEntry {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(off + i)
	}
	return wire.BatchEntry{
		Op:   wire.BatchPut,
		Ptr:  shmem.Ptr{Rank: int32(rank), Kind: shmem.KindByte, Seg: 1, Off: int64(off)},
		Data: data,
	}
}

func TestCoalescerFits(t *testing.T) {
	c := pipeline.NewCoalescer(0)
	const limit = pipeline.MaxEntryBytes
	for n, want := range map[int]bool{0: false, -1: false, 1: true, limit: true, limit + 1: false} {
		if got := c.Fits(n); got != want {
			t.Errorf("Fits(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestCoalescerFlushesAtMaxOps: the buffer ships exactly when the entry
// threshold fills, with all entries in program order.
func TestCoalescerFlushesAtMaxOps(t *testing.T) {
	const maxOps = pipeline.MaxOps
	c := pipeline.NewCoalescer(2)
	for i := 0; i < maxOps-1; i++ {
		if m := c.Add(1, bput(3, i*8, 8)); m != nil {
			t.Fatalf("premature flush after %d entries", i+1)
		}
	}
	if got := c.Pending(1); got != maxOps-1 {
		t.Fatalf("Pending = %d, want %d", got, maxOps-1)
	}
	m := c.Add(1, bput(3, (maxOps-1)*8, 8))
	if m == nil {
		t.Fatal("no flush at MaxOps entries")
	}
	if m.Kind != msg.KindBatch || m.Origin != 2 || m.N != maxOps {
		t.Fatalf("flushed frame = kind %v origin %d n %d, want batch/2/%d", m.Kind, m.Origin, m.N, maxOps)
	}
	entries, err := wire.DecodeBatch(m.Data)
	if err != nil {
		t.Fatalf("decoding flushed frame: %v", err)
	}
	for i, e := range entries {
		if want := bput(3, i*8, 8); e.Ptr != want.Ptr || !bytes.Equal(e.Data, want.Data) {
			t.Fatalf("entry %d out of program order: %+v", i, e)
		}
	}
	if got := c.Pending(1); got != 0 {
		t.Fatalf("Pending = %d after flush, want 0", got)
	}
}

// TestCoalescerFlushesAtMaxBytes: the payload threshold also ships the
// buffer, regardless of entry count.
func TestCoalescerFlushesAtMaxBytes(t *testing.T) {
	const half = pipeline.MaxBytes / 2
	c := pipeline.NewCoalescer(0)
	if m := c.Add(1, bput(1, 0, half)); m != nil {
		t.Fatal("flushed below MaxBytes")
	}
	m := c.Add(1, bput(1, half, half))
	if m == nil {
		t.Fatal("no flush at MaxBytes payload")
	}
	if m.N != 2 {
		t.Fatalf("flushed %d entries, want 2", m.N)
	}
}

// TestCoalescerBuffersPerDestination: entries for different nodes land
// in independent buffers; FlushAll drains them in ascending node order.
func TestCoalescerBuffersPerDestination(t *testing.T) {
	c := pipeline.NewCoalescer(0)
	for _, node := range []int{3, 1, 2, 1, 3} {
		if m := c.Add(node, bput(node, c.Pending(node)*8, 8)); m != nil {
			t.Fatalf("unexpected flush for node %d", node)
		}
	}
	if got := fmt.Sprint(c.Pending(1), c.Pending(2), c.Pending(3)); got != "2 1 2" {
		t.Fatalf("pending per node = %s, want 2 1 2", got)
	}
	var order []int
	c.FlushAll(func(node int, m *msg.Message) {
		order = append(order, node)
		if m == nil || m.Kind != msg.KindBatch {
			t.Fatalf("node %d: bad flushed frame %+v", node, m)
		}
	})
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("FlushAll order = %v, want ascending [1 2 3]", order)
	}
	c.FlushAll(func(node int, _ *msg.Message) { t.Fatalf("second FlushAll emitted a frame for node %d", node) })
	if c.Flush(1) != nil {
		t.Fatal("Flush of an empty buffer returned a frame")
	}
}

// TestCoalescerReorderHazard: the armed bug ships entries back to
// front, and the frame still decodes (offsets are assigned at encode
// time) — the reorder is an application-order bug, which is exactly
// what the conformance harness's state oracle must catch.
func TestCoalescerReorderHazard(t *testing.T) {
	c := pipeline.NewCoalescer(0)
	c.SetReorderHazard(true)
	for i := 0; i < 3; i++ {
		c.Add(1, bput(1, i*8, 8))
	}
	m := c.Flush(1)
	if m == nil {
		t.Fatal("no frame")
	}
	entries, err := wire.DecodeBatch(m.Data)
	if err != nil {
		t.Fatalf("hazard frame must still decode: %v", err)
	}
	for i, e := range entries {
		if want := int64((2 - i) * 8); e.Ptr.Off != want {
			t.Fatalf("entry %d targets offset %d, want reversed %d", i, e.Ptr.Off, want)
		}
	}
}
