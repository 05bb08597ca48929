package pipeline_test

import (
	"bytes"
	"fmt"
	"math"
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

// perFrame is how many entries of n payload bytes one frame holds.
func perFrame(n int) int {
	return (pipeline.MaxFrameBytes - wire.BatchBodySize(0, 0)) / (wire.BatchBodySize(1, n) - wire.BatchBodySize(0, 0))
}

// TestCoalescerFlushesAtFrameBound: the buffer ships exactly when the next
// entry would grow its encoded frame past MaxFrameBytes — not one entry
// earlier, however many entries that is — with all entries in program
// order, and the entry that did not fit opens the next frame.
func TestCoalescerFlushesAtFrameBound(t *testing.T) {
	full := perFrame(8) // 380
	c := pipeline.NewCoalescer(2)
	for i := 0; i < full; i++ {
		if m := c.Add(1, bput(3, i*8, 8)); m != nil {
			t.Fatalf("premature flush after %d entries", i+1)
		}
	}
	if got := c.Pending(1); got != full {
		t.Fatalf("Pending = %d, want %d", got, full)
	}
	m := c.Add(1, bput(3, full*8, 8))
	if m == nil {
		t.Fatalf("no flush when entry %d would cross the bound", full+1)
	}
	if m.Kind != msg.KindBatch || m.Origin != 2 || m.N != full {
		t.Fatalf("flushed frame = kind %v origin %d n %d, want batch/2/%d", m.Kind, m.Origin, m.N, full)
	}
	if len(m.Data) > pipeline.MaxFrameBytes || len(m.Data)+wire.BatchBodySize(1, 8)-wire.BatchBodySize(0, 0) <= pipeline.MaxFrameBytes {
		t.Fatalf("frame of %d bytes: the bound is %d and one more entry would have fit", len(m.Data), pipeline.MaxFrameBytes)
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
	if got := c.Pending(1); got != 1 {
		t.Fatalf("Pending = %d after the flush, want 1 (the entry that did not fit)", got)
	}
}

// TestCoalescerFrameBoundIsInclusive: a frame that lands exactly on
// MaxFrameBytes stays buffered, whatever its mix of entry sizes; the
// next entry, of any size, ships it.
func TestCoalescerFrameBoundIsInclusive(t *testing.T) {
	c := pipeline.NewCoalescer(0)
	off := 0
	add := func(n int) *msg.Message {
		m := c.Add(1, bput(1, off, n))
		off += n
		return m
	}
	big := pipeline.MaxEntryBytes
	nBig := perFrame(big)
	for i := 0; i < nBig; i++ {
		if add(big) != nil {
			t.Fatalf("premature flush after %d entries of %d bytes", i+1, big)
		}
	}
	// The entry that brings the frame to exactly the bound.
	last := pipeline.MaxFrameBytes - wire.BatchBodySize(nBig+1, nBig*big)
	if last < 1 || last > big {
		t.Fatalf("test setup: closing entry of %d bytes is not eligible", last)
	}
	if add(last) != nil {
		t.Fatal("a frame of exactly MaxFrameBytes was flushed")
	}
	m := add(1)
	if m == nil {
		t.Fatal("no flush when a 1-byte entry would cross the bound")
	}
	if len(m.Data) != pipeline.MaxFrameBytes || m.N != nBig+1 {
		t.Fatalf("frame of %d bytes and %d entries, want %d and %d", len(m.Data), m.N, pipeline.MaxFrameBytes, nBig+1)
	}
}

// TestCoalescerLargestFrameRoundTrips: the most entries the bound admits —
// 1-byte payloads — encode into one frame that decodes back to the same
// entries and re-encodes byte for byte, far below the wire's uint16 entry
// count.
func TestCoalescerLargestFrameRoundTrips(t *testing.T) {
	most := perFrame(1)
	if most >= math.MaxUint16 {
		t.Fatalf("the bound admits %d entries, past the wire's uint16 count", most)
	}
	c := pipeline.NewCoalescer(0)
	var m *msg.Message
	for i := 0; m == nil; i++ {
		m = c.Add(1, bput(1, i, 1))
	}
	if m.N != most {
		t.Fatalf("largest frame holds %d entries, want %d", m.N, most)
	}
	entries, err := wire.DecodeBatch(m.Data)
	if err != nil {
		t.Fatalf("decoding the largest frame: %v", err)
	}
	if len(entries) != most {
		t.Fatalf("decoded %d entries, want %d", len(entries), most)
	}
	for i, e := range entries {
		if want := bput(1, i, 1); e.Op != want.Op || e.Ptr != want.Ptr || !bytes.Equal(e.Data, want.Data) {
			t.Fatalf("entry %d = %+v, want %+v", i, e, want)
		}
	}
	if re := wire.EncodeBatch(entries); !bytes.Equal(re, m.Data) {
		t.Fatal("the largest frame does not re-encode byte for byte")
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
