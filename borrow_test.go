package armci_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"armci"
)

// TestCallerReusesItsBuffersAtOnce holds the one-sided contract at the
// top of the stack: a put or accumulate borrows its payload and its
// stride descriptor only until the call returns. Rank 0 issues strided
// puts and accumulates (two stride levels, payloads past a message slot's
// inline bytes) and contiguous puts, each from one buffer and one
// descriptor that it scribbles over — bytes, counts and strides — the
// moment the call returns; rank 1 must find exactly the original bytes at
// the original places. On chan a request to an idle server is served from
// the loan, on sim and in a chan mailbox it waits as the fabric's copy,
// on tcp it is encoded; dup=0.2 adds a duplicate that shares the loan.
func TestCallerReusesItsBuffersAtOnce(t *testing.T) {
	const iters, span = 24, 256
	dup, err := armci.ParseFaults("dup=0.2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	// The region of iteration i: 3 rows of 2 planes of 24-byte runs.
	region := func() armci.Strided {
		return armci.Strided{Count: []int{24, 3, 2}, Stride: []int64{32, 128}}
	}
	const regionBytes = 24 * 3 * 2
	payload := func(i, k int) byte { return byte(i*37 + k*11 + 1) }
	// want returns the bytes the region of iteration i leaves in a span.
	want := func(i int, d armci.Strided) []byte {
		out := make([]byte, span)
		k := 0
		for p := 0; p < d.Count[2]; p++ {
			for r := 0; r < d.Count[1]; r++ {
				off := int(int64(p)*d.Stride[1] + int64(r)*d.Stride[0])
				for b := 0; b < d.Count[0]; b++ {
					out[off+b] = payload(i, k)
					k++
				}
			}
		}
		return out
	}
	scribble := func(data []byte, d armci.Strided) {
		for k := range data {
			data[k] = 0xEE
		}
		d.Count[0], d.Count[1], d.Count[2] = 8, 1, 1
		d.Stride[0], d.Stride[1] = 8, 16
	}
	body := func(p *armci.Proc) {
		puts := p.Malloc(iters * span)
		accs := p.Malloc(iters * span)
		flat := p.Malloc(iters * regionBytes)
		p.MPIBarrier()
		if p.Rank() == 0 {
			data := make([]byte, regionBytes)
			for i := 0; i < iters; i++ {
				fill := func() armci.Strided {
					for k := range data {
						data[k] = payload(i, k)
					}
					return region()
				}
				d := fill()
				p.PutStrided(puts[1].Add(int64(i*span)), d, data)
				scribble(data, d)
				d = fill()
				p.Accumulate(armci.AccInt64, accs[1].Add(int64(i*span)), d, data, 1)
				scribble(data, d)
				fill()
				p.Put(flat[1].Add(int64(i*regionBytes)), data)
				scribble(data, region())
			}
		}
		p.Barrier()
		if p.Rank() == 1 {
			for i := 0; i < iters; i++ {
				w := want(i, region())
				if got := p.Get(puts[1].Add(int64(i*span)), span); !bytes.Equal(got, w) {
					panic(fmt.Sprintf("strided put %d landed %x, want %x", i, got, w))
				}
				got := p.Get(accs[1].Add(int64(i*span)), span)
				for k := 0; k < span; k += 8 {
					if g, x := binary.LittleEndian.Uint64(got[k:]), binary.LittleEndian.Uint64(w[k:]); g != x {
						panic(fmt.Sprintf("strided accumulate %d word %d = %#x, want %#x", i, k/8, g, x))
					}
				}
				for k, b := range p.Get(flat[1].Add(int64(i*regionBytes)), regionBytes) {
					if b != payload(i, k) {
						panic(fmt.Sprintf("put %d byte %d = %#x, want %#x", i, k, b, payload(i, k)))
					}
				}
			}
		}
		p.Barrier()
	}
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		for _, tc := range []struct {
			name   string
			faults armci.Faults
		}{{"plain", armci.Faults{}}, {"dup", dup}} {
			t.Run(fmt.Sprintf("%v/%s", fabric, tc.name), func(t *testing.T) {
				metrics := armci.NewMetrics()
				rep, err := armci.Run(armci.Options{
					Procs: 2, Fabric: fabric, Faults: tc.faults, Metrics: metrics,
					OpDeadline: 10 * time.Second,
				}, body)
				if err != nil {
					t.Fatal(err)
				}
				if tc.faults.DupProb > 0 && rep.Stats.Faults().DupsInjected == 0 {
					t.Fatal("no duplicate was injected")
				}
			})
		}
	}
}
