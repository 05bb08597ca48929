package armci_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"armci"
	"armci/internal/msg"
)

// TestCoalescedCallerBufferReuse pins who owns the bytes of a coalesced
// operation: Put, Accumulate and PutFlag copy the caller's payload
// before they return. Rank 0 drives every call from one 8-byte source
// buffer and scribbles over it right after each call; rank 1 checks
// every target word once the round's notify flag arrives. A round's 200
// puts and 200 accumulates cross the frame bound mid-round, so frames
// leave while the coalescer's arena is being refilled. Under the
// dup+loss plan a duplicated or retransmitted frame must still carry
// its own bytes, and each accumulate, applied exactly once, shows the
// duplicates were suppressed.
func TestCoalescedCallerBufferReuse(t *testing.T) {
	const rounds, words = 3, 200
	lossy, err := armci.ParseFaults("dup=0.2,loss=0.1,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	putWord := func(r, w int) uint64 { return uint64(r)<<32 | uint64(w)<<8 | 0x11 }
	accWord := func(r, w int) uint64 { return uint64(r)<<32 | uint64(w)<<8 | 0x22 }
	noteWord := func(r int) uint64 { return uint64(r)<<32 | 0x33 }

	body := func(p *armci.Proc) {
		puts := p.Malloc(8 * rounds * words)
		accs := p.Malloc(8 * rounds * words)
		notes := p.Malloc(8 * rounds)
		flags := p.MallocWords(rounds)
		p.MPIBarrier()
		switch p.Rank() {
		case 0:
			src := make([]byte, 8)
			issue := func(v uint64, call func()) {
				binary.LittleEndian.PutUint64(src, v)
				call()
				copy(src, "scribble")
			}
			for r := 0; r < rounds; r++ {
				for w := 0; w < words; w++ {
					off := int64(8 * (r*words + w))
					issue(putWord(r, w), func() { p.Put(puts[1].Add(off), src) })
					issue(accWord(r, w), func() {
						p.Accumulate(armci.AccInt64, accs[1].Add(off), armci.Contig(8), src, 1)
					})
				}
				p.Fence(p.NodeOf(1))
				issue(noteWord(r), func() { p.PutFlag(notes[1].Add(int64(8*r)), src, flags[1].Add(int64(r)), 1) })
			}
		case 1:
			word := func(ptr armci.Ptr) uint64 { return binary.LittleEndian.Uint64(p.Get(ptr, 8)) }
			for r := 0; r < rounds; r++ {
				p.WaitFlag(flags[1].Add(int64(r)), 1)
				for w := 0; w < words; w++ {
					off := int64(8 * (r*words + w))
					if got := word(puts[1].Add(off)); got != putWord(r, w) {
						panic(fmt.Sprintf("round %d put %d landed %#x, want %#x", r, w, got, putWord(r, w)))
					}
					if got := word(accs[1].Add(off)); got != accWord(r, w) {
						panic(fmt.Sprintf("round %d accumulate %d landed %#x, want %#x", r, w, got, accWord(r, w)))
					}
				}
				if got := word(notes[1].Add(int64(8 * r))); got != noteWord(r) {
					panic(fmt.Sprintf("round %d notify payload landed %#x, want %#x", r, got, noteWord(r)))
				}
			}
		}
	}

	for _, tc := range []struct {
		name   string
		fabric armci.FabricKind
		faults armci.Faults
	}{
		{"sim", armci.FabricSim, armci.Faults{}},
		{"chan", armci.FabricChan, armci.Faults{}},
		{"tcp", armci.FabricTCP, armci.Faults{}},
		{"chan/dup+loss", armci.FabricChan, lossy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			metrics := armci.NewMetrics()
			opts := armci.Options{
				Procs:    2,
				Fabric:   tc.fabric,
				Coalesce: armci.Coalesce{Enabled: true},
				Faults:   tc.faults,
				Metrics:  metrics,
			}
			if tc.fabric != armci.FabricSim {
				opts.OpDeadline = 30 * time.Second
			}
			if _, err := armci.Run(opts, body); err != nil {
				t.Fatal(err)
			}
			if f := metrics.Faults(); tc.faults.DupProb > 0 && (f.DupsInjected == 0 || f.Retransmits == 0) {
				t.Fatalf("fault plan inert: %d duplicates, %d retransmits", f.DupsInjected, f.Retransmits)
			}
		})
	}
}

// TestCoalescedBurstIsOneFrame: 256 8-byte puts and a Fence to one node
// travel as exactly one batched frame — the burst's 11,014 bytes are under
// the frame bound — on the simulator and on chan.
func TestCoalescedBurstIsOneFrame(t *testing.T) {
	const puts, width = 256, 8
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan} {
		t.Run(fabric.String(), func(t *testing.T) {
			opts := armci.Options{Procs: 2, Fabric: fabric, Coalesce: armci.Coalesce{Enabled: true}}
			if fabric != armci.FabricSim {
				opts.OpDeadline = 30 * time.Second
			}
			rep, err := armci.Run(opts, func(p *armci.Proc) {
				buf := p.Malloc(puts * width)
				if p.Rank() == 0 {
					data := make([]byte, width)
					for i := 0; i < puts; i++ {
						p.Put(buf[1].Add(int64(i*width)), data)
					}
					p.Fence(p.NodeOf(1))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Stats.Count(msg.KindBatch); got != 1 {
				t.Fatalf("%d batched frames for a burst of %d puts, want 1", got, puts)
			}
			if got := rep.Stats.Count(msg.KindPut); got != 0 {
				t.Fatalf("%d puts escaped the coalescer", got)
			}
		})
	}
}
