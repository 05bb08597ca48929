package pipeline_test

import (
	"runtime"
	"testing"

	"armci"
)

// mallocsPer runs op n times and returns the heap allocations the whole
// process made per run — every goroutine's, the socket readers' and the
// data servers' included — as a fraction: what an arena chunk costs is a
// share per message.
func mallocsPer(n int, op func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestTCPRoundTripAllocBudget pins a warm 8 B Get on the tcp fabric to
// 1.25 allocations, counted for the whole process: the result the caller
// keeps (the link reader's exact copy of the reply's payload) and the
// shares of a reader arena's chunk the request and the reply are decoded
// into, 1/16 each — 1.125. Nothing else is born: the sender lends its
// request to the link, which encodes it before Send returns, and the
// server packs the reply into a buffer it reuses. The margin is two more
// chunk shares.
func TestTCPRoundTripAllocBudget(t *testing.T) {
	const runs = 2000
	var per float64
	_, err := armci.Run(armci.Options{Procs: 2, Fabric: armci.FabricTCP}, func(p *armci.Proc) {
		buf := p.Malloc(8)
		p.MPIBarrier()
		if p.Rank() == 0 {
			get := func() { p.Get(buf[1], 8) }
			mallocsPer(runs, get) // warm the pair, the arenas and the chunk sizes
			per = mallocsPer(runs, get)
		}
		p.MPIBarrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f allocations per Get", per)
	if per > 1.25 {
		t.Errorf("a warm 8 B Get on tcp allocates %.2f times, budget 1.25", per)
	}
}

// TestTCPSyncAllocBudget pins the sync-tcp4 operation: 4 ranks on tcp,
// each putting 64 B to every peer and then entering the combined
// Barrier, cost at most 2.25 allocations per operation, counted across
// the whole process. Its 28 frames are each decoded once, into a link
// reader's arena: 28/16 = 1.75 chunks, measured 1.76. The senders lend
// every frame to the link and allocate nothing. The margin is 8 more
// frames' chunk shares.
func TestTCPSyncAllocBudget(t *testing.T) {
	const procs, runs = 4, 400
	var per float64
	_, err := armci.Run(armci.Options{Procs: procs, Fabric: armci.FabricTCP}, func(p *armci.Proc) {
		slots := p.Malloc(64 * procs)
		payload := make([]byte, 64)
		op := func() {
			for q := range procs {
				if q != p.Rank() {
					p.Put(slots[q].Add(int64(64*p.Rank())), payload)
				}
			}
			p.Barrier()
		}
		for range runs {
			op() // warm every pair, arena and chunk size
		}
		if p.Rank() == 0 {
			per = mallocsPer(runs, op) // the barrier keeps the others in step
		} else {
			for range runs {
				op()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f allocations per operation", per)
	if per > 2.25 {
		t.Errorf("a 4-rank put-to-each-peer and Barrier on tcp allocates %.2f times per operation, budget 2.25", per)
	}
}

// TestSimSyncAllocBudget pins the model-sim16 operation: 16 simulated
// ranks (one goroutine, the kernel's), each putting 64 B to every peer and
// then entering the combined Barrier, allocate at most 28 objects per
// operation, counted across the whole process: the 23 arena chunks its
// 368 messages are born in (about 24 measured), and nothing per message —
// a delivery is a kernel event naming its message; a closure per
// delivery would add one allocation per message, about 390 an operation.
func TestSimSyncAllocBudget(t *testing.T) {
	const procs, runs = 16, 200
	var per float64
	_, err := armci.Run(armci.Options{Procs: procs, Fabric: armci.FabricSim, Preset: armci.PresetMyrinet2000}, func(p *armci.Proc) {
		slots := p.Malloc(64 * procs)
		payload := make([]byte, 64)
		op := func() {
			for q := range procs {
				if q != p.Rank() {
					p.Put(slots[q].Add(int64(64*p.Rank())), payload)
				}
			}
			p.Barrier()
		}
		for range runs {
			op() // warm every pair, arena and event pool
		}
		if p.Rank() == 0 {
			per = mallocsPer(runs, op) // the barrier keeps the others in step
		} else {
			for range runs {
				op()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f allocations per operation", per)
	if per > 28 {
		t.Errorf("a 16-rank put-to-each-peer and Barrier on sim allocates %.2f times per operation, budget 28", per)
	}
}
