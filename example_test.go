package armci_test

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"armci"
)

// ExampleRun is a guided tour of the public API on a small emulated
// cluster: one-sided puts and gets, atomic operations, the combined
// barrier, a distributed mutex and strided transfers. It runs on the
// simulated fabric under the paper's Myrinet-2000 cost model, where
// Report.Elapsed is virtual time, so the output is the same on every
// machine.
func ExampleRun() {
	var mu sync.Mutex
	var lines []string
	say := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	rep, err := armci.Run(armci.Options{
		Procs:      4,
		Fabric:     armci.FabricSim,
		Preset:     armci.PresetMyrinet2000,
		NumMutexes: 1,
	}, func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()

		// 1. Collective allocation: every rank allocates a buffer of n
		// int64 words; everyone learns everyone's pointer.
		words := p.MallocWords(n)

		// 2. One-sided stores: deposit our rank+1 into slot `me` of every
		// other rank's buffer. Nobody at the destination participates.
		for r := 0; r < n; r++ {
			if r != me {
				p.Store(words[r].Add(int64(me)), int64(me+1))
			}
		}

		// 3. The paper's combined operation: one call fences all
		// outstanding stores everywhere AND synchronizes all ranks.
		p.Barrier()

		// 4. Everyone can now read the deposits — locally or remotely.
		sum := int64(me + 1) // our own slot was never written; count self
		for r := 0; r < n; r++ {
			if r != me {
				sum += p.Load(words[me].Add(int64(r)))
			}
		}
		say("rank %d: sum of deposits = %d (want %d)", me, sum, n*(n+1)/2)

		// 5. Atomic read-modify-write on a remote location: everybody
		// increments one counter owned by rank 0.
		counter := p.MallocWords(1)
		for i := 0; i < 3; i++ {
			p.FetchAdd(counter[0], 1)
		}
		p.Barrier()
		if me == 0 {
			say("rank 0: shared counter = %d (want %d)", p.Load(counter[0]), 3*n)
		}

		// 6. A distributed mutex protecting a read-modify-write sequence
		// that is NOT atomic by itself — the paper's software queuing
		// lock under the hood.
		cell := p.MallocWords(1)
		lock := p.Mutex(0, armci.LockQueue)
		for i := 0; i < 5; i++ {
			lock.Lock()
			v := p.Load(cell[0])
			p.Store(cell[0], v+1)
			if p.NodeOf(0) != p.MyNode() {
				p.Fence(p.NodeOf(0))
			}
			lock.Unlock()
		}
		p.Barrier()
		if me == 0 {
			say("rank 0: mutex-protected counter = %d (want %d)", p.Load(cell[0]), 5*n)
		}

		// 7. Strided transfer: write a 4x4 tile into an 8-column matrix
		// owned by rank (me+1) mod n at row 2, col 3.
		mat := p.Malloc(8 * 8 * 8) // 8x8 float64-sized cells, one per rank
		tile := make([]byte, 4*4*8)
		for i := range tile {
			tile[i] = byte(me + 1)
		}
		dst := mat[(me+1)%n].Add((2*8 + 3) * 8)
		p.PutStrided(dst, armci.Strided{Count: []int{4 * 8, 4}, Stride: []int64{8 * 8}}, tile)
		p.Barrier()
		back := p.GetStrided(nil, mat[me].Add((2*8+3)*8),
			armci.Strided{Count: []int{4 * 8, 4}, Stride: []int64{8 * 8}})
		expect := byte((me-1+n)%n) + 1
		ok := true
		for _, b := range back {
			if b != expect {
				ok = false
			}
		}
		say("rank %d: strided tile from rank %d intact: %v", me, (me-1+n)%n, ok)
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Printf("\ncluster ran %v on the %v fabric; %s\n", rep.Elapsed.Round(time.Microsecond), armci.FabricSim, rep.Stats.Summary())
	// Output:
	// rank 0: mutex-protected counter = 20 (want 20)
	// rank 0: shared counter = 12 (want 12)
	// rank 0: strided tile from rank 3 intact: true
	// rank 0: sum of deposits = 10 (want 10)
	// rank 1: strided tile from rank 0 intact: true
	// rank 1: sum of deposits = 10 (want 10)
	// rank 2: strided tile from rank 1 intact: true
	// rank 2: sum of deposits = 10 (want 10)
	// rank 3: strided tile from rank 2 intact: true
	// rank 3: sum of deposits = 10 (want 10)
	//
	// cluster ran 2.851ms on the sim fabric; 257 msgs, 11808 bytes: put=4 rmw=95 rmw-resp=40 fence-req=15 fence-ack=15 coll=88
}
