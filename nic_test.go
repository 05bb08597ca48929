package armci_test

import (
	"bytes"
	"fmt"
	"testing"

	"armci"
	"armci/internal/msg"
)

// TestNICAssistCorrectness runs the full synchronization surface — puts,
// fences, combined barrier, queuing locks — with NIC-assisted control
// traffic, on every fabric.
func TestNICAssistCorrectness(t *testing.T) {
	for _, fk := range fabrics {
		t.Run(fk.String(), func(t *testing.T) {
			const procs, iters = 4, 8
			_, err := armci.Run(armci.Options{
				Procs:      procs,
				Fabric:     fk,
				NIC:        armci.NICAgent,
				NumMutexes: 1,
			}, func(p *armci.Proc) {
				me := p.Rank()
				ptrs := p.Malloc(procs * 8)
				words := p.MallocWords(1)
				mu := p.Mutex(0, armci.LockQueue)
				for i := 0; i < iters; i++ {
					for q := 0; q < procs; q++ {
						if q != me {
							p.Put(ptrs[q].Add(int64(me*8)), bytes.Repeat([]byte{byte(i + 1)}, 8))
						}
					}
					p.Barrier()
					for q := 0; q < procs; q++ {
						if q == me {
							continue
						}
						got := p.Get(ptrs[me].Add(int64(q*8)), 8)
						if got[0] != byte(i+1) {
							panic(fmt.Sprintf("iter %d: rank %d sees stale %d from %d", i, me, got[0], q))
						}
					}
					// Separate the read phase from the next iteration's
					// writes; without this the fastest writer may lap us.
					p.MPIBarrier()
					mu.Lock()
					v := p.Load(words[0])
					p.Store(words[0], v+1)
					if p.NodeOf(0) != p.MyNode() {
						p.Fence(p.NodeOf(0))
					}
					mu.Unlock()
				}
				p.Barrier()
				if me == 0 {
					if got := p.Load(words[0]); got != procs*iters {
						panic(fmt.Sprintf("counter %d, want %d", got, procs*iters))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNICRoutesControlTraffic: under NICAgent, RMW and fence traffic
// goes to the agents while bulk puts still go to the host servers.
func TestNICRoutesControlTraffic(t *testing.T) {
	const procs = 2
	rep, err := armci.Run(armci.Options{
		Procs:        procs,
		Fabric:       armci.FabricSim,
		NIC:          armci.NICAgent,
		CaptureTrace: true, // sendsBetween reads the captured sends
	}, func(p *armci.Proc) {
		ptrs := p.Malloc(64)
		words := p.MallocWords(1)
		if p.Rank() == 0 {
			p.Put(ptrs[1], make([]byte, 64)) // bulk -> server
			p.FetchAdd(words[1], 1)          // atomic -> NIC
			p.Fence(p.NodeOf(1))             // fence -> NIC
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := msg.ServerOf(1)
	nic := msg.NICOf(1, procs)
	user := msg.User(0)
	if got := sendsBetween(rep.Stats, user, srv); got != 1 {
		t.Fatalf("server received %d messages from rank 0, want exactly the put", got)
	}
	if got := sendsBetween(rep.Stats, user, nic); got != 2 {
		t.Fatalf("NIC agent received %d messages from rank 0, want rmw + fence = 2", got)
	}
}

// TestNICFenceWaitsForPuts: the NIC fence confirms against per-origin
// completion counts — it must not ack before a large in-flight put has
// been applied by the (slower) host server.
func TestNICFenceWaitsForPuts(t *testing.T) {
	_, err := armci.Run(armci.Options{
		Procs:  2,
		Fabric: armci.FabricSim,
		Preset: armci.PresetMyrinet2000,
		NIC:    armci.NICAgent,
	}, func(p *armci.Proc) {
		ptrs := p.Malloc(256 << 10)
		if p.Rank() == 0 {
			big := make([]byte, 256<<10)
			for i := range big {
				big[i] = 0xAB
			}
			p.Put(ptrs[1], big) // long server service time
			p.Fence(p.NodeOf(1))
			// After the fence the data must be fully visible.
			got := p.Get(ptrs[1].Add(256<<10-1), 1)
			if got[0] != 0xAB {
				panic("NIC fence acked before the put landed")
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNICSpeedsUpUncontendedRelease: the queuing lock's release CAS round
// trip — its only weakness versus the hybrid lock (Figure 10) — becomes
// much cheaper when served by the NIC, which is exactly what the paper's
// future-work section anticipates.
func TestNICSpeedsUpUncontendedRelease(t *testing.T) {
	release := func(nic armci.NICMode) float64 {
		var total float64
		_, err := armci.Run(armci.Options{
			Procs:      2,
			Fabric:     armci.FabricSim,
			Preset:     armci.PresetMyrinet2000,
			NIC:        nic,
			NumMutexes: 1,
			LockHomes:  []int{0},
		}, func(p *armci.Proc) {
			if p.Rank() != 1 {
				return // rank 1 exercises the remote lock alone
			}
			mu := p.Mutex(0, armci.LockQueue)
			const iters = 20
			for i := 0; i < iters; i++ {
				mu.Lock()
				t0 := p.Now()
				mu.Unlock()
				total += float64(p.Now()-t0) / iters
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	host, nic := release(armci.NICNone), release(armci.NICAgent)
	if nic >= host {
		t.Fatalf("NIC-served release (%.0fns) not faster than host-served (%.0fns)", nic, host)
	}
	// The saved cost is the host service time; the wire round trip
	// remains, so the NIC release is cheaper but not free.
	if nic < 1000 {
		t.Fatalf("NIC release %.0fns implausibly cheap — round trip lost?", nic)
	}
}
