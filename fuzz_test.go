package armci_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"armci"
)

// Schedule fuzzing: the simulated fabric is deterministic for a given
// program, so injecting random (seeded) virtual-time delays between
// operations explores *different but reproducible* interleavings of the
// protocols. Any failure prints its seed and replays exactly.

// TestFuzzLockSchedules drives every lock algorithm through randomized
// schedules and checks the counter invariant each time.
func TestFuzzLockSchedules(t *testing.T) {
	algs := []armci.LockAlg{armci.LockHybrid, armci.LockQueue, armci.LockQueueNoCAS}
	for _, alg := range algs {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", alg, seed), func(t *testing.T) {
				const procs, iters = 5, 8
				home := int(seed) % procs
				_, err := armci.Run(armci.Options{
					Procs:      procs,
					Fabric:     armci.FabricSim,
					Preset:     armci.PresetMyrinet2000,
					NumMutexes: 1,
					LockHomes:  []int{home},
				}, func(p *armci.Proc) {
					// Per-rank deterministic delay stream.
					rng := rand.New(rand.NewSource(seed*1000 + int64(p.Rank())))
					counter := p.MallocWords(1) // homed at rank 0
					mu := p.Mutex(0, alg)
					for i := 0; i < iters; i++ {
						p.Env().Clock().Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
						mu.Lock()
						v := p.Load(counter[0])
						p.Env().Clock().Sleep(time.Duration(rng.Intn(30)) * time.Microsecond)
						p.Store(counter[0], v+1)
						if p.NodeOf(0) != p.MyNode() {
							p.Fence(p.NodeOf(0))
						}
						mu.Unlock()
					}
					p.Barrier()
					if p.Rank() == 0 {
						if got := p.Load(counter[0]); got != procs*iters {
							panic(fmt.Sprintf("seed %d: counter %d, want %d", seed, got, procs*iters))
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFuzzSyncSchedules randomizes the write pattern and the skew before
// each sync, alternating between the old and new implementations, and
// checks visibility every round.
func TestFuzzSyncSchedules(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const procs, rounds = 6, 5
			_, err := armci.Run(armci.Options{
				Procs:  procs,
				Fabric: armci.FabricSim,
				Preset: armci.PresetMyrinet2000,
			}, func(p *armci.Proc) {
				me := p.Rank()
				rng := rand.New(rand.NewSource(seed*77 + int64(me)))
				// Shared layout decided by a common seed, so every rank
				// knows who writes where each round.
				plan := rand.New(rand.NewSource(seed))
				cells := p.MallocWords(procs * rounds)
				for round := 0; round < rounds; round++ {
					// Each rank writes to a planned subset of others.
					targets := map[int]bool{}
					for q := 0; q < procs; q++ {
						writers := plan.Intn(procs) // same stream on all ranks
						_ = writers
						if plan.Intn(2) == 1 {
							targets[q] = true
						}
					}
					p.Env().Clock().Sleep(time.Duration(rng.Intn(150)) * time.Microsecond)
					for q := 0; q < procs; q++ {
						if q != me && targets[q] {
							p.Store(cells[q].Add(int64(round*procs+me)), int64(100+round))
						}
					}
					if round%2 == 0 {
						p.Barrier()
					} else {
						p.SyncOld()
					}
					for q := 0; q < procs; q++ {
						if q != me && targets[me] {
							got := p.Load(cells[me].Add(int64(round*procs + q)))
							if got != int64(100+round) {
								panic(fmt.Sprintf("seed %d round %d: rank %d missing write from %d (got %d)",
									seed, round, me, q, got))
							}
						}
					}
					p.MPIBarrier()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBarrierAlgOptionsPublic exercises every stage-3 algorithm through
// the public option, including central and dissemination.
func TestBarrierAlgOptionsPublic(t *testing.T) {
	cases := []struct {
		procs int
		alg   armci.BarrierAlg
	}{
		{8, armci.BarrierPairwise},
		{8, armci.BarrierCentral},
		{6, armci.BarrierDissemination},
		{6, armci.BarrierAuto},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/procs=%d", c.alg, c.procs), func(t *testing.T) {
			_, err := armci.Run(armci.Options{
				Procs:      c.procs,
				Fabric:     armci.FabricSim,
				Preset:     armci.PresetMyrinet2000,
				BarrierAlg: c.alg,
			}, func(p *armci.Proc) {
				ptrs := p.MallocWords(1)
				if p.Rank() != 0 {
					p.Store(ptrs[0], int64(p.Rank()))
				}
				p.Barrier()
				if p.Rank() == 0 && p.Load(ptrs[0]) == 0 {
					panic("no write visible after barrier")
				}
				p.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFastEthernetPresetOrdering: the qualitative Figure 7 ordering holds
// under the second cost preset too (higher latency, bigger gap).
func TestFastEthernetPresetOrdering(t *testing.T) {
	timeOf := func(old bool) time.Duration {
		var dt time.Duration
		_, err := armci.Run(armci.Options{
			Procs:  8,
			Fabric: armci.FabricSim,
			Preset: armci.PresetFastEthernet,
		}, func(p *armci.Proc) {
			ptrs := p.Malloc(64)
			payload := make([]byte, 32)
			for q := 0; q < 8; q++ {
				if q != p.Rank() {
					p.Put(ptrs[q], payload)
				}
			}
			p.MPIBarrier()
			t0 := p.Now()
			if old {
				p.SyncOld()
			} else {
				p.Barrier()
			}
			if p.Rank() == 0 {
				dt = p.Now() - t0
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	oldT, newT := timeOf(true), timeOf(false)
	if newT >= oldT {
		t.Fatalf("fast-ethernet preset: new sync (%v) not faster than old (%v)", newT, oldT)
	}
	if ratio := float64(oldT) / float64(newT); ratio < 3 {
		t.Fatalf("fast-ethernet improvement factor %.1f suspiciously low at 8 procs", ratio)
	}
}

// TestFuzzScheduleExploration re-runs the full synchronization surface
// under many reproducible scheduler orderings (sim kernel shuffle): the
// lock counter and sync visibility invariants must hold under every
// interleaving, and a given seed must replay identically.
func TestFuzzScheduleExploration(t *testing.T) {
	run := func(seed int64) (string, error) {
		rep, err := armci.Run(armci.Options{
			Procs:        5,
			Fabric:       armci.FabricSim,
			Preset:       armci.PresetMyrinet2000,
			NumMutexes:   2,
			ScheduleSeed: seed,
			CaptureTrace: true,
		}, func(p *armci.Proc) {
			me := p.Rank()
			cells := p.MallocWords(p.Size())
			muA := p.Mutex(0, armci.LockQueue)
			muB := p.Mutex(1, armci.LockHybrid)
			for round := 0; round < 4; round++ {
				for q := 0; q < p.Size(); q++ {
					if q != me {
						p.Store(cells[q].Add(int64(me)), int64(round+1))
					}
				}
				p.Barrier()
				for q := 0; q < p.Size(); q++ {
					if q != me {
						if got := p.Load(cells[me].Add(int64(q))); got != int64(round+1) {
							panic(fmt.Sprintf("round %d: stale %d from %d", round, got, q))
						}
					}
				}
				mu := muA
				if round%2 == 1 {
					mu = muB
				}
				mu.Lock()
				v := p.Load(cells[0].Add(int64(me)))
				p.Store(cells[0].Add(int64(me)), v)
				if p.NodeOf(0) != p.MyNode() {
					p.Fence(p.NodeOf(0))
				}
				mu.Unlock()
				p.MPIBarrier()
			}
		})
		if err != nil {
			return "", err
		}
		return fingerprint(rep.Stats), nil
	}

	fingerprints := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		fp, err := run(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fp2, err := run(seed)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if fp != fp2 {
			t.Fatalf("seed %d did not replay identically", seed)
		}
		fingerprints[fp] = true
	}
	// The seeds must actually explore different interleavings, otherwise
	// the shuffle is not doing anything.
	if len(fingerprints) < 2 {
		t.Fatalf("8 seeds produced %d distinct schedules — shuffle ineffective", len(fingerprints))
	}
}

// FuzzParseFaults: any plan ParseFaults accepts must round-trip —
// FormatFaults renders it canonically and re-parsing the rendering
// yields the identical struct. This pins the grammar and the formatter
// to each other (including float formatting and duration rendering) and
// exercises the parser's rejection paths on arbitrary input.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"",
		"jitter=500us",
		"jitter=500us,spike=2ms@0.05,dup=0.02,seed=7",
		"dup=0.25@3ms",
		"loss=0.1@3,rto=200us@4ms,retry=6,crash=2@40,seed=-9",
		"loss=1",
		"rto=1h",
		"spike=0s@1",
		"retry=1,crash=0@1",
		"jitter=1ms,jitter=2ms",
		"loss=0.5@0",
		"seed=9223372036854775807",
		"crashheld=1@1",
		"crash=2@40,crashheld=3@2,seed=11",
		"crashheld=0@0",
		"crashheld=-1@2",
		"crashheld=1@1,crashheld=2@1",
		"crashrank=1@3",
		"crash=2@40,crashrank=1@2,seed=5",
		"crashrank=0@0",
		"crashrank=-1@2",
		"crashrank=1@1,crashrank=2@1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, plan string) {
		parsed, err := armci.ParseFaults(plan)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		rendered := armci.FormatFaults(parsed)
		reparsed, err := armci.ParseFaults(rendered)
		if err != nil {
			t.Fatalf("plan %q: canonical form %q rejected: %v", plan, rendered, err)
		}
		if reparsed != parsed {
			t.Fatalf("plan %q: round-trip mismatch:\nparsed   %+v\nrendered %q\nreparsed %+v",
				plan, parsed, rendered, reparsed)
		}
		// The canonical form is a fixed point.
		if again := armci.FormatFaults(reparsed); again != rendered {
			t.Fatalf("plan %q: formatter not canonical: %q then %q", plan, rendered, again)
		}
	})
}
