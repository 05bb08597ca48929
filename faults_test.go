package armci_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"armci"
	"armci/internal/msg"
	"armci/internal/shmem"
)

// faultPlan is the stress plan the invariant tests run under: jitter on
// every message, occasional latency spikes dragging a whole pipe, and
// frequent duplicate deliveries.
func faultPlan(seed int64) armci.Faults {
	return armci.Faults{
		Seed:       seed,
		Jitter:     200 * time.Microsecond,
		SpikeProb:  0.05,
		SpikeDelay: time.Millisecond,
		DupProb:    0.2,
	}
}

// TestSyncInvariantsUnderFaults: every lock algorithm and the barrier
// keep their guarantees on every fabric while the pipeline injects
// jitter, latency spikes and duplicate deliveries. Mutual exclusion is
// checked by a read-modify-write counter that would lose increments on
// any overlap; barrier semantics by the visibility of pre-barrier puts.
func TestSyncInvariantsUnderFaults(t *testing.T) {
	const procs, iters = 4, 4
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		for _, alg := range []armci.LockAlg{armci.LockHybrid, armci.LockQueue, armci.LockQueueNoCAS} {
			t.Run(fmt.Sprintf("%v/%v", fabric, alg), func(t *testing.T) {
				metrics := armci.NewMetrics()
				_, err := armci.Run(armci.Options{
					Procs:      procs,
					Fabric:     fabric,
					NumMutexes: 1,
					Faults:     faultPlan(11),
					Metrics:    metrics,
				}, func(p *armci.Proc) {
					ptrs := p.MallocWords(procs + 1)
					counter := ptrs[0]
					mu := p.Mutex(0, alg)
					me := p.Rank()
					for i := 0; i < iters; i++ {
						// Publish this round to every peer, then barrier:
						// all pre-barrier puts must be visible after it.
						for q := 0; q < procs; q++ {
							if q != me {
								p.Store(ptrs[q].Add(int64(1+me)), int64(i+1))
							}
						}
						p.Barrier()
						for q := 0; q < procs; q++ {
							if q != me {
								if got := p.Load(ptrs[me].Add(int64(1 + q))); got != int64(i+1) {
									panic(fmt.Sprintf("iter %d: stale value %d from %d", i, got, q))
								}
							}
						}
						// A non-atomic read-modify-write: only mutual
						// exclusion keeps the count exact. The put must be
						// fenced before the hand-off, as in any ARMCI
						// critical section.
						mu.Lock()
						p.Store(counter, p.Load(counter)+1)
						p.AllFence()
						mu.Unlock()
						p.Barrier()
					}
					if me == 0 {
						if got := p.Load(counter); got != int64(procs*iters) {
							panic(fmt.Sprintf("lost increments: counter %d, want %d", got, procs*iters))
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				f := metrics.Faults()
				if f.Jittered == 0 {
					t.Fatal("fault stage inert: no message drew jitter")
				}
				if f.DupsInjected == 0 {
					t.Fatal("fault stage inert: no duplicate injected")
				}
				if f.DupsSuppressed > f.DupsInjected {
					t.Fatalf("suppressed %d duplicates but injected only %d", f.DupsSuppressed, f.DupsInjected)
				}
				// On the fabrics that deliver everything before Run
				// returns, every injected duplicate must have been
				// suppressed — exactly-once held.
				if fabric != armci.FabricTCP && f.DupsSuppressed != f.DupsInjected {
					t.Fatalf("dedup leaked: injected %d, suppressed %d", f.DupsInjected, f.DupsSuppressed)
				}
				if metrics.KindHistogram(msg.KindColl).Count == 0 {
					t.Fatal("no barrier message latency observed")
				}
			})
		}
	}
}

// TestTCPTraceArrivalPopulated: on the TCP fabric the sender cannot know
// the arrival time, so the receive side's admission record must supply it
// — every captured send is joined to a non-zero arrival.
func TestTCPTraceArrivalPopulated(t *testing.T) {
	rep, err := armci.Run(armci.Options{
		Procs:        2,
		Fabric:       armci.FabricTCP,
		CaptureTrace: true,
	}, func(p *armci.Proc) {
		ptrs := p.Malloc(64)
		payload := make([]byte, 64)
		for i := 0; i < 5; i++ {
			p.Put(ptrs[1-p.Rank()], payload)
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rep.Stats.Timeline()
	if len(events) == 0 {
		t.Fatal("no events captured")
	}
	for _, e := range events {
		if e.Arrival == 0 {
			t.Fatalf("event %d (%s %v->%v) has no arrival time", e.Seq, e.Kind, e.Src, e.Dst)
		}
	}
}

// TestFaultMetricsHistograms: the metrics stage produces usable latency
// histograms and a timeline on a faulted run.
func TestFaultMetricsHistograms(t *testing.T) {
	metrics := armci.NewMetrics()
	metrics.SetTimeline(true)
	_, err := armci.Run(armci.Options{
		Procs:   2,
		Fabric:  armci.FabricSim,
		Preset:  armci.PresetMyrinet2000,
		Faults:  faultPlan(3),
		Metrics: metrics,
	}, func(p *armci.Proc) {
		ptrs := p.Malloc(64)
		payload := make([]byte, 64)
		for i := 0; i < 8; i++ {
			p.Put(ptrs[1-p.Rank()], payload)
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.KindHistogram(msg.KindPut).Count == 0 {
		t.Fatal("no deliveries observed")
	}
	tl := metrics.Timeline()
	if len(tl) == 0 {
		t.Fatal("timeline empty")
	}
	for _, s := range tl {
		if s.Arrival < s.Sent {
			t.Fatalf("delivery %d arrives before it is sent: %v < %v", s.Seq, s.Arrival, s.Sent)
		}
	}
	if csv := metrics.TimelineCSV(); len(csv) == 0 {
		t.Fatal("timeline CSV empty")
	}
}

// lossPlan is the packet-loss plan of the reliability tests: roughly one
// in ten transmissions dropped, recovered by fast retransmit timers.
func lossPlan(seed int64) armci.Faults {
	return armci.Faults{
		Seed:     seed,
		LossProb: 0.1,
		RTO:      200 * time.Microsecond,
		RTOCap:   2 * time.Millisecond,
	}
}

// requireRecovered asserts that a run recovered every loss through
// retransmission: drops happened, each one was retransmitted, and neither
// the retry budget nor a crash ever fired.
func requireRecovered(t *testing.T, metrics *armci.Metrics) {
	t.Helper()
	f := metrics.Faults()
	if f.Dropped == 0 {
		t.Fatal("loss stage inert: nothing was dropped")
	}
	if f.Retransmits != f.Dropped {
		t.Fatalf("dropped %d copies but retransmitted %d", f.Dropped, f.Retransmits)
	}
	if f.RetryExhausted != 0 || f.Crashes != 0 {
		t.Fatalf("unexpected hard faults: exhausted=%d crashes=%d", f.RetryExhausted, f.Crashes)
	}
}

// TestSyncUnderLoss: every lock algorithm keeps mutual exclusion and
// barrier semantics on every fabric while the pipeline drops ~10% of all
// transmissions. The reliability stage must recover every loss — the run
// completes, the counter is exact, and the retransmit counters show the
// stage actually worked.
func TestSyncUnderLoss(t *testing.T) {
	const procs, iters = 4, 4
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		for _, alg := range []armci.LockAlg{armci.LockHybrid, armci.LockQueue, armci.LockQueueNoCAS} {
			t.Run(fmt.Sprintf("%v/%v", fabric, alg), func(t *testing.T) {
				metrics := armci.NewMetrics()
				_, err := armci.Run(armci.Options{
					Procs:      procs,
					Fabric:     fabric,
					NumMutexes: 1,
					Faults:     lossPlan(11),
					Metrics:    metrics,
					OpDeadline: 10 * time.Second,
				}, func(p *armci.Proc) {
					ptrs := p.MallocWords(procs + 1)
					counter := ptrs[0]
					mu := p.Mutex(0, alg)
					me := p.Rank()
					for i := 0; i < iters; i++ {
						for q := 0; q < procs; q++ {
							if q != me {
								p.Store(ptrs[q].Add(int64(1+me)), int64(i+1))
							}
						}
						p.Barrier()
						for q := 0; q < procs; q++ {
							if q != me {
								if got := p.Load(ptrs[me].Add(int64(1 + q))); got != int64(i+1) {
									panic(fmt.Sprintf("iter %d: stale value %d from %d", i, got, q))
								}
							}
						}
						mu.Lock()
						p.Store(counter, p.Load(counter)+1)
						p.AllFence()
						mu.Unlock()
						p.Barrier()
					}
					if me == 0 {
						if got := p.Load(counter); got != int64(procs*iters) {
							panic(fmt.Sprintf("lost increments: counter %d, want %d", got, procs*iters))
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				requireRecovered(t, metrics)
			})
		}
	}
}

// TestBarrierAlgsUnderLoss: every barrier exchange pattern still orders
// pre-barrier puts before post-barrier loads on every fabric under ~10%
// loss.
func TestBarrierAlgsUnderLoss(t *testing.T) {
	const procs, iters = 4, 6
	algs := []armci.BarrierAlg{
		armci.BarrierAuto, armci.BarrierPairwise,
		armci.BarrierDissemination, armci.BarrierCentral,
	}
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		for _, alg := range algs {
			t.Run(fmt.Sprintf("%v/%v", fabric, alg), func(t *testing.T) {
				metrics := armci.NewMetrics()
				_, err := armci.Run(armci.Options{
					Procs:      procs,
					Fabric:     fabric,
					BarrierAlg: alg,
					Faults:     lossPlan(5),
					Metrics:    metrics,
					OpDeadline: 10 * time.Second,
				}, func(p *armci.Proc) {
					ptrs := p.MallocWords(procs + 1)
					me := p.Rank()
					for i := 0; i < iters; i++ {
						for q := 0; q < procs; q++ {
							if q != me {
								p.Store(ptrs[q].Add(int64(1+me)), int64(i+1))
							}
						}
						p.Barrier()
						for q := 0; q < procs; q++ {
							if q != me {
								if got := p.Load(ptrs[me].Add(int64(1 + q))); got != int64(i+1) {
									panic(fmt.Sprintf("iter %d: stale value %d from %d", i, got, q))
								}
							}
						}
						// Keep fast ranks from publishing the next round
						// into slots their peers are still reading.
						p.Barrier()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				requireRecovered(t, metrics)
			})
		}
	}
}

// TestLossDeterminismAcrossFabrics: the analytical retransmit model makes
// loss recovery a pure function of (seed, pair, sequence), so a causally
// serialized workload produces identical trace fingerprints and identical
// retransmit counters on the simulated and the concurrent fabric — and a
// different seed produces a different loss pattern.
func TestLossDeterminismAcrossFabrics(t *testing.T) {
	const gets = 40
	run := func(fabric armci.FabricKind, seed int64) (string, int) {
		metrics := armci.NewMetrics()
		rep, err := armci.Run(armci.Options{
			Procs:        2,
			Fabric:       fabric,
			CaptureTrace: true,
			Metrics:      metrics,
			OpDeadline:   10 * time.Second,
			Faults: armci.Faults{
				Seed:     seed,
				LossProb: 0.2,
				RTO:      300 * time.Microsecond,
			},
		}, func(p *armci.Proc) {
			// Only rank 0 communicates: its Get round-trips are causally
			// serialized, so the global send order is fabric-independent.
			if p.Rank() != 0 {
				return
			}
			remote := p.Env().Space().AllocBytes(1, 64)
			for i := 0; i < gets; i++ {
				p.Get(remote, 64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(rep.Stats), metrics.Faults().Retransmits
	}

	simFP, simRetrans := run(armci.FabricSim, 7)
	if simRetrans == 0 {
		t.Fatal("loss plan inert: no retransmissions on the simulated fabric")
	}
	if !strings.Contains(simFP, ":f") {
		t.Fatalf("retransmit delays not visible in the fingerprint: %s", simFP)
	}
	if fp, n := run(armci.FabricSim, 7); fp != simFP || n != simRetrans {
		t.Fatal("simulated fabric did not replay the loss pattern")
	}
	chanFP, chanRetrans := run(armci.FabricChan, 7)
	if chanFP != simFP {
		t.Fatalf("loss pattern diverges across fabrics for one seed:\nsim:  %s\nchan: %s", simFP, chanFP)
	}
	if chanRetrans != simRetrans {
		t.Fatalf("retransmit counts diverge across fabrics: sim %d, chan %d", simRetrans, chanRetrans)
	}
	if fp, _ := run(armci.FabricSim, 8); fp == simFP {
		t.Fatal("different loss seeds produced identical traces")
	}
}

// TestRetryExhaustionFailsFast: with every transmission dropped the retry
// budget runs out on the very first message, and Run fails with a
// rank-attributed *FaultError instead of hanging until some deadline.
func TestRetryExhaustionFailsFast(t *testing.T) {
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		t.Run(fmt.Sprint(fabric), func(t *testing.T) {
			metrics := armci.NewMetrics()
			_, err := armci.Run(armci.Options{
				Procs:      2,
				Fabric:     fabric,
				Metrics:    metrics,
				OpDeadline: 2 * time.Second,
				Faults: armci.Faults{
					Seed:        3,
					LossProb:    1,
					RetryBudget: 3,
					RTO:         50 * time.Microsecond,
				},
			}, func(p *armci.Proc) {
				ptrs := p.Malloc(8)
				p.Put(ptrs[1-p.Rank()], make([]byte, 8))
				p.Barrier()
			})
			var fe *armci.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("want *armci.FaultError, got %v", err)
			}
			if fe.Kind != armci.FaultRetryExhausted {
				t.Fatalf("want kind %v, got %v (%v)", armci.FaultRetryExhausted, fe.Kind, fe)
			}
			if fe.Rank < 0 || fe.Rank >= 2 {
				t.Fatalf("fault attributed to impossible rank %d: %v", fe.Rank, fe)
			}
			f := metrics.Faults()
			if f.RetryExhausted == 0 {
				t.Fatal("exhaustion not counted")
			}
			if f.Dropped < 4 { // budget 3 => 1 original + 3 retransmissions lost
				t.Fatalf("want >= 4 dropped copies, got %d", f.Dropped)
			}
		})
	}
}

// TestCrashFaultFailsFast: a fail-stop crash injected at rank 2's fifth
// send aborts the run on every fabric with a *FaultError naming the
// crashed rank — the error surfaces through Run without relying on the
// global run deadline, and the partial report still carries the metrics.
func TestCrashFaultFailsFast(t *testing.T) {
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		t.Run(fmt.Sprint(fabric), func(t *testing.T) {
			metrics := armci.NewMetrics()
			rep, err := armci.Run(armci.Options{
				Procs:      4,
				Fabric:     fabric,
				Metrics:    metrics,
				OpDeadline: 2 * time.Second,
				Faults: armci.Faults{
					CrashRank:       2,
					CrashAfterSends: 5,
				},
			}, func(p *armci.Proc) {
				ptrs := p.Malloc(8)
				for i := 0; i < 10; i++ {
					p.Put(ptrs[(p.Rank()+1)%p.Size()], make([]byte, 8))
					p.Barrier()
				}
			})
			var fe *armci.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("want *armci.FaultError, got %v", err)
			}
			if fe.Kind != armci.FaultCrash {
				t.Fatalf("want kind %v, got %v (%v)", armci.FaultCrash, fe.Kind, fe)
			}
			if fe.Rank != 2 || fe.Server {
				t.Fatalf("crash attributed to %v, want user rank 2", fe)
			}
			if rep == nil {
				t.Fatal("fault abort must still return the partial report")
			}
			if metrics.Faults().Crashes != 1 {
				t.Fatalf("want exactly one counted crash, got %d", metrics.Faults().Crashes)
			}
		})
	}
}

// TestOpDeadlineBoundsAWedgedWait: a predicate that can never become true
// is cut off by Options.OpDeadline on every fabric and surfaces as a
// rank-attributed op-timeout fault carrying the wait tag.
func TestOpDeadlineBoundsAWedgedWait(t *testing.T) {
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		t.Run(fmt.Sprint(fabric), func(t *testing.T) {
			_, err := armci.Run(armci.Options{
				Procs:      2,
				Fabric:     fabric,
				OpDeadline: 100 * time.Millisecond,
			}, func(p *armci.Proc) {
				if p.Rank() != 0 {
					return
				}
				p.Env().WaitUntil("wedged", shmem.Cells{}, func() bool { return false })
			})
			var fe *armci.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("want *armci.FaultError, got %v", err)
			}
			if fe.Kind != armci.FaultOpTimeout {
				t.Fatalf("want kind %v, got %v (%v)", armci.FaultOpTimeout, fe.Kind, fe)
			}
			if fe.Rank != 0 || fe.Server {
				t.Fatalf("timeout attributed to %v, want user rank 0", fe)
			}
			if !strings.Contains(fe.Op, "wedged") {
				t.Fatalf("fault does not carry the wait tag: %v", fe)
			}
		})
	}
}

// TestSimRunLeavesNoGoroutines: a sim run that ends with processes still
// parked — an op-timeout, survivors wedged on a fail-stopped rank, a lock
// whose holder died, the virtual deadline — stops them on its way out.
// Each is a coroutine of the kernel, so a run that only abandoned them
// would leave every one behind as a goroutine parked for good.
func TestSimRunLeavesNoGoroutines(t *testing.T) {
	const procs = 4
	ring := func(p *armci.Proc) { // puts round the ring, then a barrier: all ranks and servers busy
		slots := p.Malloc(8)
		p.Put(slots[(p.Rank()+1)%procs], []byte{1, 2, 3, 4, 5, 6, 7, 8})
		p.Barrier()
	}
	aborted := []struct {
		name string
		opt  armci.Options
		body func(p *armci.Proc)
	}{
		{"op-timeout", armci.Options{OpDeadline: 100 * time.Millisecond}, func(p *armci.Proc) {
			ring(p)
			if p.Rank() == 0 {
				p.Env().WaitUntil("wedged", shmem.Cells{}, func() bool { return false })
			}
			p.Barrier()
		}},
		{"crashed rank", armci.Options{Faults: armci.Faults{CrashRank: 1, CrashAfterSends: 3}}, func(p *armci.Proc) {
			for i := 0; i < 8; i++ {
				ring(p)
			}
		}},
		{"crashed holder", armci.Options{NumMutexes: 1, LockHomes: []int{0}, Faults: leaseCrashPlan()}, func(p *armci.Proc) {
			mu := p.Mutex(0, armci.LockQueue)
			mu.Lock()
			mu.Unlock()
		}},
		{"virtual deadline", armci.Options{Deadline: time.Millisecond}, func(p *armci.Proc) {
			ring(p)
			p.Env().Clock().Sleep(time.Second)
		}},
	}
	run := func() {
		for _, a := range aborted {
			a.opt.Procs, a.opt.Fabric = procs, armci.FabricSim
			if _, err := armci.Run(a.opt, a.body); err == nil {
				t.Fatalf("%s: run finished cleanly; it was meant to end with processes still parked", a.name)
			}
		}
	}
	run() // whatever the runtime starts once is running from here on
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		run()
	}
	after := runtime.NumGoroutine()
	for wait := time.Now(); after > before && time.Since(wait) < 2*time.Second; after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("20 aborted sim runs left %d goroutines behind (%d -> %d)", after-before, before, after)
	}
}

// TestSoakLossAllAlgorithms is the long-mode reliability soak: every lock
// algorithm and every barrier pattern on every fabric, more iterations,
// burstier loss. A deadlock would surface as an op-timeout fault, not a
// hang.
func TestSoakLossAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped with -short")
	}
	const procs = 4
	plan := armci.Faults{
		Seed:      29,
		LossProb:  0.08,
		LossBurst: 2,
		RTO:       200 * time.Microsecond,
		RTOCap:    2 * time.Millisecond,
	}
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		for _, lock := range []armci.LockAlg{armci.LockHybrid, armci.LockQueue, armci.LockQueueNoCAS} {
			for _, barrier := range []armci.BarrierAlg{
				armci.BarrierAuto, armci.BarrierPairwise,
				armci.BarrierDissemination, armci.BarrierCentral,
			} {
				t.Run(fmt.Sprintf("%v/%v/%v", fabric, lock, barrier), func(t *testing.T) {
					const iters = 6
					metrics := armci.NewMetrics()
					_, err := armci.Run(armci.Options{
						Procs:      procs,
						Fabric:     fabric,
						NumMutexes: 2,
						BarrierAlg: barrier,
						Faults:     plan,
						Metrics:    metrics,
						OpDeadline: 15 * time.Second,
					}, func(p *armci.Proc) {
						ptrs := p.MallocWords(2)
						counters := [2]armci.Ptr{ptrs[0], ptrs[0].Add(1)}
						mus := [2]armci.Mutex{p.Mutex(0, lock), p.Mutex(1, lock)}
						me := p.Rank()
						for i := 0; i < iters; i++ {
							k := (me + i) % 2
							mus[k].Lock()
							p.Store(counters[k], p.Load(counters[k])+1)
							p.AllFence()
							mus[k].Unlock()
							p.Barrier()
						}
						if me == 0 {
							total := p.Load(counters[0]) + p.Load(counters[1])
							if total != int64(procs*iters) {
								panic(fmt.Sprintf("lost increments: %d, want %d", total, procs*iters))
							}
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					requireRecovered(t, metrics)
				})
			}
		}
	}
}
