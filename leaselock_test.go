package armci_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"armci"
	"armci/internal/trace"
)

// The lease lock's acceptance scenario: rank 1 fail-stops while holding
// the lock (crashheld), and rank 0 — which queued behind it — must
// depose the dead holder via the lease repair protocol and run its
// critical sections to completion. The same plan against the plain
// queuing lock must fail fast with a rank-attributed fault error
// instead of hanging.

// leaseCrashPlan designates rank 1 to die right after its first
// acquisition.
func leaseCrashPlan() armci.Faults {
	return armci.Faults{CrashHeldRank: 1, CrashHeldAcquire: 1, Seed: 3}
}

const leaseCrashSections = 5

// runLeaseCrashWorkload runs the canonical holder-crash workload: rank 1
// takes the lock and dies holding it; rank 0 waits until rank 1 is
// registered (so the crash point is ordered before everything rank 0
// records), then acquires the lock leaseCrashSections times, bumping a
// counter each time. Every post-crash lock event is serialized through
// rank 0, which is what makes the recovery history comparable across
// schedule seeds and fabrics.
func runLeaseCrashWorkload(fabric armci.FabricKind, seed int64, metrics *armci.Metrics) (*armci.Report, error) {
	opts := armci.Options{
		Procs:        2,
		Fabric:       fabric,
		Preset:       armci.PresetMyrinet2000,
		NumMutexes:   1,
		LockHomes:    []int{0},
		LeaseTTL:     5 * time.Millisecond,
		Faults:       leaseCrashPlan(),
		CaptureTrace: true,
		ScheduleSeed: seed,
		Metrics:      metrics,
	}
	if fabric != armci.FabricSim {
		opts.ScheduleSeed = 0
		opts.OpDeadline = 30 * time.Second
	}
	return armci.Run(opts, func(p *armci.Proc) {
		cells := p.MallocWords(1) // counter homed at rank 0
		mu := p.Mutex(0, armci.LockLease)
		if p.Rank() == 1 {
			mu.Lock() // the crashheld plan fail-stops inside
			panic("rank 1 survived its designated crashheld fault")
		}
		// Rank 0: wait until rank 1 is the registered tenant (LeaseState
		// Lo = rank+1 = 2; the state pair is homed here, so this poll is
		// local), then contend.
		eng := p.Engine()
		state := p.Locks().LeaseState[0]
		for eng.LoadPair(state).Lo != 2 {
			p.Env().Clock().Sleep(100 * time.Microsecond)
		}
		for i := 0; i < leaseCrashSections; i++ {
			mu.Lock()
			p.Store(cells[0], p.Load(cells[0])+1)
			mu.Unlock()
		}
		if got := p.Load(cells[0]); got != leaseCrashSections {
			panic(fmt.Sprintf("counter %d after recovery, want %d", got, leaseCrashSections))
		}
	})
}

// lockEvents filters a run's recorded history down to the lock-protocol
// kinds the lease oracles and determinism checks reason about.
func lockEvents(rep *armci.Report) []trace.OpEvent {
	var out []trace.OpEvent
	for e := range rep.Stats.Records() {
		switch e.Kind {
		case trace.OpAcquire, trace.OpRelease, trace.OpRepair, trace.OpStaleRelease, trace.OpCrash:
			out = append(out, e)
		}
	}
	return out
}

// TestLeaseLockPlain: with no faults injected the lease lock is just an
// MCS lock with a registration CAS — the counter invariant must hold on
// every fabric.
func TestLeaseLockPlain(t *testing.T) {
	const procs, iters = 4, 6
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			_, err := armci.Run(armci.Options{
				Procs:      procs,
				Fabric:     fabric,
				Preset:     armci.PresetMyrinet2000,
				NumMutexes: 1,
				LockHomes:  []int{0},
			}, func(p *armci.Proc) {
				cells := p.MallocWords(1)
				mu := p.Mutex(0, armci.LockLease)
				for i := 0; i < iters; i++ {
					mu.Lock()
					p.Store(cells[0], p.Load(cells[0])+1)
					if p.NodeOf(0) != p.MyNode() {
						p.Fence(p.NodeOf(0))
					}
					mu.Unlock()
				}
				p.Barrier()
				if p.Rank() == 0 {
					if got := p.Load(cells[0]); got != procs*iters {
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

// TestLeaseLockSurvivesHolderCrash: the acceptance criterion. Under a
// crashheld plan targeting the holder, the lease-lock workload runs to
// completion on every concurrent-capable fabric, with exactly one crash
// witness, exactly one repair deposing the dead rank, and all surviving
// acquisitions accounted for.
func TestLeaseLockSurvivesHolderCrash(t *testing.T) {
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			metrics := armci.NewMetrics()
			rep, err := runLeaseCrashWorkload(fabric, 0, metrics)
			if err != nil {
				t.Fatalf("lease workload did not survive the holder crash: %v", err)
			}
			if got := metrics.Faults().Crashes; got != 1 {
				t.Fatalf("metrics counted %d crashes, want 1", got)
			}
			var acquires, repairs, crashes, stale int
			for _, e := range lockEvents(rep) {
				switch e.Kind {
				case trace.OpAcquire:
					acquires++
				case trace.OpRepair:
					repairs++
					if e.Prev != 1 {
						t.Fatalf("repair deposed rank %d, want 1", e.Prev)
					}
				case trace.OpCrash:
					crashes++
					if e.Rank != 1 {
						t.Fatalf("crash witness names rank %d, want 1", e.Rank)
					}
				case trace.OpStaleRelease:
					stale++
				}
			}
			if crashes != 1 || repairs != 1 {
				t.Fatalf("crash/repair witnesses = %d/%d, want 1/1", crashes, repairs)
			}
			if want := leaseCrashSections + 1; acquires != want {
				t.Fatalf("recorded %d acquires, want %d (1 doomed + %d surviving)",
					acquires, want, leaseCrashSections)
			}
			if stale != 0 {
				t.Fatalf("recorded %d stale releases, want 0 (the dead holder never releases)", stale)
			}
		})
	}
}

// TestQueueLockCrashHeldFailsFast: the same crashheld plan against every
// lock without a lease must never hang, and must never be silently
// skipped — the run fails fast with a FaultError attributing the crash,
// on every fabric, under every such algorithm.
func TestQueueLockCrashHeldFailsFast(t *testing.T) {
	// taken reports, from rank 0 where lock 0 is homed, whether the
	// victim has occupied the lock: a non-nil MCS tail, or a drawn ticket.
	tail := func(p *armci.Proc) bool { return !p.Engine().LoadPair(p.Locks().MCS[0]).UnpackPtr().IsNil() }
	ticket := func(p *armci.Proc) bool { return p.Engine().Load(p.Locks().TicketCounter[0]) > 0 }
	algs := []struct {
		alg   armci.LockAlg
		ppn   int // the pure ticket lock needs every rank on the home node
		taken func(p *armci.Proc) bool
	}{
		{armci.LockQueue, 1, tail},
		{armci.LockQueueNoCAS, 1, tail},
		{armci.LockHybrid, 1, ticket},
		{armci.LockTicket, 2, ticket},
	}
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			for _, a := range algs {
				t.Run(a.alg.String(), func(t *testing.T) {
					t.Parallel() // a wall-clock fabric takes ~1 s to attribute the crash
					rep, err := armci.Run(armci.Options{
						Procs:        2,
						ProcsPerNode: a.ppn,
						Fabric:       fabric,
						NumMutexes:   1,
						LockHomes:    []int{0},
						Faults:       leaseCrashPlan(),
					}, func(p *armci.Proc) {
						p.MallocWords(1)
						mu := p.Mutex(0, a.alg)
						if p.Rank() == 1 {
							mu.Lock() // dies here
							panic("rank 1 survived its designated crashheld fault")
						}
						// Wait until rank 1 occupies the lock, then block on
						// the dead holder.
						for !a.taken(p) {
							p.Env().Clock().Sleep(100 * time.Microsecond)
						}
						mu.Lock()
						panic("rank 0 acquired a lock whose holder died without releasing")
					})
					if err == nil {
						t.Fatal("lock under a holder crash completed; want a fault error")
					}
					var fe *armci.FaultError
					if !errors.As(err, &fe) {
						t.Fatalf("error %v (%T) is not a *FaultError", err, err)
					}
					if fe.Kind != armci.FaultCrash {
						t.Fatalf("fault kind %v, want FaultCrash", fe.Kind)
					}
					if fe.Rank != 1 {
						t.Fatalf("fault attributed to rank %d, want the crashed rank 1", fe.Rank)
					}
					if rep == nil {
						t.Fatal("fault abort returned no partial report")
					}
				})
			}
		})
	}
}

// TestWaitFlagProducerCrashFailsFast: a consumer spinning in WaitFlag
// whose producer fail-stopped before the flag store landed must surface
// a rank-attributed FaultError — never spin forever.
func TestWaitFlagProducerCrashFailsFast(t *testing.T) {
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			_, err := armci.Run(armci.Options{
				Procs:      2,
				Fabric:     fabric,
				NumMutexes: 1,
				LockHomes:  []int{0},
				Faults:     leaseCrashPlan(),
			}, func(p *armci.Proc) {
				flags := p.MallocWords(1) // flag cell at rank 0
				if p.Rank() == 1 {
					mu := p.Mutex(0, armci.LockQueue)
					mu.Lock() // dies before the notify below
					p.PutFlag(flags[0], []byte{1}, flags[0], 1)
					return
				}
				p.WaitFlag(flags[0], 1)
				panic("flag observed although its producer crashed before storing it")
			})
			var fe *armci.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v (%T) is not a *FaultError", err, err)
			}
			if fe.Kind != armci.FaultCrash || fe.Rank != 1 {
				t.Fatalf("fault = kind %v rank %d, want FaultCrash from rank 1", fe.Kind, fe.Rank)
			}
		})
	}
}

// TestLeaseRecoveryDeterministic: at a fixed fault seed the recovery
// history — acquires, the crash, the repair, every epoch — is
// byte-identical across repeated runs, across sim schedule seeds, and
// across the sim, chan and tcp fabrics.
func TestLeaseRecoveryDeterministic(t *testing.T) {
	base, err := runLeaseCrashWorkload(armci.FabricSim, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintOpEvents(lockEvents(base))
	if want == "" {
		t.Fatal("baseline run recorded no lock events")
	}
	for _, seed := range []int64{0, 1, 7, 23} {
		rep, err := runLeaseCrashWorkload(armci.FabricSim, seed, nil)
		if err != nil {
			t.Fatalf("sim seed %d: %v", seed, err)
		}
		if got := fingerprintOpEvents(lockEvents(rep)); got != want {
			t.Fatalf("sim seed %d recovery history diverged:\ngot  %s\nwant %s", seed, got, want)
		}
	}
	for _, fabric := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
		rep, err := runLeaseCrashWorkload(fabric, 0, nil)
		if err != nil {
			t.Fatalf("%v: %v", fabric, err)
		}
		if got := fingerprintOpEvents(lockEvents(rep)); got != want {
			t.Fatalf("%v recovery history diverged from sim:\ngot  %s\nwant %s", fabric, got, want)
		}
	}
}

// fingerprintOpEvents digests a protocol-level event slice, numbered by
// position like trace.FingerprintEvents. It folds in the fields the lock
// oracles reason about — kind, rank, lock, predecessor, ticket, epoch —
// and leaves out Time (virtual on sim, wall elsewhere) and Seq (a
// filtered lock sub-stream would inherit unrelated interleaving), so two
// runs whose hand-off history agrees match across fabrics and seeds.
func fingerprintOpEvents(events []trace.OpEvent) string {
	var b strings.Builder
	for i, e := range events {
		fmt.Fprintf(&b, "%d:%s:r%d:l%d:p%d:t%d:e%d;",
			i+1, e.Kind, e.Rank, e.Lock, e.Prev, e.Ticket, e.Epoch)
	}
	return b.String()
}
