package check

import (
	"slices"
	"strings"
	"testing"

	"armci"
	"armci/internal/msg"
	"armci/internal/trace"
)

// sweepAlgs / sweepSyncs are the short-mode conformance matrix: every
// lock algorithm × both synchronization variants on the simulated
// fabric, 64 schedule-shuffle seeds each.
var (
	sweepAlgs  = []string{"queue", "hybrid", "ticket", "queue-nocas", "lease"}
	sweepSyncs = []string{"barrier", "sync-old"}
	// topoSyncs are the topology-aware flavors of the combined barrier;
	// they get their own sweep so the classic matrix stays comparable
	// release to release.
	topoSyncs = []string{"barrier-knomial", "barrier-hier", "barrier-hier-nic"}
)

// TestShortSweep is the conformance sweep that runs even under -short:
// 64 seeds × 4 lock algorithms × 2 sync variants on the simulated
// fabric, every oracle silent.
func TestShortSweep(t *testing.T) {
	cases := Matrix([]armci.FabricKind{armci.FabricSim}, nil, sweepAlgs, sweepSyncs, nil, 6, 2, 1, 64)
	runSweep(t, cases)
}

// TestTopologySyncSweep runs the conformance matrix over the
// topology-aware barrier variants: every lock algorithm under the
// k-nomial and hierarchical combined barriers (the latter with and
// without the NIC-offload fence), 32 schedule-shuffle seeds each, at a
// multi-rank-per-node shape so the hierarchical tree has real intra- and
// inter-node stages. The fence oracle must hold exactly as it does for
// the flat barrier. Runs even under -short: these are new algorithms.
func TestTopologySyncSweep(t *testing.T) {
	cases := Matrix([]armci.FabricKind{armci.FabricSim}, nil, sweepAlgs, topoSyncs, nil, 6, 2, 1, 32)
	runSweep(t, cases)
}

// TestTopologySyncFaultSweep drives the topology-aware barriers through
// latency spikes and loss/dup retransmission: the exchange trees must
// deliver the fence guarantee on the degraded paths too.
func TestTopologySyncFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("topology fault sweep skipped in -short")
	}
	cases := Matrix([]armci.FabricKind{armci.FabricSim}, nil, []string{"queue"},
		topoSyncs, []string{"spike=1ms@0.2", "loss=0.1,dup=0.1,retry=12"}, 6, 2, 1, 16)
	runSweep(t, cases)
}

// TestCoalescedSweep re-runs the sweep with per-destination coalescing
// on, so the notify/wait chunks and flags travel as batched frames: the
// delivery oracle must hold exactly-once and per-pair FIFO over
// KindBatch messages, the fence oracle must see batched operations
// complete before barrier exits, and the byte-level read-back proves
// within-batch apply order.
func TestCoalescedSweep(t *testing.T) {
	cases := Matrix([]armci.FabricKind{armci.FabricSim}, nil, []string{"queue", "hybrid"},
		sweepSyncs, nil, 6, 2, 1, 32)
	for i := range cases {
		cases[i].Coalesce = true
	}
	runSweep(t, cases)
}

// TestCoalescedFaultSweep puts the batched path under loss and
// duplication: a dropped or duplicated frame must retransmit / dedup as
// a unit — all entries exactly once — or the notify read-back and
// delivery oracle trip.
func TestCoalescedFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("coalesced fault sweep skipped in -short")
	}
	faults := []string{"loss=0.15,retry=12", "dup=0.2", "loss=0.1,dup=0.1,retry=12"}
	cases := Matrix([]armci.FabricKind{armci.FabricSim}, nil, []string{"queue"},
		[]string{"barrier"}, faults, 6, 2, 1, 16)
	for i := range cases {
		cases[i].Coalesce = true
	}
	runSweep(t, cases)
}

// TestFaultPlanSweep sweeps a smaller seed range under loss,
// duplication and latency-spike plans: the delivery oracle must hold
// exactly-once, per-pair FIFO admission while the pipeline is
// retransmitting and deduplicating, and the fence oracle must stay
// silent on the real barriers under the same spikes that expose the
// mutated ones.
func TestFaultPlanSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep skipped in -short")
	}
	faults := []string{"loss=0.15,retry=12", "dup=0.2", "loss=0.1,dup=0.1,retry=12",
		"spike=1ms@0.2", "jitter=200us"}
	cases := Matrix([]armci.FabricKind{armci.FabricSim}, nil, []string{"queue", "hybrid"},
		[]string{"barrier"}, faults, 6, 2, 1, 16)
	runSweep(t, cases)
}

// TestLeaseCrashSweep drives the lease lock through holder-crash plans
// across a seed sweep: the designated rank fail-stops inside an acquire,
// and the surviving ranks must repair the lock and finish their critical
// sections with the modulo-lease oracle, the state-level counter and
// liveness all green.
func TestLeaseCrashSweep(t *testing.T) {
	faults := []string{"crashheld=1@1", "crashheld=2@2", "crashheld=5@3"}
	cases := Matrix([]armci.FabricKind{armci.FabricSim}, nil, []string{"lease"},
		[]string{"barrier"}, faults, 6, 2, 1, 16)
	runSweep(t, cases)
}

// TestQueueCrashFailsFastInHarness pins the other half of the contract:
// the same crashheld plan against every lock without a lease must
// surface as a liveness violation (a rank-attributed fault abort), never
// pass and never hang — and never be skipped: a plan that does not fire
// is a case error (RunCase's witness guard), which fails here too.
func TestQueueCrashFailsFastInHarness(t *testing.T) {
	for _, alg := range []string{"queue", "queue-nocas", "hybrid", "ticket"} {
		t.Run(alg, func(t *testing.T) {
			r := RunCase(Case{Fabric: armci.FabricSim, Alg: alg, Sync: "barrier",
				Faults: "crashheld=1@1", Seed: 1})
			if r.Err != nil {
				t.Fatalf("case failed to run: %v", r.Err)
			}
			for _, v := range r.Violations {
				if v.Oracle == "liveness" && strings.Contains(v.Detail, "rank 1") {
					t.Logf("fail-fast surfaced as: %s", v)
					return
				}
			}
			t.Fatalf("%s lock under a holder crash produced no rank-attributed liveness violation: %v", alg, r.Violations)
		})
	}
}

// TestConcurrentFabrics spot-checks the same workload on the goroutine
// and TCP fabrics: the oracles are schedule-agnostic, so they must hold
// on real concurrency too.
func TestConcurrentFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent fabrics skipped in -short")
	}
	for _, f := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
		for _, alg := range sweepAlgs {
			for _, coal := range []bool{false, true} {
				r := RunCase(Case{Fabric: f, Alg: alg, Sync: "barrier", Coalesce: coal})
				if r.Err != nil {
					t.Fatalf("%s/%s coalesce=%v: %v", f, alg, coal, r.Err)
				}
				for _, v := range r.Violations {
					t.Errorf("%s", v)
				}
			}
		}
	}
}

func runSweep(t *testing.T, cases []Case) {
	t.Helper()
	s := RunAll(cases, func(r Result) {
		if r.Err != nil {
			t.Fatalf("case %s failed to run: %v", r.Case.Reproducer(), r.Err)
		}
		for _, v := range r.Violations {
			t.Errorf("%s", v)
		}
	})
	if s.Events == 0 {
		t.Fatal("sweep recorded no protocol events; instrumentation is dark")
	}
	t.Logf("%d cases, %d protocol events, %d violations", s.Cases, s.Events, len(s.Violations))
}

// TestMutationsDetected proves the oracles catch the bugs they exist to
// find: every deliberately broken variant must be detected somewhere in
// a 64-seed sweep, and the violation must carry a minimal reproducer.
// The seed of the first catch is pinned too, so a mutant that gets
// weaker, or is armed later in the run, fails here instead of drifting.
func TestMutationsDetected(t *testing.T) {
	firstCaught := map[string]int64{
		MutQueueSkipLinkWait:  4,
		MutTicketOffByOne:     1,
		MutBarrierSkipStage2:  19,
		MutSyncOldSkipFence:   2,
		MutEventPoolRecycle:   1,
		MutCoalesceReorder:    1,
		MutLeaseStaleRelease:  1,
		MutAccLostUpdate:      1,
		MutFlagBeforeData:     1,
		MutKnomialSkipSubtree: 20,
		MutReplStaleEpoch:     1,
		MutBarrierEmptyLocal:  1,
		MutWaitWrongCell:      1,
		MutChanLendQueued:     1,
		MutLeaseDoubleClaim:   1,
	}
	for _, name := range Mutations() {
		name := name
		t.Run(name, func(t *testing.T) {
			if racyUnderRace(name) {
				t.Skip("a data race by construction: the race detector reports it first")
			}
			r, ok := DetectMutation(name, 1, 64)
			if !ok {
				t.Fatalf("mutation %q survived 64 seeds: oracles are blind to this bug class", name)
			}
			v := r.Violations[0]
			if v.Case.Mutation != name {
				t.Fatalf("violation reproducer names mutation %q, want %q", v.Case.Mutation, name)
			}
			if want := firstCaught[name]; r.Case.Seed != want {
				t.Errorf("first caught at seed %d, want %d: %s", r.Case.Seed, want, v)
			}
			t.Logf("caught at seed %d: %s", r.Case.Seed, v)
		})
	}
}

// racyUnderRace reports whether the tests run under the race detector and
// name is the one mutation whose bug is a data race by construction:
// chan-lend-queued's sender rewrites a frame its receiver reads. The
// detector reports that race and fails the test binary before any oracle
// runs, so its cases run only without it, where they prove the oracles
// catch the bug.
func racyUnderRace(name string) bool { return raceDetector && name == MutChanLendQueued }

// TestMutationsTargetExpectedOracle pins each mutation to the oracle
// family that should catch it, so a regression that silently reroutes
// detection (e.g. the state check catching what the fence oracle
// missed) is visible.
func TestMutationsTargetExpectedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle-attribution sweep skipped in -short")
	}
	want := map[string]string{
		MutQueueSkipLinkWait:  "liveness",
		MutTicketOffByOne:     "mutual-exclusion",
		MutBarrierSkipStage2:  "fence",
		MutSyncOldSkipFence:   "fence",
		MutEventPoolRecycle:   "liveness",
		MutCoalesceReorder:    "state",
		MutLeaseStaleRelease:  "mutual-exclusion",
		MutAccLostUpdate:      "state",
		MutFlagBeforeData:     "state",
		MutKnomialSkipSubtree: "fence",
		MutReplStaleEpoch:     "state",
		MutBarrierEmptyLocal:  "liveness",
		MutWaitWrongCell:      "liveness",
		MutChanLendQueued:     "liveness",
		MutLeaseDoubleClaim:   "mutual-exclusion",
	}
	for name, oracle := range want {
		if racyUnderRace(name) {
			continue
		}
		found := false
	seeds:
		for seed := int64(1); seed <= 64; seed++ {
			r := RunCase(MutationCase(name, seed))
			for _, v := range r.Violations {
				if v.Oracle == oracle {
					found = true
					break seeds
				}
			}
		}
		if !found {
			t.Errorf("mutation %q never tripped the %q oracle in 64 seeds", name, oracle)
		}
	}
}

// TestRunCaseRejectsBadConfig covers the validation path.
func TestRunCaseRejectsBadConfig(t *testing.T) {
	for _, c := range []Case{
		{Fabric: armci.FabricSim, Alg: "bogus"},
		{Fabric: armci.FabricSim, Sync: "bogus"},
		{Fabric: armci.FabricSim, Mutation: "bogus"},
		{Fabric: armci.FabricSim, Faults: "loss=notanumber"},
		{Fabric: armci.FabricSim, Workload: "bogus"},
		{Fabric: armci.FabricSim, Workload: "stencil:rows=0"},
		{Fabric: armci.FabricSim, Workload: "paramserver:hot=9"},   // hot >= procs (6)
		{Fabric: armci.FabricSim, Workload: "mixed", Alg: "queue"}, // workloads have no lock phase
		{Fabric: armci.FabricSim, Workload: "mixed", Mutation: MutTicketOffByOne},
		{Fabric: armci.FabricSim, Workload: "prodcons", Faults: "crashheld=1@1"},
		{Fabric: armci.FabricSim, Mutation: MutAccLostUpdate},     // hazard mutation needs its workload
		{Fabric: armci.FabricChan, Mutation: MutEventPoolRecycle}, // no simulated kernel to break
	} {
		if r := RunCase(c); r.Err == nil {
			t.Errorf("case %+v: want setup error, got none", c)
		}
	}
}

// TestWorkloadSweep drives the four named workloads through the matrix:
// each body's own invariant oracle plus the trace-level oracles must
// stay silent across both sync variants and a seed sweep.
func TestWorkloadSweep(t *testing.T) {
	workloads := []string{"stencil", "paramserver", "prodcons", "mixed"}
	cases := Matrix([]armci.FabricKind{armci.FabricSim}, workloads, nil,
		sweepSyncs, nil, 6, 2, 1, 8)
	runSweep(t, cases)
}

// TestWorkloadSweepFaultsAndCoalesce spot-checks the named workloads on
// the degraded paths: batched wire frames, and loss/dup retransmission.
func TestWorkloadSweepFaultsAndCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("workload fault sweep skipped in -short")
	}
	workloads := []string{"stencil", "paramserver", "prodcons", "mixed"}
	cases := Matrix([]armci.FabricKind{armci.FabricSim}, workloads, nil,
		[]string{"barrier"}, []string{"", "loss=0.1,dup=0.1,retry=12"}, 6, 2, 1, 4)
	for i := range cases {
		cases[i].Coalesce = cases[i].Faults == ""
	}
	runSweep(t, cases)
}

// TestSeedZeroIsFIFOBaseline documents the contract: seed 0 runs the
// kernel in FIFO order and must pass like any other seed.
func TestSeedZeroIsFIFOBaseline(t *testing.T) {
	r := RunCase(Case{Fabric: armci.FabricSim, Alg: "queue", Sync: "barrier", Seed: 0})
	if !r.Passed() {
		t.Fatalf("FIFO baseline failed: err=%v violations=%v", r.Err, r.Violations)
	}
}

// TestLockMutantsMatchRealLockWhileDormant is the fidelity half of the
// mutation contract: a lock mutant is the real lock with one step
// overridden, so with that step's bug dormant — FIFO seed 0, no fault
// plan, and the ranks taking the lock in turn (a late link and an early
// admit both need a waiter; a faster release reorders later enqueues) —
// it must produce the same lock-event sequence and per-kind message
// counts as the algorithm it mutates. The one licensed difference is the
// overridden step itself: the lease mutant's unconditional store gets no
// reply where the real release's compare&swap does.
func TestLockMutantsMatchRealLockWhileDormant(t *testing.T) {
	const procs, rounds = 6, 3
	cases := []struct {
		mutation string
		alg      armci.LockAlg
		ppn      int
		fewer    map[msg.Kind]int // messages the overridden step saves
	}{
		{MutQueueSkipLinkWait, armci.LockQueue, 2, nil},
		{MutLeaseStaleRelease, armci.LockLease, 2,
			map[msg.Kind]int{msg.KindRmwResp: rounds * (procs - 2)}}, // one per remote release
		{MutLeaseDoubleClaim, armci.LockLease, 2,
			map[msg.Kind]int{msg.KindRmwResp: rounds * (procs - 2)}}, // one per remote claim
		{MutTicketOffByOne, armci.LockTicket, procs, nil},
		{MutWaitWrongCell, armci.LockQueue, 2, nil},
	}
	for _, tc := range cases {
		t.Run(tc.mutation, func(t *testing.T) {
			history := func(lock func(p *armci.Proc) armci.Mutex) ([]trace.OpEvent, *armci.Metrics) {
				rep, err := armci.Run(armci.Options{
					Procs: procs, ProcsPerNode: tc.ppn, Fabric: armci.FabricSim,
					Preset: armci.PresetMyrinet2000, NumMutexes: 1, CaptureTrace: true,
				}, func(p *armci.Proc) {
					mu := lock(p)
					for turn := 0; turn < rounds*procs; turn++ {
						if turn%procs == p.Rank() {
							mu.Lock()
							mu.Unlock()
						}
						p.Barrier()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				var ops []trace.OpEvent
				for e := range rep.Stats.Records() {
					switch e.Kind {
					case trace.OpAcquire, trace.OpRelease, trace.OpRepair, trace.OpStaleRelease, trace.OpCrash:
						e.Seq, e.Time = 0, 0 // positions among non-lock events, not lock behaviour
						ops = append(ops, e)
					}
				}
				return ops, rep.Stats
			}
			realOps, realStats := history(func(p *armci.Proc) armci.Mutex { return p.Mutex(0, tc.alg) })
			mutOps, mutStats := history(mutationSpecs[tc.mutation].lock)
			if want := 2 * procs * rounds; len(realOps) < want {
				t.Fatalf("real lock recorded %d lock events, want at least %d", len(realOps), want)
			}
			if !slices.Equal(mutOps, realOps) {
				t.Errorf("dormant mutant's lock events diverge from the real lock's:\n mutant %v\n real   %v", mutOps, realOps)
			}
			for k := msg.KindPut; k <= msg.KindBatch; k++ {
				if got, want := mutStats.Count(k), realStats.Count(k)-tc.fewer[k]; got != want {
					t.Errorf("dormant mutant sent %d %v messages, want %d (real lock %d, overridden step saves %d)",
						got, k, want, realStats.Count(k), tc.fewer[k])
				}
			}
		})
	}
}

// Passed reports whether the case ran and every oracle held.
func (r Result) Passed() bool { return r.Err == nil && len(r.Violations) == 0 }

// RunAll executes every case sequentially, invoking onResult (may be
// nil) after each. It is RunAllParallel with one worker.
func RunAll(cases []Case, onResult func(Result)) SweepResult {
	return RunAllParallel(cases, 1, onResult)
}
