// Package check is the schedule-exploration conformance harness: it runs
// a workload — a lock algorithm exercising a shared counter plus put
// rounds separated by a global synchronization variant — across a sweep
// of kernel shuffle seeds and fabrics, captures the protocol-level event
// history the instrumented algorithms record (trace.Stats.Records), and
// validates the history against invariant oracles:
//
//   - mutual exclusion: at most one rank holds a lock between its
//     acquire and release records; the lease lock is judged in epoch
//     order instead — each epoch claimed once and in turn, each ended by
//     its holder's release or one repair deposing it, a deposed holder's
//     release rejected as stale, and repairs only once a fail-stop is on
//     record;
//   - FIFO hand-off: MCS acquires chain through their predecessor ranks
//     (QueueLock, and LeaseLock until the first crash), ticket-ordered
//     algorithms grant in strictly increasing ticket order (Hybrid,
//     Ticket); QueueLockNoCAS is exempt — the paper's swap-release
//     legitimately trades FIFO away;
//   - fence completion: no rank exits a global synchronization while a
//     fence-counted operation issued before any rank's matching entry is
//     still incomplete, and no rank exits before every rank has entered;
//   - delivery: per directed (src, dst) pair, admitted messages carry
//     strictly increasing pipeline sequence numbers — per-pair FIFO and
//     exactly-once after duplicate suppression, including under loss and
//     duplication fault plans;
//   - state: the workload's own end-to-end assertions — the default
//     workload's critical-section counter total and put-round
//     read-back, or a named workload's oracle (stencil replay +
//     boundary checksum, accumulate-sum exactness, notify
//     no-stale-read, mixed-mode state replay; see internal/workload);
//   - liveness: the run finished without a deadlock, fault abort, or
//     deadline.
//
// A violation reports the minimal reproducer {fabric, procs, ppn, alg,
// faults, seed} that re-runs the exact failing schedule. The package
// also ships deliberately broken algorithm variants (mutations.go) whose
// detection proves the oracles can catch the bugs they exist to find.
package check

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"armci"
	"armci/internal/trace"
	"armci/internal/transport"
	"armci/internal/workload"
)

// Case is one conformance scenario: a workload under one configuration.
// The zero value of optional fields is filled by withDefaults.
type Case struct {
	// Fabric is the execution substrate (sim/chan/tcp).
	Fabric armci.FabricKind
	// Procs is the number of user processes (default 6).
	Procs int
	// PPN is how many consecutive ranks share a node (default 2; forced
	// to Procs for the ticket algorithm, which is single-node only).
	PPN int
	// Alg is the lock algorithm exercised by the critical-section phase,
	// an armci.LockAlg name (armci.ParseLockAlg), or "" for no lock phase.
	Alg string
	// Workload selects a named workload program in the internal/workload
	// grammar — "stencil", "paramserver:hot=2", "prodcons",
	// "mixed:skew=hot,seed=9", each with its own invariant oracle
	// reporting through the state channel. "" runs the default
	// three-phase lock/put/notify workload. Named workloads have no lock
	// phase (Alg must be empty) and no crashheld support.
	Workload string
	// Sync is the global synchronization variant, the name of a row of
	// workload.Syncs (default "barrier", the paper's combined
	// ARMCI_Barrier).
	Sync string
	// Faults is a fault plan in the armci.ParseFaults grammar ("" = no
	// faults). A plan without an explicit seed= knob is seeded with Seed,
	// so a seed sweep also sweeps fault patterns.
	Faults string
	// Seed is the kernel schedule-shuffle seed (sim fabric; 0 = FIFO
	// baseline) and the default fault seed.
	Seed int64
	// Iters is the number of lock/unlock critical sections per rank
	// (default 3).
	Iters int
	// Rounds is the number of put+sync rounds (default 2).
	Rounds int
	// Preset is the cost model (default the paper's Myrinet 2000, so
	// stores have an in-flight window the fence oracles can observe).
	Preset armci.CostPreset
	// Coalesce enables per-destination operation coalescing, so the
	// workload's small puts and notify flags travel as batched frames and
	// the delivery / fence / state oracles run over the batched path.
	Coalesce bool
	// Mutation selects a deliberately broken algorithm variant (see
	// mutations.go); "" runs the real algorithms.
	Mutation string
	// LeaseTTL overrides the lease lock's TTL (0 = the core default).
	// Only meaningful with Alg "lease" or a lease-targeting mutation.
	LeaseTTL time.Duration
	// OpDeadline bounds every blocking operation; 0 means none on the
	// simulated fabric (its deadlock detector fails fast) and a generous
	// wall-clock bound on the concurrent fabrics.
	OpDeadline time.Duration
}

// withDefaults fills unset fields.
func (c Case) withDefaults() Case {
	if c.Procs <= 0 {
		c.Procs = 6
	}
	if c.PPN <= 0 {
		c.PPN = 2
	}
	if c.Alg == armci.LockTicket.String() {
		// The pure ticket lock requires every rank on the lock's home
		// node.
		c.PPN = c.Procs
	}
	if c.Sync == "" {
		c.Sync = "barrier"
	}
	if c.Iters <= 0 {
		c.Iters = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.Preset == "" {
		c.Preset = armci.PresetMyrinet2000
	}
	if c.OpDeadline == 0 && c.Fabric != armci.FabricSim {
		// A mutation whose bug hangs a wall-clock run says how soon to
		// call it; replaying its tuple picks the same bound.
		c.OpDeadline = cmp.Or(mutationSpecs[c.Mutation].opDeadline, 30*time.Second)
	}
	return c
}

// Reproducer renders the minimal reproducer of the case: the tuple that
// re-runs the exact failing schedule.
func (c Case) Reproducer() string {
	s := fmt.Sprintf("{fabric=%s procs=%d ppn=%d alg=%s/%s faults=%q seed=%d",
		c.Fabric, c.Procs, c.PPN, c.Alg, c.Sync, c.Faults, c.Seed)
	if c.Workload != "" {
		s += fmt.Sprintf(" workload=%q", c.Workload)
	}
	if c.Coalesce {
		s += " coalesce"
	}
	if c.Mutation != "" {
		s += " mutation=" + c.Mutation
	}
	return s + "}"
}

// Violation is one invariant breach found in a run.
type Violation struct {
	// Oracle names the invariant: "mutual-exclusion", "fifo", "fence",
	// "delivery", "state" or "liveness".
	Oracle string
	// Detail describes the breach, referencing op-event sequence numbers
	// where applicable.
	Detail string
	// Case is the configuration that produced it.
	Case Case
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violation: %s; reproducer %s", v.Oracle, v.Detail, v.Case.Reproducer())
}

// Result is the outcome of one case.
type Result struct {
	Case       Case
	Violations []Violation
	// Events is the number of protocol-level events the run recorded.
	Events int
	// Err is a setup error (bad case), not an oracle finding.
	Err error
	// Panicked reports that the case's worker panicked mid-run. Err
	// carries the recovered panic value, attributed to the reproducer.
	Panicked bool
}

// collector gathers state-level assertion failures from inside workload
// bodies (which run concurrently on the chan/tcp fabrics).
type collector struct {
	mu     sync.Mutex
	faults []string
}

func (c *collector) addf(format string, args ...any) {
	c.mu.Lock()
	c.faults = append(c.faults, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *collector) take() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.faults
	c.faults = nil
	return out
}

// RunCase executes one case and validates its history against every
// oracle.
func RunCase(c Case) Result {
	c = c.withDefaults()
	if err := validateCase(c); err != nil {
		return Result{Case: c, Err: err}
	}
	faults, err := armci.ParseFaults(c.Faults)
	if err != nil {
		return Result{Case: c, Err: fmt.Errorf("check: bad fault plan %q: %w", c.Faults, err)}
	}
	if faults.Enabled() && faults.Seed == 0 {
		faults.Seed = c.Seed
	}
	spec := mutationSpecs[c.Mutation]
	if c.LeaseTTL == 0 {
		// A lease-targeting mutation's TTL is part of the bug's trigger
		// but not of the reproducer tuple; default it from the spec so
		// replaying the tuple (armci-check -mutation ...) re-runs the
		// exact failing configuration.
		c.LeaseTTL = spec.leaseTTL
	}
	if spec.harnessPanic {
		panic(fmt.Sprintf("check: deliberate harness panic for case %s", c.Reproducer()))
	}
	col := &collector{}
	sy, _ := workload.SyncNamed(c.Sync)
	rep, runErr := armci.Run(armci.Options{
		Procs:        c.Procs,
		ProcsPerNode: c.PPN,
		Fabric:       c.Fabric,
		Preset:       c.Preset,
		NumMutexes:   1,
		ScheduleSeed: c.Seed,
		BarrierAlg:   sy.Barrier,
		NIC:          sy.NIC,
		Coalesce:     armci.Coalesce{Enabled: c.Coalesce || spec.coalesceHazard},
		CaptureTrace: true,
		Faults:       faults,
		LeaseTTL:     c.LeaseTTL,
		OpDeadline:   c.OpDeadline,
	}, armSubstrate(spec, workloadBody(c, col)))

	r := Result{Case: c}
	if runErr != nil {
		// A run that deadlocks, trips a fault abort, or exceeds a
		// deadline did not preserve liveness under this schedule.
		r.Violations = append(r.Violations, Violation{
			Oracle: "liveness", Detail: runErr.Error(), Case: c,
		})
	}
	for _, f := range col.take() {
		r.Violations = append(r.Violations, Violation{Oracle: "state", Detail: f, Case: c})
	}
	if rep != nil {
		history := rep.Stats.Records()
		r.Violations = append(r.Violations, checkHistory(history, c)...)
		// A crashheld plan the victim's iterations reach must leave its
		// OpCrash witness; a sweep whose crash never happened proved
		// nothing about crashes and must not read as a clean pass.
		crashed := false
		for e := range history {
			if e.Kind != trace.OpSend {
				r.Events++
			}
			crashed = crashed || e.Kind == trace.OpCrash
		}
		if n := faults.CrashHeldAcquire; n > 0 && n <= c.Iters && !crashed {
			r.Err = fmt.Errorf("check: fault plan %q did not fire: no crash witness in the trace of %s", c.Faults, c.Reproducer())
		}
	}
	return r
}

// armSubstrate returns body with the mutation's substrate bug, if it has
// one, armed in its first statement: the simulated kernel every rank
// shares, or the rank's own coalescer or chan link, reached through the
// handles the body holds. It is armed before the rank's first operation,
// so the bug bites from the start of the run.
func armSubstrate(spec mutationSpec, body func(*armci.Proc)) func(*armci.Proc) {
	if !spec.simHazard && !spec.coalesceHazard && !spec.chanHazard {
		return body
	}
	return func(p *armci.Proc) {
		if spec.simHazard {
			transport.SimKernel(p.Env()).SetEventPoolHazard(true)
		}
		if spec.chanHazard {
			transport.SetLendQueuedHazard(p.Env())
		}
		if spec.coalesceHazard {
			p.Engine().Coalescer().SetReorderHazard(true)
		}
		body(p)
	}
}

// validateCase rejects unknown algorithm / sync / mutation names before
// spending a run on them.
func validateCase(c Case) error {
	if c.Alg != "" {
		if _, err := armci.ParseLockAlg(c.Alg); err != nil {
			return fmt.Errorf("check: %w", err)
		}
	}
	if _, ok := workload.SyncNamed(c.Sync); !ok {
		return fmt.Errorf("check: unknown sync variant %q", c.Sync)
	}
	m, knownMut := mutationSpecs[c.Mutation]
	if c.Mutation != "" && !knownMut {
		return fmt.Errorf("check: unknown mutation %q", c.Mutation)
	}
	if m.simHazard && c.Fabric != armci.FabricSim {
		return fmt.Errorf("check: mutation %q breaks the simulated kernel; fabric %s has none", c.Mutation, c.Fabric)
	}
	if m.chanHazard && c.Fabric != armci.FabricChan {
		return fmt.Errorf("check: mutation %q breaks the chan link; fabric %s has none", c.Mutation, c.Fabric)
	}
	if c.Workload != "" {
		sp, err := workload.Parse(c.Workload)
		if err != nil {
			return fmt.Errorf("check: bad workload: %w", err)
		}
		if err := sp.ValidateFor(c.Procs); err != nil {
			return fmt.Errorf("check: %w", err)
		}
		if c.Alg != "" {
			return fmt.Errorf("check: workload %q has no lock phase; Alg must be empty, got %q", c.Workload, c.Alg)
		}
		if m.lock != nil || m.syncFn != nil {
			return fmt.Errorf("check: mutation %q mutates the lock/sync phase, which workload %q does not run", c.Mutation, c.Workload)
		}
		if f, ferr := armci.ParseFaults(c.Faults); ferr == nil && f.CrashHeldAcquire > 0 {
			return fmt.Errorf("check: crashheld plans require the default lock workload, not %q", c.Workload)
		}
	} else if m.hazards.Armed() {
		return fmt.Errorf("check: mutation %q targets workload %q; set Workload", c.Mutation, m.workload)
	}
	return nil
}

// Matrix expands the cross product of fabrics × workloads × lock
// algorithms × sync variants × fault plans × seeds [seedLo, seedHi]
// into cases. Dimension slices may be empty to mean their single
// default ("" workload/alg, "barrier", no faults). A named workload has
// no lock phase, so it crosses syncs × faults × seeds with Alg empty
// instead of multiplying the algorithm dimension.
func Matrix(fabrics []armci.FabricKind, workloads, algs, syncs, faults []string, procs, ppn int, seedLo, seedHi int64) []Case {
	if len(workloads) == 0 {
		workloads = []string{""}
	}
	if len(algs) == 0 {
		algs = []string{""}
	}
	if len(syncs) == 0 {
		syncs = []string{"barrier"}
	}
	if len(faults) == 0 {
		faults = []string{""}
	}
	var cases []Case
	for _, f := range fabrics {
		for _, w := range workloads {
			as := algs
			if w != "" {
				as = []string{""}
			}
			for _, alg := range as {
				for _, sy := range syncs {
					for _, fp := range faults {
						for seed := seedLo; seed <= seedHi; seed++ {
							cases = append(cases, Case{
								Fabric: f, Procs: procs, PPN: ppn, Workload: w,
								Alg: alg, Sync: sy, Faults: fp, Seed: seed,
							})
						}
					}
				}
			}
		}
	}
	return cases
}

// SweepResult summarizes a RunAllParallel pass.
type SweepResult struct {
	Cases      int
	Events     int
	Violations []Violation
	Errs       []error
	// Panics counts cases whose worker panicked (each also contributes
	// its recovered error to Errs). A sweep with Panics > 0 must not be
	// reported as clean.
	Panics int
}
