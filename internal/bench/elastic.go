package bench

import (
	"fmt"
	"slices"
	"strings"

	"armci"
	"armci/internal/elastic"
)

// ElasticOpts configures the elastic-recovery experiment: the
// replicated workload of internal/elastic runs three times on the
// simulated fabric — without replication, with replication, and with
// replication plus a mid-epoch crash — so both costs of the subsystem
// are numbers: the steady-state overhead of streaming dirty-page deltas
// every sync epoch, and the latency of turning a rank crash into a
// recovery.
type ElasticOpts struct {
	Opts
	// Procs is the cluster size (default 8).
	Procs int
	// PPN is how many consecutive ranks share a node (default 1 — the
	// shape the real -elastic launch pins).
	PPN int
	// Steps is the number of sync epochs (default 6).
	Steps int
	// Seed varies the operation mix (default 1).
	Seed int64
	// CrashRank/CrashStep select the injected crash for the recovery
	// run (defaults 1 and Steps/2; the base and replication runs are
	// always crash-free).
	CrashRank int
	CrashStep int
}

// ElasticResult is the experiment outcome. All times are deterministic
// virtual microseconds.
type ElasticResult struct {
	Opts ElasticOpts
	// BaseUS is the crash-free makespan without replication.
	BaseUS float64
	// ReplUS is the crash-free makespan with replication; OverheadPct
	// is the replication premium, 100*(ReplUS-BaseUS)/BaseUS.
	ReplUS      float64
	OverheadPct float64
	// RecoveryUS is the slowest rank's span inside the recovery
	// protocol of the crash run: crash detection, rollback or replica
	// restore, and the full re-establish checkpoint.
	RecoveryUS float64
	// Fingerprint is the cluster digest every run converged to — the
	// collection rejects any run that diverges from the pure-replay
	// oracle, so a benchmark over a corrupt recovery cannot exist.
	Fingerprint uint64
}

// Elastic runs the experiment. Every run's cluster fingerprint is
// checked against the pure-replay oracle before any time is reported.
func Elastic(opts ElasticOpts) (*ElasticResult, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.Fabric != armci.FabricSim {
		return nil, fmt.Errorf("bench: elastic measures deterministic virtual times; run it on the sim fabric, not %s", opts.Fabric)
	}
	if opts.Procs <= 0 {
		opts.Procs = 8
	}
	if opts.PPN <= 0 {
		opts.PPN = 1
	}
	if opts.Steps <= 0 {
		opts.Steps = 6
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.CrashRank <= 0 {
		opts.CrashRank = 1
	}
	if opts.CrashStep <= 0 {
		opts.CrashStep = (opts.Steps + 1) / 2
	}
	if opts.CrashStep > opts.Steps || opts.CrashRank >= opts.Procs {
		return nil, fmt.Errorf("bench: elastic crash rank %d at epoch %d out of range for %d procs x %d steps",
			opts.CrashRank, opts.CrashStep, opts.Procs, opts.Steps)
	}
	res := &ElasticResult{Opts: opts}
	want := elastic.Oracle(elastic.Config{Steps: opts.Steps, Seed: opts.Seed}, opts.Procs)
	res.Fingerprint = want

	run := func(cfg elastic.Config) (makespanUS, recoveryUS float64, err error) {
		l, err := opts.run(armci.Options{
			Procs:        opts.Procs,
			ProcsPerNode: opts.PPN,
			ScheduleSeed: opts.Seed,
		}, 1, func(p *armci.Proc, l *laps) {
			// Absorb start-up skew so the makespan is the workload's own.
			p.MPIBarrier()
			t0 := p.Now()
			r := elastic.Run(p, cfg)
			l.add(p.Rank(), 0, us(p.Now()-t0))
			l.add(p.Rank(), 1, us(r.RecoveryTime))
			if r.Fingerprint != want {
				panic(fmt.Sprintf("bench: elastic rank %d fingerprint 0x%016x diverges from the pure-replay oracle 0x%016x",
					p.Rank(), r.Fingerprint, want))
			}
		})
		if err != nil {
			return 0, 0, err
		}
		return slices.Max(l.col(0)), slices.Max(l.col(1)), nil
	}

	base := elastic.Config{Steps: opts.Steps, Seed: opts.Seed, NoRepl: true}
	var err error
	if res.BaseUS, _, err = run(base); err != nil {
		return nil, fmt.Errorf("bench: elastic base run: %w", err)
	}
	repl := elastic.Config{Steps: opts.Steps, Seed: opts.Seed}
	if res.ReplUS, _, err = run(repl); err != nil {
		return nil, fmt.Errorf("bench: elastic replication run: %w", err)
	}
	crash := elastic.Config{Steps: opts.Steps, Seed: opts.Seed,
		CrashRank: opts.CrashRank, CrashStep: opts.CrashStep}
	if _, res.RecoveryUS, err = run(crash); err != nil {
		return nil, fmt.Errorf("bench: elastic crash run: %w", err)
	}
	if res.RecoveryUS <= 0 {
		return nil, fmt.Errorf("bench: elastic crash run reported no recovery span")
	}
	res.OverheadPct = 100 * (res.ReplUS - res.BaseUS) / res.BaseUS
	return res, nil
}

// FormatElastic renders the experiment table.
func FormatElastic(r *ElasticResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Elastic recovery: replication overhead and crash-recovery latency (%d procs, ppn %d, %d epochs, %s model)\n",
		r.Opts.Procs, r.Opts.PPN, r.Opts.Steps, presetName(r.Opts.Preset))
	fmt.Fprintf(&b, "%-34s %12.1f us\n", "crash-free makespan, no replication", r.BaseUS)
	fmt.Fprintf(&b, "%-34s %12.1f us  (+%.1f%%)\n", "crash-free makespan, replicated", r.ReplUS, r.OverheadPct)
	fmt.Fprintf(&b, "%-34s %12.1f us  (rank %d killed at epoch %d)\n", "crash-recovery span", r.RecoveryUS,
		r.Opts.CrashRank, r.Opts.CrashStep)
	fmt.Fprintf(&b, "cluster fingerprint 0x%016x on every run (matches the pure-replay oracle)\n", r.Fingerprint)
	return b.String()
}
