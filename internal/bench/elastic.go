package bench

import (
	"fmt"
	"slices"

	"armci"
	"armci/internal/elastic"
)

// The elastic-recovery experiment's fixed shape.
const (
	elasticPPN   = 1 // ranks per node — the shape the real -elastic launch pins
	elasticSteps = 6 // sync epochs
	elasticSeed  = 1 // operation mix
	// The recovery run kills this rank in this epoch; the base and
	// replication runs are always crash-free.
	elasticCrashRank = 1
	elasticCrashStep = (elasticSteps + 1) / 2
)

// Elastic is the elastic-recovery experiment: the replicated workload of
// internal/elastic runs three times on procs ranks (default 8) of the
// simulated fabric — without replication, with replication, and with
// replication plus a mid-epoch crash — so both costs of the subsystem
// are numbers: the steady-state overhead of streaming dirty-page deltas
// every sync epoch, and the latency of turning a rank crash into a
// recovery.
//
// It returns one record, all times deterministic virtual microseconds:
// the crash-free makespan without and with replication and the premium
// between them, 100*(repl-base)/base; the slowest rank's span inside the
// recovery protocol of the crash run (crash detection, rollback or
// replica restore, and the full re-establish checkpoint); and the
// cluster digest every run converged to. Every run's fingerprint is
// checked against the pure-replay oracle before any time is reported,
// so a benchmark over a corrupt recovery cannot exist.
func Elastic(o Opts, procs int) (*Table, error) {
	o = o.withDefaults()
	if procs <= 0 {
		procs = 8
	}
	if elasticCrashRank >= procs {
		return nil, fmt.Errorf("bench: elastic crash rank %d out of range for %d procs", elasticCrashRank, procs)
	}
	repl := elastic.Config{Steps: elasticSteps, Seed: elasticSeed}
	want := elastic.Oracle(repl, procs)

	run := func(o Opts, cfg elastic.Config) (makespanUS, recoveryUS float64, err error) {
		l, err := o.run(armci.Options{
			Procs:        procs,
			ProcsPerNode: elasticPPN,
			ScheduleSeed: elasticSeed,
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

	base := repl
	base.NoRepl = true
	crash := o
	crash.Faults.ElasticCrashRank, crash.Faults.ElasticCrashStep = elasticCrashRank, elasticCrashStep
	baseUS, _, err := run(o, base)
	if err != nil {
		return nil, fmt.Errorf("bench: elastic base run: %w", err)
	}
	replUS, _, err := run(o, repl)
	if err != nil {
		return nil, fmt.Errorf("bench: elastic replication run: %w", err)
	}
	_, recoveryUS, err := run(crash, repl)
	if err != nil {
		return nil, fmt.Errorf("bench: elastic crash run: %w", err)
	}
	if recoveryUS <= 0 {
		return nil, fmt.Errorf("bench: elastic crash run reported no recovery span")
	}
	return &Table{
		Cols: []Col{
			{Key: "base_us", Prec: 1, Metric: "elastic/base/us"},
			{Key: "repl_us", Prec: 1, Metric: "elastic/repl/us"},
			{Key: "overhead_pct", Prec: 1, Metric: "elastic/repl_overhead_pct", Unit: "pct"},
			{Key: "recovery_us", Prec: 1, Metric: "elastic/recovery/us"},
			{Key: "crash_rank"}, {Key: "crash_epoch"}, {Key: "fingerprint"},
		},
		Rows: [][]any{{baseUS, replUS, 100 * (replUS - baseUS) / baseUS, recoveryUS,
			elasticCrashRank, elasticCrashStep, fmt.Sprintf("0x%016x", want)}},
		Sections: []Section{{
			Title: fmt.Sprintf("Elastic recovery: replication overhead and crash-recovery latency (%d procs, ppn %d, %d epochs, %s model)",
				procs, elasticPPN, elasticSteps, o.Preset),
			Cols: "base_us repl_us overhead_pct recovery_us crash_rank crash_epoch fingerprint",
			Layout: "crash-free makespan, no replication %12.1f us\n" +
				"crash-free makespan, replicated    %12.1f us  (+%.1f%%)\n" +
				"crash-recovery span                %12.1f us  (rank %d killed at epoch %d)\n" +
				"cluster fingerprint %s on every run (matches the pure-replay oracle)",
		}},
	}, nil
}
