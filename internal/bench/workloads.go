package bench

import (
	"fmt"
	"slices"
	"strings"

	"armci"
	"armci/internal/workload"
)

// WorkloadsOpts configures the named-workload experiment: each spec from
// the internal/workload grammar runs once on the simulated fabric and
// its virtual makespan is reported, so the cost of a whole communication
// pattern — not just one primitive — is a tracked number.
type WorkloadsOpts struct {
	Opts
	// Specs are the workload spec strings to run (default: the four
	// kinds at their default shapes).
	Specs []string
	// Procs is the cluster size (default 6).
	Procs int
	// PPN is how many consecutive ranks share a node (default 2).
	PPN int
	// Seed is the schedule-shuffle and generator seed (default 1).
	Seed int64
}

// WorkloadRow is one workload's outcome.
type WorkloadRow struct {
	// Spec is the canonical spec string (workload.Format).
	Spec string
	// US is the virtual makespan in microseconds: the slowest rank's
	// time from the opening barrier to body completion, oracle
	// verification included. Deterministic on the sim fabric.
	US float64
	// Sends and Bytes are the run's wire totals.
	Sends int
	Bytes int64
}

// WorkloadsResult is the full experiment.
type WorkloadsResult struct {
	Opts WorkloadsOpts
	Rows []WorkloadRow
}

// Workloads runs each spec on the simulated fabric with the oracle armed
// (a report panics the run — a benchmark over a silently corrupt run
// would be worthless) and measures its virtual makespan and wire totals.
func Workloads(opts WorkloadsOpts) (*WorkloadsResult, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.Fabric != armci.FabricSim {
		return nil, fmt.Errorf("bench: workloads measures deterministic virtual times; run it on the sim fabric, not %s", opts.Fabric)
	}
	if opts.Specs == nil {
		opts.Specs = []string{"stencil", "paramserver", "prodcons", "mixed"}
	}
	if opts.Procs <= 0 {
		opts.Procs = 6
	}
	if opts.PPN <= 0 {
		opts.PPN = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	res := &WorkloadsResult{Opts: opts}
	for _, spec := range opts.Specs {
		sp, err := workload.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		if err := sp.ValidateFor(opts.Procs); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		body := workload.Build(sp, workload.Config{Seed: opts.Seed})
		l, err := opts.run(armci.Options{
			Procs:        opts.Procs,
			ProcsPerNode: opts.PPN,
			ScheduleSeed: opts.Seed,
		}, 1, func(p *armci.Proc, l *laps) {
			// Absorb start-up skew so the makespan is the workload's own.
			p.MPIBarrier()
			t0 := p.Now()
			body(p)
			l.add(p.Rank(), 0, us(p.Now()-t0))
		})
		if err != nil {
			return nil, fmt.Errorf("bench: workload %q: %w", spec, err)
		}
		res.Rows = append(res.Rows, WorkloadRow{
			Spec:  workload.Format(sp),
			US:    slices.Max(l.col(0)),
			Sends: l.report.Stats.Sends(),
			Bytes: l.report.Stats.Bytes(),
		})
	}
	return res, nil
}

// FormatWorkloads renders the named-workload table.
func FormatWorkloads(r *WorkloadsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Named workloads: virtual makespan per scenario (%d procs, ppn %d, seed %d, %s model)\n",
		r.Opts.Procs, r.Opts.PPN, r.Opts.Seed, presetName(r.Opts.Preset))
	fmt.Fprintf(&b, "%-32s %14s %10s %12s\n", "workload", "makespan (us)", "sends", "bytes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-32s %14.1f %10d %12d\n", row.Spec, row.US, row.Sends, row.Bytes)
	}
	return b.String()
}
