package bench

import (
	"fmt"
	"slices"

	"armci"
	"armci/internal/workload"
)

// The named-workload experiment's fixed shape.
const (
	workloadsProcs = 6 // cluster size
	workloadsPPN   = 2 // consecutive ranks sharing a node
	workloadsSeed  = 1 // schedule-shuffle and generator seed
)

// Workloads is the named-workload experiment: each spec of the
// internal/workload grammar (default: the four kinds at their default
// shapes) runs once on the simulated fabric, so the cost of a whole
// communication pattern — not just one primitive — is a tracked number.
// The oracle is armed (a report panics the run — a benchmark over a
// silently corrupt run would be worthless). Each row is the canonical
// spec string (workload.Format), its virtual makespan in microseconds —
// the slowest rank's time from the opening barrier to body completion,
// oracle verification included — and the run's wire totals.
func Workloads(o Opts, specs []string) (*Table, error) {
	o = o.withDefaults()
	if specs == nil {
		specs = []string{"stencil", "paramserver", "prodcons", "mixed"}
	}
	t := &Table{
		Cols: []Col{
			{Key: "workload", Head: "workload", Width: -32},
			usCol("makespan_us", "makespan (us)", "workload/{}/us"),
			{Key: "sends", Head: "sends", Width: 10, Metric: "workload/{}/sends", Unit: "sends"},
			{Key: "bytes", Head: "bytes", Width: 12},
		},
		Sections: []Section{{
			Title: fmt.Sprintf("Named workloads: virtual makespan per scenario (%d procs, ppn %d, seed %d, %s model)",
				workloadsProcs, workloadsPPN, workloadsSeed, o.Preset),
			Cols: "workload makespan_us sends bytes",
		}},
	}
	for _, spec := range specs {
		sp, err := workload.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		if err := sp.ValidateFor(workloadsProcs); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		body := workload.Build(sp, workload.Config{Seed: workloadsSeed})
		l, err := o.run(armci.Options{
			Procs:        workloadsProcs,
			ProcsPerNode: workloadsPPN,
			ScheduleSeed: workloadsSeed,
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
		t.Rows = append(t.Rows, []any{workload.Format(sp), slices.Max(l.col(0)),
			l.report.Stats.Sends(), int(l.report.Stats.Bytes())})
	}
	return t, nil
}
