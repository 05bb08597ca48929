package bench

import (
	"fmt"

	"armci"
	"armci/ga"
)

// Fig7Opts configures the GA_Sync experiment.
type Fig7Opts struct {
	Opts
	// ProcCounts are the cluster sizes to sweep (default 2,4,8,16).
	ProcCounts []int
	// BlockDim is the per-process block edge in elements (default 32).
	BlockDim int
	// PatchDim is the edge of the square patch each process writes into
	// every remote block before syncing (default 8, i.e. 512-byte puts).
	PatchDim int
}

// Fig7Row is one cluster size of the GA_Sync comparison.
type Fig7Row struct {
	Procs int
	// OldUS and NewUS are the GA_Sync times in microseconds under the
	// original and the combined implementation: the mean over ranks and
	// repetitions, or on the proc fabric the ranks' mean of each rank's
	// median (RunFig7ProcWorker).
	OldUS, NewUS float64
	// Factor is OldUS / NewUS — Figure 7(b).
	Factor float64
}

// Fig7Result is the full sweep.
type Fig7Result struct {
	Opts Fig7Opts
	Rows []Fig7Row
}

// Fig7 reproduces Figure 7: a 2-D array distributed uniformly over the
// processes; every process writes patches into the portions owned by
// every other process; an MPI_Barrier absorbs skew; then GA_Sync() is
// timed — once with the original AllFence+MPI_Barrier and once with the
// new combined ARMCI_Barrier.
func Fig7(opts Fig7Opts) (*Fig7Result, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.ProcCounts == nil {
		opts.ProcCounts = []int{2, 4, 8, 16}
	}
	if opts.BlockDim <= 0 {
		opts.BlockDim = 32
	}
	if opts.PatchDim <= 0 {
		opts.PatchDim = 8
	}
	if opts.PatchDim > opts.BlockDim {
		return nil, fmt.Errorf("bench: patch dim %d exceeds block dim %d", opts.PatchDim, opts.BlockDim)
	}
	res := &Fig7Result{Opts: opts}
	for _, n := range opts.ProcCounts {
		oldUS, err := gaSyncTime(opts, n, ga.SyncOld)
		if err != nil {
			return nil, fmt.Errorf("bench: fig7 old N=%d: %w", n, err)
		}
		newUS, err := gaSyncTime(opts, n, ga.SyncNew)
		if err != nil {
			return nil, fmt.Errorf("bench: fig7 new N=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, Fig7Row{
			Procs: n, OldUS: oldUS, NewUS: newUS, Factor: oldUS / newUS,
		})
	}
	return res, nil
}

// Table lays the sweep out as the paper does: Figure 7(a), the two
// times, and Figure 7(b), their ratio.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Cols: []Col{
			{Key: "procs", Head: "procs", Width: 8},
			usCol("current_us", "current (us)", "fig7/old/p{}"),
			usCol("new_us", "new (us)", "fig7/new/p{}"),
			{Key: "factor", Head: "factor", Width: 14, Prec: 2},
		},
		Sections: []Section{
			{Title: fmt.Sprintf("Figure 7(a): GA_Sync() time (%s fabric, %s model, %d reps)",
				r.Opts.Fabric, r.Opts.Preset, r.Opts.Reps), Cols: "procs current_us new_us"},
			{Title: "Figure 7(b): factor of improvement", Cols: "procs factor"},
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{row.Procs, row.OldUS, row.NewUS, row.Factor})
	}
	return t
}

// gaSyncTime measures the mean GA_Sync time for one configuration.
func gaSyncTime(opts Fig7Opts, procs int, mode ga.SyncMode) (float64, error) {
	return opts.meanLap(armci.Options{Procs: procs}, opts.Reps, func(p *armci.Proc, l *laps) {
		a := fig7Array(p, opts.BlockDim)
		a.SetSyncMode(mode)
		l.loop(p, gaSyncStep(p, a, opts.PatchDim))
	})
}

// fig7Array gives every process one blockDim×blockDim block, laid out
// on the near-square grid ga chooses.
func fig7Array(p *armci.Proc, blockDim int) *ga.Array {
	pr := gridRows(p.Size())
	a, err := ga.Create(p, "fig7", pr*blockDim, p.Size()/pr*blockDim)
	if err != nil {
		panic(err)
	}
	return a
}

// gaSyncStep returns one Fig. 7 repetition over a, for laps.loop: the
// one timed lap is a.Sync() under whatever sync mode a is in.
func gaSyncStep(p *armci.Proc, a *ga.Array, patchDim int) func(rep int, lap func(func())) {
	me, procs := p.Rank(), p.Size()
	patch := make([]float64, patchDim*patchDim)
	for i := range patch {
		patch[i] = float64(me + 1)
	}
	return func(_ int, lap func(func())) {
		// Write a patch into every remote process's block — the
		// paper's workload guarantees the processes "perform fence
		// operations with each other".
		for q := 0; q < procs; q++ {
			if q == me {
				continue
			}
			rlo, _, clo, _ := a.Distribution(q)
			a.Put(rlo, rlo+patchDim, clo, clo+patchDim, patch)
		}
		// Absorb process skew so the timing reflects GA_Sync alone.
		p.MPIBarrier()
		lap(a.Sync)
	}
}

// gridRows mirrors ga's near-square grid choice.
func gridRows(n int) int {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return best
}
