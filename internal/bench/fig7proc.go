package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"armci"
	"armci/ga"
	"armci/internal/cluster"
)

// Fig7ProcResultPrefix tags the machine-readable line rank 0 prints at
// the end of a multi-process Fig. 7 point. The launcher side picks the
// line out of the worker's output stream; everything else the workers
// print is passed through untouched.
const Fig7ProcResultPrefix = "ARMCI_FIG7_RESULT"

// fig7ProcResultFormat is the tagged line's one format, printed by
// formatFig7ProcResult and read back by ParseFig7ProcResult.
const fig7ProcResultFormat = Fig7ProcResultPrefix + " procs=%d old_us=%g new_us=%g"

// formatFig7ProcResult renders one measured point as the tagged line.
func formatFig7ProcResult(r Fig7Row) string {
	return fmt.Sprintf(fig7ProcResultFormat, r.Procs, r.OldUS, r.NewUS)
}

// ParseFig7ProcResult recognizes a tagged result line: the format's
// literal prefix must match and every value must be positive. The factor
// is recomputed from the two means so the line stays minimal.
func ParseFig7ProcResult(line string) (Fig7Row, bool) {
	var r Fig7Row
	if _, err := fmt.Sscanf(strings.TrimSpace(line), fig7ProcResultFormat, &r.Procs, &r.OldUS, &r.NewUS); err != nil ||
		r.Procs <= 0 || !(r.OldUS > 0 && r.NewUS > 0) {
		return Fig7Row{}, false
	}
	r.Factor = r.OldUS / r.NewUS
	return r, true
}

// RunFig7ProcWorker is the worker-side body of one multi-process Fig. 7
// point. It must run in a process launched under armci-run (or any
// cluster.Launch): the proc fabric reads the rendezvous from the
// environment. One launch supports exactly one rendezvous, so — unlike
// the in-process sweep, which runs a fresh fabric per (size, mode)
// point — both sync modes are measured inside a single armci.Run, with
// ga.SetSyncMode switching implementations between the phases.
//
// Each rank's statistic is its median GA_Sync time over the timed
// repetitions, which a scheduling stall of a few of them does not move;
// the ranks' medians are averaged with an in-band all-reduce, and rank 0
// prints the tagged result line for the launcher.
func RunFig7ProcWorker(opts Fig7Opts, procs int) error {
	opts.Opts = opts.Opts.withDefaults()
	if opts.BlockDim <= 0 {
		opts.BlockDim = 32
	}
	if opts.PatchDim <= 0 {
		opts.PatchDim = 8
	}
	if opts.PatchDim > opts.BlockDim {
		return fmt.Errorf("bench: patch dim %d exceeds block dim %d", opts.PatchDim, opts.BlockDim)
	}
	// The SMP grouping comes from the launch environment — the launcher
	// decides how many ranks each worker hosts, not the workload.
	we, ok, err := cluster.FromEnv()
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if !ok {
		return fmt.Errorf("bench: fig7 proc worker needs the cluster environment; start it under armci-run")
	}
	if we.Procs != procs {
		return fmt.Errorf("bench: fig7 worker built for %d procs but launched with %d", procs, we.Procs)
	}
	opts.Fabric = armci.FabricProc
	_, err = opts.run(armci.Options{Procs: procs, ProcsPerNode: we.ProcsPerNode}, opts.Reps, func(p *armci.Proc, l *laps) {
		a := fig7Array(p, opts.BlockDim)
		step := gaSyncStep(p, a, opts.PatchDim)
		me := p.Rank()
		a.SetSyncMode(ga.SyncOld)
		l.loop(p, step)
		a.SetSyncMode(ga.SyncNew)
		l.loop(p, step)
		// Every rank contributes its medians; the all-reduce leaves the
		// cluster-wide sums everywhere, and rank 0 reports the average.
		vec := []float64{median(l.cols[me][0]), median(l.cols[me][1])}
		p.AllReduceSumFloat64(vec)
		if me == 0 {
			n := float64(procs)
			fmt.Println(formatFig7ProcResult(Fig7Row{
				Procs: procs, OldUS: vec[0] / n, NewUS: vec[1] / n,
			}))
		}
	})
	return err
}

// median returns the middle sample of xs, or the mean of the two middle
// ones for an even count; it sorts xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Fig7Proc sweeps Figure 7 across real OS processes: one cluster launch
// per point (default 2, 4, 8 ranks), its workers started as worker(n).
func Fig7Proc(a Args, worker func(n int) []string) (*Table, error) {
	if a.Procs == nil {
		a.Procs = []int{2, 4, 8}
	}
	// Header metadata only: the proc fabric measures wall clock, so no
	// cost preset applies; reps default as they do on the worker side.
	res := &Fig7Result{Opts: Fig7Opts{ProcCounts: a.Procs,
		Opts: Opts{Fabric: armci.FabricProc, Preset: "wall-clock", Reps: a.Reps}.withDefaults()}}
	for _, n := range a.Procs {
		row, err := LaunchFig7Proc(Fig7ProcLaunch{Procs: n, Command: worker(n), Output: io.Discard})
		if err != nil {
			return nil, fmt.Errorf("fig7 proc N=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res.Table(), nil
}

// Fig7ProcLaunch describes one launcher-side multi-process Fig. 7 point.
type Fig7ProcLaunch struct {
	// Procs is the cluster size (workers are one rank each by default).
	Procs int
	// ProcsPerNode groups ranks into SMP nodes (default 1).
	ProcsPerNode int
	// Command is the worker argv — typically the calling binary
	// re-executed with a hidden worker-dispatch flag.
	Command []string
	// Output receives the workers' prefixed output (nil: os.Stdout,
	// io.Discard to silence them).
	Output io.Writer
	// RunTimeout bounds the whole point (default cluster.Launch's).
	RunTimeout time.Duration
}

// LaunchFig7Proc spawns the point's worker processes, waits for the
// launch to drain and returns the row parsed from rank 0's tagged
// result line. A worker death surfaces as the launch's rank-attributed
// fault error.
func LaunchFig7Proc(l Fig7ProcLaunch) (Fig7Row, error) {
	var (
		mu    sync.Mutex
		row   Fig7Row
		found bool
	)
	out, err := cluster.Launch(cluster.Spec{
		Procs:        l.Procs,
		ProcsPerNode: l.ProcsPerNode,
		Command:      l.Command,
		Output:       l.Output,
		RunTimeout:   l.RunTimeout,
		OnLine: func(node int, line string) {
			if r, ok := ParseFig7ProcResult(line); ok {
				mu.Lock()
				row, found = r, true
				mu.Unlock()
			}
		},
	})
	if err != nil {
		return Fig7Row{}, err
	}
	if out.Err != nil {
		return Fig7Row{}, out.Err
	}
	mu.Lock()
	defer mu.Unlock()
	if !found {
		return Fig7Row{}, fmt.Errorf("bench: fig7 N=%d launch finished without a %s line", l.Procs, Fig7ProcResultPrefix)
	}
	return row, nil
}
