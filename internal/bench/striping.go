package bench

import (
	"fmt"
	"math/rand"

	"armci"
)

// StripingOpts configures the multi-lock scaling extension: the paper
// evaluates a single hot lock; real Global Arrays applications stripe
// state over many locks, and the two algorithms scale differently —
// every hybrid operation still funnels through the home nodes' servers,
// while queuing-lock hand-offs spread across the whole fabric.
type StripingOpts struct {
	Opts
	// Procs is the cluster size (default 8).
	Procs int
	// LockCounts is the sweep over the number of locks (default 1,2,4,8).
	LockCounts []int
	// Iters is the number of lock/unlock pairs per process (default 100).
	Iters int
}

// StripingRow is one lock-count sample: mean time per lock/unlock pair.
type StripingRow struct {
	Locks            int
	HybridUS, MCSUS  float64
	ThroughputFactor float64 // HybridUS / MCSUS
}

// StripingResult is the sweep.
type StripingResult struct {
	Opts StripingOpts
	Rows []StripingRow
}

// Striping measures lock-striping scalability: each process performs
// Iters lock/unlock pairs on pseudo-randomly chosen locks (same sequence
// for both algorithms), locks homed round-robin across ranks.
func Striping(opts StripingOpts) (*StripingResult, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.Procs <= 0 {
		opts.Procs = 8
	}
	if opts.LockCounts == nil {
		opts.LockCounts = []int{1, 2, 4, 8}
	}
	if opts.Iters <= 0 {
		opts.Iters = 100
	}
	res := &StripingResult{Opts: opts}
	for _, nLocks := range opts.LockCounts {
		hy, err := stripingRun(opts, nLocks, armci.LockHybrid)
		if err != nil {
			return nil, fmt.Errorf("bench: striping hybrid locks=%d: %w", nLocks, err)
		}
		mc, err := stripingRun(opts, nLocks, armci.LockQueue)
		if err != nil {
			return nil, fmt.Errorf("bench: striping queue locks=%d: %w", nLocks, err)
		}
		res.Rows = append(res.Rows, StripingRow{
			Locks: nLocks, HybridUS: hy, MCSUS: mc, ThroughputFactor: hy / mc,
		})
	}
	return res, nil
}

func stripingRun(opts StripingOpts, nLocks int, alg armci.LockAlg) (float64, error) {
	// NumMutexes locks are homed round-robin by default.
	return opts.meanLap(armci.Options{Procs: opts.Procs, NumMutexes: nLocks}, opts.Iters, func(p *armci.Proc, l *laps) {
		rng := rand.New(rand.NewSource(int64(p.Rank())*31 + 7))
		locks := make([]armci.Mutex, nLocks)
		for i := range locks {
			locks[i] = p.Mutex(i, alg)
		}
		p.MPIBarrier()
		l.loop(p, func(_ int, lap func(func())) {
			mu := locks[rng.Intn(nLocks)]
			lap(func() {
				mu.Lock()
				mu.Unlock()
			})
		})
		p.MPIBarrier()
	})
}

// CSVStriping renders the striping sweep as CSV.
func CSVStriping(r *StripingResult) string {
	out := "locks,hybrid_us,queue_us,factor\n"
	for _, row := range r.Rows {
		out += fmt.Sprintf("%d,%.3f,%.3f,%.4f\n",
			row.Locks, row.HybridUS, row.MCSUS, row.ThroughputFactor)
	}
	return out
}

// FormatStriping renders the extension table.
func FormatStriping(r *StripingResult) string {
	out := fmt.Sprintf("Lock striping (extension): %d procs, %d iters (%s fabric, %s model)\n",
		r.Opts.Procs, r.Opts.Iters, r.Opts.Fabric, presetName(r.Opts.Preset))
	out += fmt.Sprintf("%8s %14s %14s %10s\n", "locks", "hybrid (us)", "queue (us)", "factor")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%8d %14.1f %14.1f %10.2f\n",
			row.Locks, row.HybridUS, row.MCSUS, row.ThroughputFactor)
	}
	return out
}
