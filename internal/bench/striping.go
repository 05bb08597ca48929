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
	// Iters is the number of lock/unlock pairs per process (default 100).
	Iters int
}

// Striping measures lock-striping scalability: each process performs
// Iters lock/unlock pairs on pseudo-randomly chosen locks (same sequence
// for both algorithms), locks homed round-robin across ranks. Each row
// is the mean time per lock/unlock pair and the hybrid/queue ratio.
func Striping(opts StripingOpts) (*Table, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.Procs <= 0 {
		opts.Procs = 8
	}
	if opts.Iters <= 0 {
		opts.Iters = 100
	}
	t := &Table{
		Cols: []Col{
			{Key: "locks", Head: "locks", Width: 8},
			usCol("hybrid_us", "hybrid (us)", ""), usCol("queue_us", "queue (us)", ""),
			{Key: "factor", Head: "factor", Width: 10, Prec: 2},
		},
		Sections: []Section{{
			Title: fmt.Sprintf("Lock striping (extension): %d procs, %d iters (%s fabric, %s model)",
				opts.Procs, opts.Iters, opts.Fabric, opts.Preset),
			Cols: "locks hybrid_us queue_us factor",
		}},
	}
	for _, nLocks := range []int{1, 2, 4, 8} {
		hy, err := stripingRun(opts, nLocks, armci.LockHybrid)
		if err != nil {
			return nil, fmt.Errorf("bench: striping hybrid locks=%d: %w", nLocks, err)
		}
		mc, err := stripingRun(opts, nLocks, armci.LockQueue)
		if err != nil {
			return nil, fmt.Errorf("bench: striping queue locks=%d: %w", nLocks, err)
		}
		t.Rows = append(t.Rows, []any{nLocks, hy, mc, hy / mc})
	}
	return t, nil
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
