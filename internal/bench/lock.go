package bench

import (
	"fmt"

	"armci"
)

// LockOpts configures the lock experiments (Figures 8, 9 and 10).
type LockOpts struct {
	Opts
	// ProcCounts are the competing process counts (default 1,2,4,8,16).
	ProcCounts []int
	// Iters is the number of lock/unlock pairs each process performs
	// per run (default 200; the paper uses 10 000 on hardware).
	Iters int
	// Algorithms compared; default hybrid (current) vs queue (new).
	Current, New armci.LockAlg
}

// LockSample is one algorithm's timing at one process count, all in
// microseconds, averaged over all iterations of all competing processes.
type LockSample struct {
	// AcquireUS is the mean time to request and acquire (Figure 9).
	AcquireUS float64
	// ReleaseUS is the mean time to release (Figure 10).
	ReleaseUS float64
	// TotalUS is the mean request+release time (Figure 8a).
	TotalUS float64
}

// LockRow is one process count of the comparison.
type LockRow struct {
	Procs   int
	Current LockSample
	New     LockSample
	// Factor is Current.TotalUS / New.TotalUS — Figure 8(b).
	Factor float64
}

// LockResult is the full sweep.
type LockResult struct {
	Opts LockOpts
	Rows []LockRow
}

// Lock reproduces the lock evaluation (§4.2): every process repeatedly
// requests and releases a lock located at process 0, the acquire and
// release phases are timed separately, and the times are averaged over
// all iterations and processes. For the single-process point the paper
// averages a local-lock case and a remote-lock case; we do the same by
// running a two-node cluster in which only one process exercises the
// lock, homed first on its own node and then on the other.
func Lock(opts LockOpts) (*LockResult, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.ProcCounts == nil {
		opts.ProcCounts = []int{1, 2, 4, 8, 16}
	}
	if opts.Iters <= 0 {
		opts.Iters = 200
	}
	if opts.Current == opts.New {
		opts.Current, opts.New = armci.LockHybrid, armci.LockQueue
	}
	res := &LockResult{Opts: opts}
	for _, n := range opts.ProcCounts {
		cur, err := lockSample(opts, n, opts.Current)
		if err != nil {
			return nil, fmt.Errorf("bench: lock %v N=%d: %w", opts.Current, n, err)
		}
		nw, err := lockSample(opts, n, opts.New)
		if err != nil {
			return nil, fmt.Errorf("bench: lock %v N=%d: %w", opts.New, n, err)
		}
		res.Rows = append(res.Rows, LockRow{
			Procs: n, Current: cur, New: nw, Factor: cur.TotalUS / nw.TotalUS,
		})
	}
	return res, nil
}

// lockSample measures one algorithm at one competing-process count.
func lockSample(opts LockOpts, procs int, alg armci.LockAlg) (LockSample, error) {
	if procs == 1 {
		// Average of the local-lock and remote-lock single-process cases.
		ao := armci.Options{Procs: 2}
		local, err := lockRun(opts.Opts, ao, opts.Iters, 0, alg) // contender rank 0, lock at 0
		if err != nil {
			return LockSample{}, err
		}
		remote, err := lockRun(opts.Opts, ao, opts.Iters, 1, alg) // contender rank 1, lock at 0
		if err != nil {
			return LockSample{}, err
		}
		return LockSample{
			AcquireUS: (local.AcquireUS + remote.AcquireUS) / 2,
			ReleaseUS: (local.ReleaseUS + remote.ReleaseUS) / 2,
			TotalUS:   (local.TotalUS + remote.TotalUS) / 2,
		}, nil
	}
	return lockRun(opts.Opts, armci.Options{Procs: procs}, opts.Iters, -1, alg)
}

// lockRun executes iters timed lock/unlock pairs on the cluster ao
// describes (its size, node packing and NIC options; the one lock is
// always homed at rank 0). When only == -1 every rank contends;
// otherwise only that rank does.
func lockRun(o Opts, ao armci.Options, iters, only int, alg armci.LockAlg) (LockSample, error) {
	ao.NumMutexes, ao.LockHomes = 1, []int{0}
	l, err := o.run(ao, iters, func(p *armci.Proc, l *laps) {
		mu := p.Mutex(0, alg)
		p.MPIBarrier()
		if only == -1 || p.Rank() == only {
			l.loop(p, func(_ int, lap func(func())) {
				lap(mu.Lock)
				lap(mu.Unlock)
			})
		}
		p.MPIBarrier()
	})
	if err != nil {
		return LockSample{}, err
	}
	s := LockSample{AcquireUS: mean(l.col(0)), ReleaseUS: mean(l.col(1))}
	s.TotalUS = s.AcquireUS + s.ReleaseUS
	return s, nil
}
