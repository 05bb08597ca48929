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
}

// The algorithms Figures 8-10 compare: the hybrid lock ARMCI shipped
// (current) against the software queuing lock (new).
const lockCurrent, lockNew = armci.LockHybrid, armci.LockQueue

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

// Lock reproduces the lock evaluation (§4.2): every process repeatedly
// requests and releases a lock located at process 0, the acquire and
// release phases are timed separately, and the times are averaged over
// all iterations and processes. For the single-process point the paper
// averages a local-lock case and a remote-lock case; we do the same by
// running a two-node cluster in which only one process exercises the
// lock, homed first on its own node and then on the other. One row per
// process count, laid out as Figures 8(a), 8(b) — the current/new ratio
// of the totals —, 9 and 10.
func Lock(opts LockOpts) (*Table, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.ProcCounts == nil {
		opts.ProcCounts = []int{1, 2, 4, 8, 16}
	}
	if opts.Iters <= 0 {
		opts.Iters = 200
	}
	t := &Table{
		Cols: []Col{
			{Key: "procs", Head: "procs", Width: 8},
			usCol("cur_total_us", "current (us)", "fig8/hybrid/p{}"),
			usCol("new_total_us", "new (us)", "fig8/queue/p{}"),
			{Key: "factor", Head: "factor", Width: 14, Prec: 2},
			usCol("cur_acquire_us", "current (us)", ""), usCol("new_acquire_us", "new (us)", ""),
			usCol("cur_release_us", "current (us)", ""), usCol("new_release_us", "new (us)", ""),
		},
		Sections: []Section{
			{Title: fmt.Sprintf("Figure 8(a): time to request and release a lock (%s fabric, %s model, %d iters)",
				opts.Fabric, opts.Preset, opts.Iters), Cols: "procs cur_total_us new_total_us"},
			{Title: "Figure 8(b): factor of improvement", Cols: "procs factor"},
			{Title: "Figure 9: time to request and acquire a lock", Cols: "procs cur_acquire_us new_acquire_us"},
			{Title: "Figure 10: time to release a lock", Cols: "procs cur_release_us new_release_us"},
		},
	}
	for _, n := range opts.ProcCounts {
		cur, err := lockSample(opts, n, lockCurrent)
		if err != nil {
			return nil, fmt.Errorf("bench: lock %v N=%d: %w", lockCurrent, n, err)
		}
		nw, err := lockSample(opts, n, lockNew)
		if err != nil {
			return nil, fmt.Errorf("bench: lock %v N=%d: %w", lockNew, n, err)
		}
		t.Rows = append(t.Rows, []any{n, cur.TotalUS, nw.TotalUS, cur.TotalUS / nw.TotalUS,
			cur.AcquireUS, nw.AcquireUS, cur.ReleaseUS, nw.ReleaseUS})
	}
	return t, nil
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
