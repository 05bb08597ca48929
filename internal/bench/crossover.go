package bench

import (
	"fmt"

	"armci"
	"armci/internal/msg"
	"armci/internal/trace"
)

// CrossoverOpts configures the sparse-writer crossover experiment of
// §3.1.2: when each process has issued puts to fewer than ~log₂(N)/2
// other processes, the original AllFence — which only contacts servers it
// actually wrote to — can beat the new barrier, whose binary exchange
// always costs 2·log₂(N) latencies.
type CrossoverOpts struct {
	Opts
	// Procs is the cluster size (default 16).
	Procs int
	// KValues are the numbers of distinct remote targets each process
	// writes to before syncing (default 0..5).
	KValues []int
}

// CrossoverRow is one target-count sample.
type CrossoverRow struct {
	K            int
	OldUS, NewUS float64
}

// CrossoverResult is the sweep.
type CrossoverResult struct {
	Opts CrossoverOpts
	Rows []CrossoverRow
}

// Crossover measures sync time versus writer fan-out for both
// implementations.
func Crossover(opts CrossoverOpts) (*CrossoverResult, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.Procs <= 0 {
		opts.Procs = 16
	}
	if opts.KValues == nil {
		opts.KValues = []int{0, 1, 2, 3, 4, 5}
	}
	res := &CrossoverResult{Opts: opts}
	for _, k := range opts.KValues {
		if k >= opts.Procs {
			return nil, fmt.Errorf("bench: crossover K=%d needs at least %d processes", k, k+1)
		}
		oldUS, err := crossoverRun(opts, k, true)
		if err != nil {
			return nil, fmt.Errorf("bench: crossover old K=%d: %w", k, err)
		}
		newUS, err := crossoverRun(opts, k, false)
		if err != nil {
			return nil, fmt.Errorf("bench: crossover new K=%d: %w", k, err)
		}
		res.Rows = append(res.Rows, CrossoverRow{K: k, OldUS: oldUS, NewUS: newUS})
	}
	return res, nil
}

func crossoverRun(opts CrossoverOpts, k int, old bool) (float64, error) {
	procs := opts.Procs
	return opts.meanLap(armci.Options{Procs: procs}, opts.Reps, func(p *armci.Proc, l *laps) {
		me := p.Rank()
		ptrs := p.Malloc(8 * procs)
		payload := make([]byte, 64)
		syncOp := p.Barrier
		if old {
			syncOp = p.SyncOld
		}
		l.loop(p, func(_ int, lap func(func())) {
			for j := 1; j <= k; j++ {
				p.Put(ptrs[(me+j)%procs], payload)
			}
			p.MPIBarrier()
			lap(syncOp)
		})
	})
}

// MessageCounts verifies the paper's analytical claims by counting, with
// all modeled costs disabled, the messages one collective sync needs.
type MessageCounts struct {
	Procs int
	// OldFenceReqs is the number of fence confirmation requests of one
	// all-process SyncOld — N(N−1) when everyone wrote to everyone.
	OldFenceReqs int
	// OldTotal counts every message of the SyncOld phase.
	OldTotal int
	// NewColl is the number of collective messages of one ARMCI_Barrier
	// — 2·N·log₂(N) for the two binary-exchange stages.
	NewColl int
	// NewTotal counts every message of the Barrier phase.
	NewTotal int
}

// CountSyncMessages measures the message complexity of both sync
// implementations at the given process count (power of two), with every
// process having first written to every other. To isolate the sync phase
// exactly, the deterministic simulation is run twice — with one and with
// two sync calls — and the difference is the per-sync cost.
func CountSyncMessages(procs int) (*MessageCounts, error) {
	if err := checkPow2(procs); err != nil {
		return nil, err
	}
	out := &MessageCounts{Procs: procs}
	for _, old := range []bool{true, false} {
		one, err := countRun(procs, old, 1)
		if err != nil {
			return nil, err
		}
		two, err := countRun(procs, old, 2)
		if err != nil {
			return nil, err
		}
		if old {
			out.OldFenceReqs = two.Count(msg.KindFenceReq) - one.Count(msg.KindFenceReq)
			out.OldTotal = two.Sends() - one.Sends()
		} else {
			out.NewColl = two.Count(msg.KindColl) - one.Count(msg.KindColl)
			out.NewTotal = two.Sends() - one.Sends()
		}
	}
	return out, nil
}

func countRun(procs int, old bool, syncs int) (*trace.Stats, error) {
	rep, err := armci.Run(armci.Options{
		Procs:  procs,
		Fabric: armci.FabricSim,
		Preset: armci.PresetZero,
	}, func(p *armci.Proc) {
		me := p.Rank()
		ptrs := p.Malloc(8)
		payload := make([]byte, 8)
		for q := 0; q < procs; q++ {
			if q != me {
				p.Put(ptrs[q], payload)
			}
		}
		p.MPIBarrier()
		for i := 0; i < syncs; i++ {
			if old {
				p.SyncOld()
			} else {
				p.Barrier()
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return rep.Stats, nil
}
