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

// Crossover measures sync time versus writer fan-out for both
// implementations.
func Crossover(opts CrossoverOpts) (*Table, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.Procs <= 0 {
		opts.Procs = 16
	}
	if opts.KValues == nil {
		opts.KValues = []int{0, 1, 2, 3, 4, 5}
	}
	t := &Table{
		Cols: []Col{
			{Key: "targets", Head: "targets", Width: 8},
			usCol("old_us", "old (us)", ""), usCol("new_us", "new (us)", ""),
			{Key: "winner", Head: "winner", Width: 8, TextOnly: true},
		},
		Sections: []Section{{
			Title: fmt.Sprintf("Crossover (§3.1.2): sync time vs writer fan-out, N=%d (%s fabric, %s model)",
				opts.Procs, opts.Fabric, opts.Preset),
			Cols: "targets old_us new_us winner",
		}},
	}
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
		winner := "new"
		if oldUS < newUS {
			winner = "old"
		}
		t.Rows = append(t.Rows, []any{k, oldUS, newUS, winner})
	}
	return t, nil
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
// all modeled costs disabled, the messages one collective sync needs at
// each process count, every process having first written to every other:
// the fence confirmation requests and every message of one all-process
// SyncOld — N(N−1) requests — and the collective messages and every
// message of one ARMCI_Barrier — 2·N·log₂(N) for the two binary-exchange
// stages. A last column counts the collective messages of a Barrier with
// nothing outstanding — N·log₂(N), its all-reduce alone. To isolate the
// sync phase exactly, the deterministic simulation is run twice — with
// one and with two sync calls — and the difference, less the writes, is
// the per-sync cost. A count that is not a power of two is skipped with a
// note.
func MessageCounts(procCounts []int) (*Table, error) {
	if procCounts == nil {
		procCounts = []int{2, 4, 8, 16}
	}
	count := func(key, head string, width int) Col { return Col{Key: key, Head: head, Width: width} }
	t := &Table{
		Cols: []Col{
			count("procs", "procs", 8),
			count("old_fence_reqs", "old fence-reqs", 16), count("exp_fence_reqs", "expected N(N-1)", 16),
			count("new_coll", "new coll", 14), count("exp_coll", "exp 2N*log2N", 14),
			count("old_total", "old total", 14), count("new_total", "new total", 14),
			count("empty_coll", "empty coll", 14),
		},
		Sections: []Section{{
			Title: "Message complexity of one all-process sync (all-to-all writers)",
			Cols:  "procs old_fence_reqs exp_fence_reqs new_coll exp_coll empty_coll",
		}},
	}
	for _, n := range procCounts {
		if err := checkPow2(n); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("counts N=%d: %v (skipped)", n, err))
			continue
		}
		fenceReqs, oldTotal, err := syncMessages(n, n-1, true, msg.KindFenceReq)
		if err != nil {
			return nil, err
		}
		coll, newTotal, err := syncMessages(n, n-1, false, msg.KindColl)
		if err != nil {
			return nil, err
		}
		empty, _, err := syncMessages(n, 0, false, msg.KindColl)
		if err != nil {
			return nil, err
		}
		logN := 0
		for 1<<logN < n {
			logN++
		}
		t.Rows = append(t.Rows, []any{n, fenceReqs, n * (n - 1), coll, 2 * n * logN, oldTotal, newTotal, empty})
	}
	return t, nil
}

// syncMessages returns how many messages of the given kind, and how many
// in total but the puts, one more sync adds to a run when each process
// writes to its next k processes before every sync (k = 0: nothing is
// outstanding).
func syncMessages(procs, k int, old bool, kind msg.Kind) (ofKind, total int, err error) {
	one, err := countRun(procs, k, old, 1)
	if err != nil {
		return 0, 0, err
	}
	two, err := countRun(procs, k, old, 2)
	if err != nil {
		return 0, 0, err
	}
	sync := func(s *trace.Stats) int { return s.Sends() - s.Count(msg.KindPut) }
	return two.Count(kind) - one.Count(kind), sync(two) - sync(one), nil
}

func countRun(procs, k int, old bool, syncs int) (*trace.Stats, error) {
	rep, err := armci.Run(armci.Options{
		Procs:  procs,
		Fabric: armci.FabricSim,
		Preset: armci.PresetZero,
	}, func(p *armci.Proc) {
		me := p.Rank()
		ptrs := p.Malloc(8)
		payload := make([]byte, 8)
		for i := 0; i < syncs; i++ {
			for j := 1; j <= k; j++ {
				p.Put(ptrs[(me+j)%procs], payload)
			}
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
