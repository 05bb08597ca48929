package bench

import (
	"fmt"

	"armci"
)

// CrossoverNOpts configures the large-N barrier crossover sweep: one
// combined ARMCI_Barrier per algorithm as a function of the cluster
// size, on the simulated fabric where every point is a deterministic
// virtual time. The sweep answers the scaling question the paper's
// 16-process testbed could not: at which N does the tree/hierarchical
// structure (and the NIC-offload fence) overtake the flat log-depth
// exchanges?
type CrossoverNOpts struct {
	Opts
	// NValues are the cluster sizes (default 16, 64, 256, 1024, 4096;
	// powers of two so the pairwise variant stays legal).
	NValues []int
	// PPN is the processes-per-node of the synthetic topology
	// (default 8). The hierarchical variants split on it.
	PPN int
}

// CrossoverNVariant is one barrier configuration of the sweep.
type CrossoverNVariant struct {
	Name     string
	Alg      armci.BarrierAlg
	Radix    int  // k-nomial radix (0 = algorithm default)
	NICFence bool // answer fences on the NIC, no host wake-up
}

// CrossoverNVariants returns the swept configurations in display order.
func CrossoverNVariants() []CrossoverNVariant {
	return []CrossoverNVariant{
		{Name: "central", Alg: armci.BarrierCentral},
		{Name: "pairwise", Alg: armci.BarrierPairwise},
		{Name: "dissemination", Alg: armci.BarrierDissemination},
		{Name: "knomial4", Alg: armci.BarrierKnomial, Radix: 4},
		{Name: "hierarchical", Alg: armci.BarrierHierarchical},
		{Name: "hier-nicfence", Alg: armci.BarrierHierarchical, NICFence: true},
	}
}

// CrossoverNRow is one cluster size: US[i] is the mean ARMCI_Barrier
// time of variant i (indexed like the result's Variants).
type CrossoverNRow struct {
	N  int
	US []float64
}

// CrossoverNResult is the sweep.
type CrossoverNResult struct {
	Opts     CrossoverNOpts
	Variants []CrossoverNVariant
	Rows     []CrossoverNRow
}

// VariantUS returns the time of the named variant at row r, or -1 when
// the variant is unknown.
func (res *CrossoverNResult) VariantUS(r CrossoverNRow, name string) float64 {
	for i, v := range res.Variants {
		if v.Name == name {
			return r.US[i]
		}
	}
	return -1
}

// Winner returns the name of the fastest variant of a row.
func (res *CrossoverNResult) Winner(r CrossoverNRow) string {
	best := 0
	for i := range r.US {
		if r.US[i] < r.US[best] {
			best = i
		}
	}
	return res.Variants[best].Name
}

// CrossoverN sweeps one combined barrier across cluster sizes and
// algorithms. Every rank first issues one word-sized put to the
// matching rank of the next node, so the fence stage of the barrier has
// real inter-node traffic to prove complete.
func CrossoverN(opts CrossoverNOpts) (*CrossoverNResult, error) {
	explicitReps := opts.Reps
	opts.Opts = opts.Opts.withDefaults()
	if opts.NValues == nil {
		opts.NValues = []int{16, 64, 256, 1024, 4096}
	}
	if opts.PPN <= 0 {
		opts.PPN = 8
	}
	res := &CrossoverNResult{Opts: opts, Variants: CrossoverNVariants()}
	for _, n := range opts.NValues {
		if err := checkPow2(n); err != nil {
			return nil, fmt.Errorf("bench: crossover-n: %w (the pairwise variant needs powers of two)", err)
		}
		if n%opts.PPN != 0 {
			return nil, fmt.Errorf("bench: crossover-n N=%d is not a multiple of ppn %d", n, opts.PPN)
		}
		row := CrossoverNRow{N: n}
		for _, v := range res.Variants {
			usv, err := crossoverNRun(opts, n, v, explicitReps)
			if err != nil {
				return nil, fmt.Errorf("bench: crossover-n %s N=%d: %w", v.Name, n, err)
			}
			row.US = append(row.US, usv)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// crossoverNReps scales the repetition count down with the cluster
// size: the simulator is deterministic, so large N needs no averaging —
// only the wall clock of the sweep itself is at stake.
func crossoverNReps(explicit, n int) (warmup, reps int) {
	if explicit > 0 {
		return 1, explicit
	}
	switch {
	case n <= 256:
		return 1, 3
	case n <= 1024:
		return 1, 2
	default:
		return 1, 1
	}
}

func crossoverNRun(opts CrossoverNOpts, procs int, v CrossoverNVariant, explicitReps int) (float64, error) {
	o, ppn := opts.Opts, opts.PPN
	warmup, reps := crossoverNReps(explicitReps, procs)
	o.Warmup = warmup // the sweep's own, not the experiment-wide default
	return o.meanLap(armci.Options{
		Procs:           procs,
		ProcsPerNode:    ppn,
		BarrierAlg:      v.Alg,
		BarrierRadix:    v.Radix,
		NICFenceOffload: v.NICFence,
	}, reps, func(p *armci.Proc, l *laps) {
		// Every rank's first allocation lands in segment 1 of its own
		// word space, so the matching slot of any peer is this rank's
		// pointer with the rank swapped. The collective Malloc would
		// buy the same addresses for an O(N·log N) pointer exchange
		// per run — pure setup cost at N=4096.
		mine := p.MallocWordsLocal(1)
		peer := mine
		peer.Rank = int32((p.Rank() + ppn) % procs)
		l.loop(p, func(rep int, lap func(func())) {
			p.Store(peer, int64(rep+1))
			p.MPIBarrier()
			lap(p.Barrier)
		})
	})
}
