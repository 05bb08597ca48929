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
}

// crossoverNPPN is the processes-per-node of the synthetic topology; the
// hierarchical variants split on it.
const crossoverNPPN = 8

// CrossoverNVariant is one barrier configuration of the sweep.
type CrossoverNVariant struct {
	Name  string
	Alg   armci.BarrierAlg
	Radix int           // k-nomial radix (0 = algorithm default)
	NIC   armci.NICMode // NICFence: answer fences on the NIC, no host wake-up
}

// crossoverNVariants are the swept configurations in display order.
var crossoverNVariants = []CrossoverNVariant{
	{Name: "central", Alg: armci.BarrierCentral},
	{Name: "pairwise", Alg: armci.BarrierPairwise},
	{Name: "dissemination", Alg: armci.BarrierDissemination},
	{Name: "knomial4", Alg: armci.BarrierKnomial, Radix: 4},
	{Name: "hierarchical", Alg: armci.BarrierHierarchical},
	{Name: "hier-nicfence", Alg: armci.BarrierHierarchical, NIC: armci.NICFence},
}

// CrossoverN sweeps one combined barrier across cluster sizes and
// algorithms: one row per cluster size, one column per variant, then
// from which N each structured variant beats the flat dissemination
// exchange. Every rank first issues one word-sized put to the matching
// rank of the next node, so the fence stage of the barrier has real
// inter-node traffic to prove complete.
func CrossoverN(opts CrossoverNOpts) (*Table, error) {
	explicitReps := opts.Reps
	opts.Opts = opts.Opts.withDefaults()
	if opts.NValues == nil {
		opts.NValues = []int{16, 64, 256, 1024, 4096}
	}
	t := &Table{Cols: []Col{{Key: "procs", Head: "procs", Width: 8}}}
	keys := "procs"
	for _, v := range crossoverNVariants {
		t.Cols = append(t.Cols, usCol(v.Name+"_us", v.Name, "crossover/"+v.Name+"/n{}/us"))
		keys += " " + v.Name + "_us"
	}
	t.Cols = append(t.Cols, Col{Key: "winner", Head: "winner", Width: 14, TextOnly: true})
	t.Sections = []Section{{
		Title: fmt.Sprintf("Crossover-N: ARMCI_Barrier time vs cluster size, ppn %d (%s fabric, %s model)",
			crossoverNPPN, opts.Fabric, opts.Preset),
		Cols: keys + " winner",
	}}
	for _, n := range opts.NValues {
		if err := checkPow2(n); err != nil {
			return nil, fmt.Errorf("bench: crossover-n: %w (the pairwise variant needs powers of two)", err)
		}
		if n%crossoverNPPN != 0 {
			return nil, fmt.Errorf("bench: crossover-n N=%d is not a multiple of ppn %d", n, crossoverNPPN)
		}
		row, best := []any{n}, 0
		for i, v := range crossoverNVariants {
			usv, err := crossoverNRun(opts, n, v, explicitReps)
			if err != nil {
				return nil, fmt.Errorf("bench: crossover-n %s N=%d: %w", v.Name, n, err)
			}
			if i > 0 && usv < row[1+best].(float64) {
				best = i
			}
			row = append(row, usv)
		}
		t.Rows = append(t.Rows, append(row, crossoverNVariants[best].Name))
	}
	for _, name := range []string{"knomial4", "hierarchical", "hier-nicfence"} {
		// The smallest swept N from which the variant stays faster than
		// dissemination for every larger N.
		from := 0
		for i, row := range t.Rows {
			if t.Float(i, name+"_us") >= t.Float(i, "dissemination_us") {
				from = 0
			} else if from == 0 {
				from = row[0].(int)
			}
		}
		if from > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s beats dissemination from N=%d", name, from))
		} else {
			t.Notes = append(t.Notes, fmt.Sprintf("%s never beats dissemination in this sweep", name))
		}
	}
	return t, nil
}

// crossoverNFloor is the structural floor of the baseline gate, the
// sweep's headline claim: at N >= 1024 the hierarchical barrier with the
// NIC-offload fence must beat the flat dissemination exchange — a
// baseline recording a lost topology win must never be writable.
func crossoverNFloor(t *Table) error {
	for i, row := range t.Rows {
		hier, diss := t.Float(i, "hier-nicfence_us"), t.Float(i, "dissemination_us")
		if n := row[0].(int); n >= 1024 && hier >= diss {
			return fmt.Errorf("bench: hierarchical+NIC barrier lost to dissemination at N=%d (%.1fus >= %.1fus), below the structural crossover floor",
				n, hier, diss)
		}
	}
	return nil
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
	o, ppn := opts.Opts, crossoverNPPN
	warmup, reps := crossoverNReps(explicitReps, procs)
	o.Warmup = warmup // the sweep's own, not the experiment-wide default
	return o.meanLap(armci.Options{
		Procs:        procs,
		ProcsPerNode: ppn,
		BarrierAlg:   v.Alg,
		BarrierRadix: v.Radix,
		NIC:          v.NIC,
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
