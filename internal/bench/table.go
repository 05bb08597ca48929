package bench

import (
	"fmt"
	"strings"

	"armci"
)

// FormatFig7 renders the Figure 7 tables (time and factor of improvement)
// in the layout of the paper.
func FormatFig7(r *Fig7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7(a): GA_Sync() time (%s fabric, %s model, %d reps)\n",
		r.Opts.Fabric, presetName(r.Opts.Preset), r.Opts.Reps)
	fmt.Fprintf(&b, "%8s %14s %14s\n", "procs", "current (us)", "new (us)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14.1f %14.1f\n", row.Procs, row.OldUS, row.NewUS)
	}
	b.WriteString("\nFigure 7(b): factor of improvement\n")
	fmt.Fprintf(&b, "%8s %14s\n", "procs", "factor")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14.2f\n", row.Procs, row.Factor)
	}
	return b.String()
}

// FormatLock renders the Figure 8/9/10 tables.
func FormatLock(r *LockResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8(a): time to request and release a lock (%s fabric, %s model, %d iters)\n",
		r.Opts.Fabric, presetName(r.Opts.Preset), r.Opts.Iters)
	fmt.Fprintf(&b, "%8s %14s %14s\n", "procs", "current (us)", "new (us)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14.1f %14.1f\n", row.Procs, row.Current.TotalUS, row.New.TotalUS)
	}
	b.WriteString("\nFigure 8(b): factor of improvement\n")
	fmt.Fprintf(&b, "%8s %14s\n", "procs", "factor")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14.2f\n", row.Procs, row.Factor)
	}
	b.WriteString("\nFigure 9: time to request and acquire a lock\n")
	fmt.Fprintf(&b, "%8s %14s %14s\n", "procs", "current (us)", "new (us)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14.1f %14.1f\n", row.Procs, row.Current.AcquireUS, row.New.AcquireUS)
	}
	b.WriteString("\nFigure 10: time to release a lock\n")
	fmt.Fprintf(&b, "%8s %14s %14s\n", "procs", "current (us)", "new (us)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14.1f %14.1f\n", row.Procs, row.Current.ReleaseUS, row.New.ReleaseUS)
	}
	return b.String()
}

// FormatLockCrash renders the holder-crash recovery experiment.
func FormatLockCrash(r *LockCrashResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lock holder-crash recovery: lease lock, %d procs (ppn %d), victim rank %d at acquire %d, TTL %s (%s fabric, %s model)\n",
		r.Opts.Procs, r.Opts.PPN, r.Opts.Victim, r.Opts.CrashAcquire, r.Opts.TTL,
		armci.FabricSim, presetName(r.Opts.Preset))
	fmt.Fprintf(&b, "%28s %14s\n", "metric", "value")
	fmt.Fprintf(&b, "%28s %14.1f\n", "hand-off (us, crash-free)", r.HandoffUS)
	fmt.Fprintf(&b, "%28s %14.1f\n", "recovery (us, crash)", r.RecoveryUS)
	fmt.Fprintf(&b, "%28s %14d\n", "hand-offs measured", r.Handoffs)
	fmt.Fprintf(&b, "%28s %14d\n", "repairs", r.Repairs)
	return b.String()
}

// FormatCrossover renders the §3.1.2 sparse-writer table.
func FormatCrossover(r *CrossoverResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Crossover (§3.1.2): sync time vs writer fan-out, N=%d (%s fabric, %s model)\n",
		r.Opts.Procs, r.Opts.Fabric, presetName(r.Opts.Preset))
	fmt.Fprintf(&b, "%8s %14s %14s %8s\n", "targets", "old (us)", "new (us)", "winner")
	for _, row := range r.Rows {
		winner := "new"
		if row.OldUS < row.NewUS {
			winner = "old"
		}
		fmt.Fprintf(&b, "%8d %14.1f %14.1f %8s\n", row.K, row.OldUS, row.NewUS, winner)
	}
	return b.String()
}

// FormatCrossoverN renders the large-N barrier crossover sweep: one
// column per algorithm, one row per cluster size, then the crossover
// analysis — from which N each structured variant beats the flat
// dissemination exchange.
func FormatCrossoverN(r *CrossoverNResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Crossover-N: ARMCI_Barrier time vs cluster size, ppn %d (%s fabric, %s model)\n",
		r.Opts.PPN, r.Opts.Fabric, presetName(r.Opts.Preset))
	fmt.Fprintf(&b, "%8s", "procs")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, " %14s", v.Name)
	}
	fmt.Fprintf(&b, " %14s\n", "winner")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d", row.N)
		for _, t := range row.US {
			fmt.Fprintf(&b, " %14.1f", t)
		}
		fmt.Fprintf(&b, " %14s\n", r.Winner(row))
	}
	for _, name := range []string{"knomial4", "hierarchical", "hier-nicfence"} {
		if n := crossoverNAgainst(r, name, "dissemination"); n > 0 {
			fmt.Fprintf(&b, "%s beats dissemination from N=%d\n", name, n)
		} else {
			fmt.Fprintf(&b, "%s never beats dissemination in this sweep\n", name)
		}
	}
	return b.String()
}

// crossoverNAgainst returns the smallest swept N from which variant a
// stays faster than variant b for every larger N, or 0 if none.
func crossoverNAgainst(r *CrossoverNResult, a, b string) int {
	n := 0
	for _, row := range r.Rows {
		if r.VariantUS(row, a) < r.VariantUS(row, b) {
			if n == 0 {
				n = row.N
			}
		} else {
			n = 0
		}
	}
	return n
}

// FormatMessageCounts renders the analytical message-count check.
func FormatMessageCounts(cs []*MessageCounts) string {
	var b strings.Builder
	b.WriteString("Message complexity of one all-process sync (all-to-all writers)\n")
	fmt.Fprintf(&b, "%8s %16s %16s %14s %14s\n",
		"procs", "old fence-reqs", "expected N(N-1)", "new coll", "exp 2N*log2N")
	for _, c := range cs {
		logN := 0
		for 1<<logN < c.Procs {
			logN++
		}
		fmt.Fprintf(&b, "%8d %16d %16d %14d %14d\n",
			c.Procs, c.OldFenceReqs, c.Procs*(c.Procs-1), c.NewColl, 2*c.Procs*logN)
	}
	return b.String()
}

// CSVFig7 renders the Figure 7 sweep as CSV (plot-ready).
func CSVFig7(r *Fig7Result) string {
	var b strings.Builder
	b.WriteString("procs,current_us,new_us,factor\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%d,%.3f,%.3f,%.4f\n", row.Procs, row.OldUS, row.NewUS, row.Factor)
	}
	return b.String()
}

// CSVLock renders the Figure 8/9/10 sweep as CSV.
func CSVLock(r *LockResult) string {
	var b strings.Builder
	b.WriteString("procs,cur_total_us,new_total_us,factor,cur_acquire_us,new_acquire_us,cur_release_us,new_release_us\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%d,%.3f,%.3f,%.4f,%.3f,%.3f,%.3f,%.3f\n",
			row.Procs, row.Current.TotalUS, row.New.TotalUS, row.Factor,
			row.Current.AcquireUS, row.New.AcquireUS,
			row.Current.ReleaseUS, row.New.ReleaseUS)
	}
	return b.String()
}

// CSVCrossover renders the sparse-writer sweep as CSV.
func CSVCrossover(r *CrossoverResult) string {
	var b strings.Builder
	b.WriteString("targets,old_us,new_us\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%d,%.3f,%.3f\n", row.K, row.OldUS, row.NewUS)
	}
	return b.String()
}

// CSVCrossoverN renders the large-N barrier sweep as CSV.
func CSVCrossoverN(r *CrossoverNResult) string {
	var b strings.Builder
	b.WriteString("procs")
	for _, v := range r.Variants {
		b.WriteString("," + v.Name + "_us")
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%d", row.N)
		for _, t := range row.US {
			fmt.Fprintf(&b, ",%.3f", t)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func presetName(p armci.CostPreset) string {
	if p == "" {
		return string(armci.PresetZero)
	}
	return string(p)
}
