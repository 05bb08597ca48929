// Command armci-bench regenerates the evaluation of "Optimizing
// Synchronization Operations for Remote Memory Communication Systems"
// (IPPS 2003): Figure 7 (GA_Sync, original vs combined barrier), Figures
// 8-10 (hybrid vs software queuing locks), the §3.1.2 sparse-writer
// crossover, and the analytical message-count check.
//
// Usage:
//
//	armci-bench -fig all                  # everything, simulated fabric
//	armci-bench -fig 7 -procs 2,4,8,16,32 # extend the sweep
//	armci-bench -fig 8 -fabric chan       # wall-clock sanity run
//	armci-bench -fig crossover
//	armci-bench -fig crossover-n            # barrier algorithms vs cluster size, 16..4096 ranks
//	armci-bench -fig counts
//	armci-bench -fig workloads            # named scenario makespans (internal/workload grammar)
//	armci-bench -fig workloads -workload 'stencil:rows=16,halo=2;mixed:skew=hot'
//
// Baseline mode snapshots the repo's performance into a machine-readable
// BENCH_<n>.json and gates later runs against it:
//
//	armci-bench -baseline                 # write the next BENCH_<n>.json
//	armci-bench -baseline -o BENCH_1.json # explicit output path
//	armci-bench -compare BENCH_0.json     # fail (exit 1) on >tolerance regression
//	armci-bench -compare BENCH_0.json -quick   # judge deterministic metrics only (CI)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"armci"
	"armci/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("armci-bench: ")

	var (
		fig      = flag.String("fig", "all", "experiment: 7, 8, 9, 10, lock, lockcrash, elastic, crossover, crossover-n, counts, ablate, striping, sensitivity, smallput, workloads, all")
		workload = flag.String("workload", "", "with -fig workloads: semicolon-separated workload specs (default stencil;paramserver;prodcons;mixed)")
		fabric   = flag.String("fabric", "sim", "fabric: sim, chan, tcp, proc (proc: multi-process, see -fabric proc notes)")
		preset   = flag.String("preset", string(armci.PresetMyrinet2000), "cost model: myrinet2000, fast-ethernet, zero")
		procsF   = flag.String("procs", "", "comma-separated process counts (default per experiment)")
		reps     = flag.Int("reps", 0, "timed repetitions per point (default per experiment)")
		iters    = flag.Int("iters", 0, "lock iterations per process (default 200)")
		format   = flag.String("format", "table", "output format: table or csv (figs 7, 8, crossover, crossover-n, striping)")
		timeline = flag.String("timeline", "", "write a per-message CSV timeline of one sync to this file and exit")
		faultsF  = flag.String("faults", "", "fault-injection plan, e.g. jitter=500us,spike=2ms@0.05,dup=0.02,loss=0.05@2,rto=200us@4ms,retry=6,crash=2@40,seed=7")
		hist     = flag.Bool("hist", false, "print per-kind message latency histograms after the experiment")
		baseline = flag.Bool("baseline", false, "collect a performance baseline and write BENCH_<n>.json instead of running an experiment")
		compare  = flag.String("compare", "", "collect the current metrics and compare against this BENCH_*.json; exit 1 on regression")
		quick    = flag.Bool("quick", false, "with -compare: judge only deterministic metrics (skip wall-clock ones)")
		outPath  = flag.String("o", "", "with -baseline: output path (default the next free BENCH_<n>.json)")
		procWkr  = flag.Bool("proc-fig7-worker", false, "internal: run as one multi-process fig7 worker (set by -fabric proc)")
	)
	flag.Parse()

	if *procWkr {
		os.Exit(runProcFig7Worker(*procsF, *reps))
	}

	if *baseline || *compare != "" {
		os.Exit(runBaseline(*baseline, *compare, *quick, *outPath))
	}

	fk, err := armci.ParseFabric(*fabric)
	if err != nil {
		log.Fatal(err)
	}
	procCounts, err := parseProcs(*procsF)
	if err != nil {
		log.Fatal(err)
	}
	faults, err := parseFaults(*faultsF)
	if err != nil {
		log.Fatal(err)
	}
	var metrics *armci.Metrics
	if *hist {
		metrics = armci.NewMetrics()
	}
	common := bench.Opts{Fabric: fk, Preset: armci.CostPreset(*preset), Reps: *reps,
		Faults: faults, Metrics: metrics}
	csv := *format == "csv"
	if *format != "table" && *format != "csv" {
		log.Fatalf("unknown -format %q", *format)
	}

	if fk == armci.FabricProc {
		// Each proc-fabric point is a separate multi-process launch that
		// re-executes this binary as the workers; only the figures listed
		// in procFigs are wired for that.
		if launch, ok := procFigs[*fig]; !ok {
			log.Fatalf("-fabric proc supports %s; run the other figures on sim, chan or tcp",
				procFigList())
		} else if *faultsF != "" || *hist || *timeline != "" {
			log.Fatal("-fabric proc does not combine with -faults, -hist or -timeline")
		} else {
			launch(procCounts, *reps, csv)
			return
		}
	}

	if *timeline != "" {
		n := 8
		if len(procCounts) > 0 {
			n = procCounts[len(procCounts)-1]
		}
		if err := writeTimeline(*timeline, n, armci.CostPreset(*preset)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline of one ARMCI_Barrier at %d processes written to %s\n", n, *timeline)
		return
	}

	switch *fig {
	case "7":
		runFig7(common, procCounts, csv)
	case "8", "9", "10", "lock":
		runLock(common, procCounts, *iters, csv)
	case "lockcrash":
		runLockCrash(common, procCounts)
	case "elastic":
		runElastic(common, procCounts)
	case "crossover":
		runCrossover(common, procCounts, csv)
	case "crossover-n":
		runCrossoverN(common, procCounts, csv)
	case "counts":
		runCounts(procCounts)
	case "ablate":
		runAblations(common)
	case "striping":
		runStriping(common, csv)
	case "sensitivity":
		runSensitivity(common)
	case "smallput":
		runSmallPut(common, procCounts)
	case "workloads":
		runWorkloads(common, *workload)
	case "all":
		runFig7(common, procCounts, csv)
		fmt.Println()
		runLock(common, procCounts, *iters, csv)
		fmt.Println()
		runLockCrash(common, procCounts)
		fmt.Println()
		runElastic(common, procCounts)
		fmt.Println()
		runCrossover(common, nil, csv)
		fmt.Println()
		runCrossoverN(common, nil, csv)
		fmt.Println()
		runCounts(procCounts)
		fmt.Println()
		runAblations(common)
		fmt.Println()
		runStriping(common, csv)
		fmt.Println()
		runSensitivity(common)
		fmt.Println()
		runSmallPut(common, procCounts)
		fmt.Println()
		runWorkloads(common, *workload)
	default:
		log.Fatalf("unknown -fig %q", *fig)
	}

	if metrics != nil {
		fmt.Println()
		fmt.Print(metrics.String())
	}
}

// runBaseline handles the -baseline and -compare modes: collect the
// current metrics, then either write the snapshot or judge it against a
// committed one.
func runBaseline(write bool, comparePath string, quick bool, outPath string) int {
	fmt.Println("collecting baseline metrics (figures, sweep, hot-path benches)...")
	cur, err := bench.CollectBaseline(gitCommit())
	if err != nil {
		log.Print(err)
		return 2
	}

	if comparePath != "" {
		base, err := bench.ReadBaseline(comparePath)
		if err != nil {
			log.Print(err)
			return 2
		}
		regs, missing := bench.CompareBaselines(base, cur, quick)
		mode := "full"
		if quick {
			mode = "quick"
		}
		fmt.Printf("compared against %s (%s mode, commit %s)\n", comparePath, mode, orUnknown(base.Commit))
		for _, name := range missing {
			fmt.Printf("MISSING %s: tracked by the baseline but not reported by this build\n", name)
		}
		for _, r := range regs {
			fmt.Printf("REGRESSION %s\n", r)
		}
		if len(regs) > 0 || len(missing) > 0 {
			fmt.Printf("%d regressions, %d missing metrics\n", len(regs), len(missing))
			return 1
		}
		fmt.Printf("all %d tracked metrics within tolerance\n", len(base.Metrics))
		return 0
	}

	path := outPath
	if path == "" {
		path = nextBaselinePath()
	}
	if err := bench.WriteBaseline(cur, path); err != nil {
		log.Print(err)
		return 2
	}
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := cur.Metrics[name]
		fmt.Printf("  %-42s %12.4g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("baseline (%d metrics, commit %s) written to %s\n", len(cur.Metrics), orUnknown(cur.Commit), path)
	return 0
}

// nextBaselinePath returns the first free BENCH_<n>.json in the current
// directory.
func nextBaselinePath() string {
	for n := 0; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}

// gitCommit best-effort resolves the working tree's revision for the
// baseline metadata; missing git or a non-repo directory yields "".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// parseFaults parses the -faults plan (see armci.ParseFaults for the
// grammar: jitter, spike, dup, loss, rto, retry, crash, seed; each knob
// at most once), wrapping errors with the flag name.
func parseFaults(s string) (armci.Faults, error) {
	f, err := armci.ParseFaults(s)
	if err != nil {
		return f, fmt.Errorf("-faults: %w", err)
	}
	return f, nil
}

func parseProcs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad process count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// procFigs enumerates the figures wired for the multi-process proc
// fabric, each as its own launcher: adding a proc-capable experiment
// means one table entry, not another copy of the restriction message.
var procFigs = map[string]func(procCounts []int, reps int, csv bool){
	"7": runFig7Proc,
}

// procFigList renders the proc-capable figures for the error message.
func procFigList() string {
	figs := make([]string, 0, len(procFigs))
	for f := range procFigs {
		figs = append(figs, "-fig "+f)
	}
	sort.Strings(figs)
	return "only " + strings.Join(figs, ", ")
}

// runProcFig7Worker is the worker-side dispatch of -fabric proc: the
// launcher re-executes this binary with the hidden flag inside the
// cluster rendezvous environment.
func runProcFig7Worker(procsF string, reps int) int {
	counts, err := parseProcs(procsF)
	if err != nil || len(counts) != 1 {
		log.Printf("-proc-fig7-worker wants exactly one -procs value, got %q", procsF)
		return 2
	}
	var opts bench.Fig7Opts
	opts.Reps = reps
	if err := bench.RunFig7ProcWorker(opts, counts[0]); err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

// runFig7Proc sweeps Figure 7 across real OS processes: one cluster
// launch per point, re-executing this binary as the workers.
func runFig7Proc(procCounts []int, reps int, csv bool) {
	if procCounts == nil {
		procCounts = []int{2, 4, 8}
	}
	self, err := os.Executable()
	if err != nil {
		log.Fatalf("resolving own binary for self-exec: %v", err)
	}
	res := &bench.Fig7Result{Opts: bench.Fig7Opts{ProcCounts: procCounts}}
	// Header metadata only: the proc fabric measures wall clock, so no
	// cost preset applies; reps default to the worker-side 10.
	res.Opts.Opts = bench.Opts{Fabric: armci.FabricProc, Preset: "wall-clock", Reps: reps}
	if reps <= 0 {
		res.Opts.Reps = 10
	}
	for _, n := range procCounts {
		row, err := bench.LaunchFig7Proc(bench.Fig7ProcLaunch{
			Procs:   n,
			Command: []string{self, "-proc-fig7-worker", "-procs", fmt.Sprint(n), "-reps", fmt.Sprint(reps)},
			Output:  io.Discard,
		})
		if err != nil {
			log.Fatalf("fig7 proc N=%d: %v", n, err)
		}
		res.Rows = append(res.Rows, row)
	}
	if csv {
		fmt.Print(bench.CSVFig7(res))
		return
	}
	fmt.Print(bench.FormatFig7(res))
}

func runFig7(common bench.Opts, procCounts []int, csv bool) {
	res, err := bench.Fig7(bench.Fig7Opts{Opts: common, ProcCounts: procCounts})
	if err != nil {
		log.Fatal(err)
	}
	if csv {
		fmt.Print(bench.CSVFig7(res))
		return
	}
	fmt.Print(bench.FormatFig7(res))
}

func runLock(common bench.Opts, procCounts []int, iters int, csv bool) {
	res, err := bench.Lock(bench.LockOpts{Opts: common, ProcCounts: procCounts, Iters: iters})
	if err != nil {
		log.Fatal(err)
	}
	if csv {
		fmt.Print(bench.CSVLock(res))
		return
	}
	fmt.Print(bench.FormatLock(res))
}

func runLockCrash(common bench.Opts, procCounts []int) {
	if common.Fabric != armci.FabricSim {
		fmt.Println("lockcrash: skipped (measures deterministic virtual times; sim fabric only)")
		return
	}
	opts := bench.LockCrashOpts{Opts: common}
	if len(procCounts) > 0 {
		opts.Procs = procCounts[len(procCounts)-1]
	}
	res, err := bench.LockCrash(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatLockCrash(res))
}

// runElastic prices the elastic subsystem: steady-state replication
// overhead and crash-recovery latency, both deterministic virtual times.
func runElastic(common bench.Opts, procCounts []int) {
	if common.Fabric != armci.FabricSim {
		fmt.Println("elastic: skipped (measures deterministic virtual times; sim fabric only — the real-crash path is armci-run -workload elastic)")
		return
	}
	opts := bench.ElasticOpts{Opts: common}
	if len(procCounts) > 0 {
		opts.Procs = procCounts[len(procCounts)-1]
	}
	res, err := bench.Elastic(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatElastic(res))
}

func runCrossover(common bench.Opts, procCounts []int, csv bool) {
	procs := 16
	if len(procCounts) > 0 {
		procs = procCounts[len(procCounts)-1]
	}
	res, err := bench.Crossover(bench.CrossoverOpts{Opts: common, Procs: procs})
	if err != nil {
		log.Fatal(err)
	}
	if csv {
		fmt.Print(bench.CSVCrossover(res))
		return
	}
	fmt.Print(bench.FormatCrossover(res))
}

// runCrossoverN sweeps one combined barrier across cluster sizes and
// algorithms; -procs overrides the default N values.
func runCrossoverN(common bench.Opts, procCounts []int, csv bool) {
	res, err := bench.CrossoverN(bench.CrossoverNOpts{Opts: common, NValues: procCounts})
	if err != nil {
		log.Fatal(err)
	}
	if csv {
		fmt.Print(bench.CSVCrossoverN(res))
		return
	}
	fmt.Print(bench.FormatCrossoverN(res))
}

// writeTimeline captures one combined barrier under the cost model and
// dumps every message as CSV (the recorder's TimelineCSV).
func writeTimeline(path string, procs int, preset armci.CostPreset) error {
	rep, err := armci.Run(armci.Options{
		Procs:        procs,
		Fabric:       armci.FabricSim,
		Preset:       preset,
		CaptureTrace: true,
	}, func(p *armci.Proc) {
		ptrs := p.Malloc(64)
		payload := make([]byte, 64)
		for q := 0; q < procs; q++ {
			if q != p.Rank() {
				p.Put(ptrs[q], payload)
			}
		}
		p.Barrier()
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(rep.Stats.TimelineCSV()), 0o644)
}

func runCounts(procCounts []int) {
	if procCounts == nil {
		procCounts = []int{2, 4, 8, 16}
	}
	var all []*bench.MessageCounts
	for _, n := range procCounts {
		c, err := bench.CountSyncMessages(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "armci-bench: counts N=%d: %v (skipped)\n", n, err)
			continue
		}
		all = append(all, c)
	}
	fmt.Print(bench.FormatMessageCounts(all))
}

func runStriping(common bench.Opts, csv bool) {
	res, err := bench.Striping(bench.StripingOpts{Opts: common})
	if err != nil {
		log.Fatal(err)
	}
	if csv {
		fmt.Print(bench.CSVStriping(res))
		return
	}
	fmt.Print(bench.FormatStriping(res))
}

func runSmallPut(common bench.Opts, procCounts []int) {
	opts := bench.SmallPutOpts{Opts: common}
	if len(procCounts) > 0 {
		opts.Procs = procCounts[len(procCounts)-1]
	}
	res, err := bench.SmallPut(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatSmallPut(res))
}

func runWorkloads(common bench.Opts, specsF string) {
	opts := bench.WorkloadsOpts{Opts: common}
	if specsF != "" {
		for _, s := range strings.Split(specsF, ";") {
			if s = strings.TrimSpace(s); s != "" {
				opts.Specs = append(opts.Specs, s)
			}
		}
	}
	res, err := bench.Workloads(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatWorkloads(res))
}

func runSensitivity(common bench.Opts) {
	res, err := bench.Sensitivity(bench.SensitivityOpts{Opts: common})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatSensitivity(res))
}

func runAblations(common bench.Opts) {
	res, err := bench.Ablations(bench.AblationOpts{Opts: common})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatAblations(res))
}
