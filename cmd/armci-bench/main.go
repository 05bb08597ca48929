// Command armci-bench regenerates the evaluation of "Optimizing
// Synchronization Operations for Remote Memory Communication Systems"
// (IPPS 2003): Figure 7 (GA_Sync, original vs combined barrier), Figures
// 8-10 (hybrid vs software queuing locks), the §3.1.2 sparse-writer
// crossover, the analytical message-count check and the extensions. The
// experiments are the rows of bench.Experiments: -fig selects one by name
// or alias, -fig all runs them in order, and every one prints as a text
// table or, with -format csv, as its row set.
//
// Usage:
//
//	armci-bench -fig all                  # everything, simulated fabric
//	armci-bench -fig 7 -procs 2,4,8,16,32 # extend the sweep
//	armci-bench -fig 8 -fabric chan       # wall-clock sanity run
//	armci-bench -fig all -fabric tcp      # sim-only experiments print a "skipped" line
//	armci-bench -fig crossover
//	armci-bench -fig crossover-n            # barrier algorithms vs cluster size, 16..4096 ranks
//	armci-bench -fig counts
//	armci-bench -fig sensitivity -format csv
//	armci-bench -fig workloads            # named scenario makespans (internal/workload grammar)
//	armci-bench -fig workloads -workload 'stencil:rows=16,halo=2;mixed:skew=hot'
//
// Baseline mode snapshots the deterministic numbers into a
// machine-readable BENCH_<n>.json; the newest one is the exact contract
// `go test ./internal/bench` holds this build to:
//
//	armci-bench -baseline                 # write BENCH_<newest+1>.json
//	armci-bench -baseline -o b.json       # explicit output path
package main

import (
	"errors"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command: args are the command-line arguments, out receives
// the tables.
func run(args []string, out io.Writer) error {
	figs := strings.Join(bench.FigNames(), ", ") + ", all"
	fs := flag.NewFlagSet("armci-bench", flag.ExitOnError)
	var (
		fig      = fs.String("fig", "all", "experiment: "+figs)
		workload = fs.String("workload", "", "with -fig workloads: semicolon-separated workload specs (default stencil;paramserver;prodcons;mixed)")
		fabric   = fs.String("fabric", "sim", "fabric: sim, chan, tcp, proc (proc: multi-process, see -fabric proc notes)")
		preset   = fs.String("preset", string(armci.PresetMyrinet2000), "cost model: myrinet2000, fast-ethernet, low-latency, zero")
		procsF   = fs.String("procs", "", "comma-separated process counts (default per experiment)")
		reps     = fs.Int("reps", 0, "timed repetitions per point (default per experiment)")
		iters    = fs.Int("iters", 0, "lock iterations per process (default 200)")
		format   = fs.String("format", "table", "output format: table or csv")
		timeline = fs.String("timeline", "", "write a per-message CSV timeline of one sync to this file and exit")
		faultsF  = fs.String("faults", "", "fault-injection plan, e.g. jitter=500us,spike=2ms@0.05,dup=0.02,loss=0.05@2,rto=200us@4ms,retry=6,crash=2@40,seed=7")
		hist     = fs.Bool("hist", false, "print per-kind message latency histograms after the experiment")
		baseline = fs.Bool("baseline", false, "collect the deterministic baseline and write it as the next BENCH_<n>.json instead of running an experiment")
		outPath  = fs.String("o", "", "with -baseline: output path (default BENCH_<n+1>.json after the newest BENCH_<n>.json)")
		procWkr  = fs.Bool("proc-fig7-worker", false, "internal: run as one multi-process fig7 worker (set by -fabric proc)")
	)
	fs.Parse(args)

	if *procWkr {
		os.Exit(runProcFig7Worker(*procsF, *reps))
	}
	if *baseline {
		return runBaseline(*outPath, out)
	}

	fk, err := armci.ParseFabric(*fabric)
	if err != nil {
		return err
	}
	procCounts, err := parseProcs(*procsF)
	if err != nil {
		return err
	}
	faults, err := parseFaults(*faultsF)
	if err != nil {
		return err
	}
	var metrics *armci.Metrics
	if *hist {
		metrics = armci.NewMetrics()
	}
	a := bench.Args{Procs: procCounts, Iters: *iters, Opts: bench.Opts{Fabric: fk,
		Preset: armci.CostPreset(*preset), Reps: *reps, Faults: faults, Metrics: metrics}}
	for _, s := range strings.Split(*workload, ";") {
		if s = strings.TrimSpace(s); s != "" {
			a.Specs = append(a.Specs, s)
		}
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown -format %q", *format)
	}
	show := func(t *bench.Table) {
		if *format == "csv" {
			fmt.Fprint(out, t.CSV())
		} else {
			fmt.Fprint(out, t.Text())
		}
	}
	// The registry rows -fig selects: one, or all of them in order.
	var selected []*bench.Experiment
	if e := bench.Find(*fig); e != nil {
		selected = []*bench.Experiment{e}
	} else if *fig != "all" {
		return fmt.Errorf("unknown -fig %q (want one of %s)", *fig, figs)
	} else {
		for i := range bench.Experiments {
			selected = append(selected, &bench.Experiments[i])
		}
	}

	if fk == armci.FabricProc {
		// Each proc-fabric point is a separate multi-process launch that
		// re-executes this binary as the workers; only the experiments
		// with a Proc launcher are wired for that.
		if len(selected) != 1 || selected[0].Proc == nil {
			var wired []string
			for _, e := range bench.Experiments {
				if e.Proc != nil {
					wired = append(wired, "-fig "+e.Name)
				}
			}
			return fmt.Errorf("-fabric proc supports only %s; run the other figures on sim, chan or tcp",
				strings.Join(wired, ", "))
		}
		if *faultsF != "" || *hist || *timeline != "" {
			return errors.New("-fabric proc does not combine with -faults, -hist or -timeline")
		}
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("resolving own binary for self-exec: %w", err)
		}
		t, err := selected[0].Proc(a, func(n int) []string {
			return []string{self, "-proc-fig7-worker", "-procs", fmt.Sprint(n), "-reps", fmt.Sprint(*reps)}
		})
		if err != nil {
			return err
		}
		show(t)
		return nil
	}

	if *timeline != "" {
		n := 8
		if len(procCounts) > 0 {
			n = procCounts[len(procCounts)-1]
		}
		if err := writeTimeline(*timeline, n, armci.CostPreset(*preset)); err != nil {
			return err
		}
		fmt.Fprintf(out, "timeline of one ARMCI_Barrier at %d processes written to %s\n", n, *timeline)
		return nil
	}

	for i, e := range selected {
		if i > 0 {
			fmt.Fprintln(out)
		}
		ea := a
		if e.OwnSweep && len(selected) > 1 {
			ea.Procs = nil
		}
		t, err := e.Run(ea)
		if errors.Is(err, bench.ErrSimOnly) {
			fmt.Fprintf(out, "%s: skipped (%v)\n", e.Name, err)
			continue
		} else if err != nil {
			return err
		}
		show(t)
	}
	if metrics != nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, metrics.String())
	}
	return nil
}

// runBaseline is the -baseline mode: collect the metrics and write the
// snapshot to outPath, by default the baseline after the newest one in
// the current directory.
func runBaseline(outPath string, out io.Writer) error {
	fmt.Fprintln(out, "collecting baseline metrics (figures and sweeps)...")
	cur, err := bench.CollectBaseline(gitCommit())
	if err != nil {
		return err
	}
	if outPath == "" {
		outPath = bench.BaselinePath(".", bench.NewestBaseline(".")+1)
	}
	if err := bench.WriteBaseline(cur, outPath); err != nil {
		return err
	}
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := cur.Metrics[name]
		fmt.Fprintf(out, "  %-42s %12.4g %s\n", name, m.Value, m.Unit)
	}
	commit := cur.Commit
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(out, "baseline (%d metrics, commit %s) written to %s\n", len(cur.Metrics), commit, outPath)
	return nil
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

// parseFaults parses the -faults plan (armci.ParseFaults holds the
// grammar), wrapping errors with the flag name.
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
