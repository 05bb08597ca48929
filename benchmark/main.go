// Command benchmark is the repository's wall-clock benchmark: five long
// closed-loop workloads over the real fabrics and the simulator, each
// measured as medians over barrier-delimited blocks, with a separate
// traced run that accounts for every layer from outside. README.md in
// this directory defines every metric; BENCHMARK.json at the repository
// root is the contract a driver reads.
//
//	go run ./benchmark -workload sync-tcp4 -seed 1   # one workload, end-to-end metrics
//	go run ./benchmark -all                          # the five in sequence
//	go run ./benchmark -workload rma-tcp2 -trace 1   # the traced run: per-layer metrics, span file
//	go run ./benchmark -agree 5                      # do two sets of runs agree within the bounds?
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// warmUp is the fixed length of the warm-up phase, part of setup_s.
const warmUp = time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd turns an untraced run into the five end-to-end metrics, in
// the order BENCHMARK.json lists them.
func endToEnd(o *outcome) []namedMetric {
	return []namedMetric{
		{"setup_s", metric{o.setup.Seconds(), "s"}},
		{"op_us", metric{median(o.op.us), "us"}},
		{"alt_us", metric{median(o.alt.us), "us"}},
		{"op_allocs", metric{o.op.perOp(float64(o.op.mallocs)), "count"}},
		{"alt_allocs", metric{o.alt.perOp(float64(o.alt.mallocs)), "count"}},
	}
}

type namedMetric struct {
	name string
	metric
}

// header records what the numbers were measured on.
func header() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("# nproc=%d GOMAXPROCS=%d go=%s kernel=%s link=loopback",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
}

// report prints one run's metrics by name with their units, the
// operation counts and the JSON line; it returns whether a result could
// be printed at all.
func report(w *workload, ms []namedMetric, attempted, failed int, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	}
	res := result{Correct: err == nil && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range ms {
		fmt.Printf("%-12s %-32s %14.4f %s\n", w.name, m.name, m.Value, m.Unit)
		res.Metrics[m.name] = m.metric
	}
	fmt.Printf("%-12s ops_attempted=%d ops_failed=%d\n", w.name, attempted, failed)
	if attempted < 1 {
		return false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", jerr)
		return false
	}
	fmt.Printf("%s\n", line)
	return true
}

// runOne runs one workload, untraced or traced, and prints its report.
func runOne(w *workload, seed int64, timed time.Duration, traced bool) bool {
	ph := phases{warm: warmUp, timed: timed}
	if traced {
		ms, attempted, failed, err := runTraced(w, seed, ph, "benchmark/out")
		return report(w, ms, attempted, failed, err)
	}
	o := runBlocks(w, seed, ph)
	if len(o.op.us) == 0 || len(o.alt.us) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: no complete block: %v\n", w.name, o.err)
		return false
	}
	// Beside the gated numbers, what they were scaled from: the plain
	// wall-clock medians and the hand-off they were divided by.
	fmt.Printf("%-12s op = %s, alt = %s\n", w.name, o.opLabel, o.altLabel)
	fmt.Printf("%-12s (wall clock: op %.4f us, alt %.4f us; hand-off %.1f ns against the nominal %d)\n", w.name,
		median(o.op.rawUS), median(o.alt.rawUS), median(o.op.handoffNS), handoffNominalNS)
	return report(w, endToEnd(o), o.attempted, o.failed, o.err)
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	all := flag.Bool("all", false, "run the five workloads in sequence")
	seed := flag.Int64("seed", 1, "seed of payload bytes, target order and generators")
	seconds := flag.Float64("seconds", 12, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics and span file) instead of the end-to-end one")
	agree := flag.Int("agree", 0, "run the full set 2N times, interleaved A/B, and compare the two sets against the bounds")
	corrupt := flag.Bool("corrupt", false, "make every oracle expect a wrong value, to show failures are counted")
	flag.Parse()

	if runtime.GOMAXPROCS(0) < 2 {
		// On one processor every wall metric measures the Go scheduler's
		// time slicing of ranks, servers and router, not the fabrics.
		fmt.Fprintln(os.Stderr, "benchmark: GOMAXPROCS < 2: refusing to report wall-clock metrics")
		os.Exit(2)
	}
	corruptOracle.Store(*corrupt)
	timed := time.Duration(*seconds * float64(time.Second))
	fmt.Println(header())

	switch {
	case *agree > 0:
		if !runAgree(*agree, timed) {
			os.Exit(1)
		}
	case *all:
		ok := true
		for _, w := range workloads {
			ok = runOne(w, *seed, timed, *trace != 0) && ok
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s, or -all)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		if !runOne(w, *seed, timed, *trace != 0) {
			os.Exit(1)
		}
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
