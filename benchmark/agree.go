package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// contract is the part of BENCHMARK.json the benchmark reads back: the
// names it must emit and the bounds -agree judges against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// childRun runs one workload in a fresh process, as a driver would, and
// returns the result it printed last.
func childRun(exe, workload string, seed int64, timed time.Duration) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(timed.Seconds(), 'f', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &r, nil
}

// runAgree runs the full set 2n times, alternating set A and set B so
// both see the same stretch of the machine, every run in its own process
// and with its own seed. It prints, per workload and end-to-end metric,
// both sets' medians and quartiles, how far B's median is from A's and
// the spread of each set, all against the metric's bound, and reports
// whether everything stayed within it: the same two questions a driver
// asks of this benchmark before it trusts a comparison made with it.
func runAgree(n int, timed time.Duration) bool {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -agree reads the bounds from BENCHMARK.json in the current directory: %v\n", err)
		return false
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failedOps := 0
	for i := 0; i < n; i++ {
		for s := range sets {
			seed := int64(2*i + s + 1)
			for _, w := range workloads {
				r, err := childRun(exe, w.name, seed, timed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return false
				}
				failedOps += r.Failed
				for name, m := range r.Metrics {
					k := key{w.name, name}
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: -agree: pair %d of %d done\n", i+1, n)
	}

	ok := failedOps == 0
	fmt.Printf("%-12s %-10s %12s %22s %12s %22s %8s %8s %8s %7s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B vs A", "A spread", "B spread", "bound")
	for _, w := range workloads {
		for _, e := range c.EndToEnd {
			a, b := sets[0][key{w.name, e.Name}], sets[1][key{w.name, e.Name}]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			worse := (mb - ma) / ma
			if e.Better == "higher" {
				worse = -worse
			}
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			verdict := ""
			// setup_s is judged on its median alone, as the driver does.
			if worse > e.Bound || (e.Name != "setup_s" && (sa > e.Bound || sb > e.Bound)) {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("%-12s %-10s %12.4f %10.4f..%-10.4f %12.4f %10.4f..%-10.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%%s\n",
				w.name, e.Name, ma, a1, a3, mb, b1, b3, 100*worse, 100*sa, 100*sb, 100*e.Bound, verdict)
		}
	}
	if failedOps > 0 {
		fmt.Printf("%d operations failed their oracle\n", failedOps)
	}
	return ok
}
