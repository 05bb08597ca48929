// Baseline mode: a machine-readable snapshot of the paper's numbers
// (BENCH_<n>.json). Every metric is deterministic — a simulated virtual
// time or message count of a figure, what one operation of a wall-clock
// workload sends on its real fabric (Wall), or the case and event count
// of a fixed conformance sweep — so the newest committed file is an exact
// contract: this build must report the same metric names with bit-equal
// values (TestBaselineRoundTripAndGate). An intended change writes the
// next file with `go run ./cmd/armci-bench -baseline`.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"armci"
	"armci/internal/check"
)

// BaselineSchema is the BENCH_*.json schema version.
const BaselineSchema = 1

// baselineName is the file name of baseline number n.
const baselineName = "BENCH_%d.json"

// Metric is one tracked value in a baseline. Files written before the
// tolerance fields were retired still parse: JSON ignores unknown
// fields.
type Metric struct {
	// Value is the measurement (lower is better for every metric).
	Value float64 `json:"value"`
	// Unit is a display unit: "us", "pct", "sends", "frames", "cases", "events".
	Unit string `json:"unit"`
}

// Baseline is the BENCH_<n>.json document.
type Baseline struct {
	Schema  int               `json:"schema"`
	Created string            `json:"created,omitempty"`
	Commit  string            `json:"commit,omitempty"`
	Go      string            `json:"go"`
	Preset  string            `json:"preset"`
	Metrics map[string]Metric `json:"metrics"`
}

// CollectBaseline measures every tracked metric and assembles the
// document. commit is recorded verbatim (typically the git revision,
// resolved by the caller).
func CollectBaseline(commit string) (*Baseline, error) {
	b := &Baseline{
		Schema:  BaselineSchema,
		Created: time.Now().UTC().Format(time.RFC3339),
		Commit:  commit,
		Go:      runtime.Version(),
		Preset:  string(armci.PresetMyrinet2000),
		Metrics: map[string]Metric{},
	}
	put := func(name string, v float64, unit string) { b.Metrics[name] = Metric{Value: v, Unit: unit} }

	// The figures: every gated column of every gated experiment.
	if err := gatedMetrics(put); err != nil {
		return nil, err
	}

	// Conformance sweep: a fixed 160-case matrix with a deterministic
	// protocol event count.
	cases := check.Matrix([]armci.FabricKind{armci.FabricSim}, nil,
		[]string{"queue", "hybrid", "ticket", "queue-nocas", "lease"},
		[]string{"barrier", "sync-old"}, nil, 6, 2, 1, 16)
	sweep := check.RunAllParallel(cases, 0, nil)
	if len(sweep.Violations) > 0 || len(sweep.Errs) > 0 || sweep.Panics > 0 {
		return nil, fmt.Errorf("bench: baseline sweep not clean: %d violations, %d errors, %d panics",
			len(sweep.Violations), len(sweep.Errs), sweep.Panics)
	}
	put("explore/cases", float64(sweep.Cases), "cases")
	put("explore/events", float64(sweep.Events), "events")

	// Workload sweep: the four named workloads through the harness
	// matrix. The event count pins the generated programs — a grammar or
	// generator change that alters them moves this number.
	wcases := check.Matrix([]armci.FabricKind{armci.FabricSim},
		[]string{"stencil", "paramserver", "prodcons", "mixed"}, nil,
		[]string{"barrier", "sync-old"}, nil, 6, 2, 1, 8)
	wsweep := check.RunAllParallel(wcases, 0, nil)
	if len(wsweep.Violations) > 0 || len(wsweep.Errs) > 0 || wsweep.Panics > 0 {
		return nil, fmt.Errorf("bench: baseline workload sweep not clean: %d violations, %d errors, %d panics",
			len(wsweep.Violations), len(wsweep.Errs), wsweep.Panics)
	}
	put("explore/workloads/cases", float64(wsweep.Cases), "cases")
	put("explore/workloads/events", float64(wsweep.Events), "events")
	return b, nil
}

// NewestBaseline returns the number of the newest baseline in dir: the
// highest n of a BENCH_<n>.json there, compared as numbers, so
// BENCH_10.json beats BENCH_9.json. It is -1 when dir holds none. The
// contract test holds the newest file; -baseline writes number n+1.
func NewestBaseline(dir string) int {
	n := -1
	// Glob fails only on a malformed pattern, and this one is fixed.
	paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	for _, p := range paths {
		var k int
		name := filepath.Base(p)
		if _, err := fmt.Sscanf(name, baselineName, &k); err == nil && name == fmt.Sprintf(baselineName, k) && k > n {
			n = k
		}
	}
	return n
}

// BaselinePath is the path of baseline number n in dir.
func BaselinePath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf(baselineName, n))
}

// WriteBaseline marshals the document to path.
func WriteBaseline(b *Baseline, path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
