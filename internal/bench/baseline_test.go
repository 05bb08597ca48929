package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBaselineRoundTripAndGate is the end-to-end contract of the
// regression gate: a collected baseline survives the JSON round trip,
// compares clean against itself, and a synthetic 20% slowdown injected
// by the handicap helper trips the gate — proving the gate would catch
// a real regression of the same size.
func TestBaselineRoundTripAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline collection skipped in -short")
	}
	base, err := CollectBaseline("test")
	if err != nil {
		t.Fatal(err)
	}
	// The behavioural contract, exact: this build reports the metric
	// names of the newest committed baseline, no more and no fewer, and
	// every deterministic one at the committed value — so a drift too
	// small or in the wrong direction for the gate's +15% rule, or a
	// silently renamed metric, fails here. An intended change refreshes
	// the baseline (`go run ./cmd/armci-bench -baseline`).
	committed, err := ReadBaseline(newestBaseline(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range committed.Metrics {
		got, ok := base.Metrics[name]
		if !ok {
			t.Errorf("this build no longer reports committed metric %q", name)
		} else if !want.Noisy && got.Value != want.Value {
			t.Errorf("%s = %v, the committed baseline has %v", name, got.Value, want.Value)
		}
	}
	for name := range base.Metrics {
		if _, ok := committed.Metrics[name]; !ok {
			t.Errorf("this build reports %q, which the committed baseline does not track", name)
		}
	}
	if got := base.Metrics["hotpath/kernel_schedule/allocs_op"].Value; got > 0 {
		t.Errorf("kernel schedule allocates %v allocs/op at collection time, want 0", got)
	}
	if got := base.Metrics["hotpath/pipeline_sendrecv/allocs_op"].Value; got > 0 {
		t.Errorf("pipeline send/recv allocates %v allocs/op at collection time, want 0", got)
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteBaseline(base, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	// Self-comparison must be clean: deterministic metrics are exactly
	// equal, and even the noisy ones match because both sides are the
	// same document.
	if regs, missing := CompareBaselines(loaded, base, false); len(regs) > 0 || len(missing) > 0 {
		t.Fatalf("baseline regresses against itself: %v, missing %v", regs, missing)
	}

	// The synthetic slowdown: +20% on every time metric exceeds the 15%
	// deterministic budget, so the quick gate must fail on the figure
	// and small-put times while the alloc and event counts — and the
	// smallput ratio, whose numerator and denominator slow down together
	// — stay clean. The handicap is a pure post-collection multiply, so
	// it is applied to a second copy of the one collection rather than
	// paying for another.
	slow, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	slow.handicap(0.2)
	regs, _ := CompareBaselines(loaded, slow, true)
	if len(regs) == 0 {
		t.Fatal("a 20% handicap produced no regressions: the gate is blind")
	}
	timeMetric := func(name string) bool {
		return strings.Contains(name, "fig7/") || strings.Contains(name, "fig8/") ||
			strings.HasSuffix(name, "/us")
	}
	for _, r := range regs {
		if !timeMetric(r.Name) {
			t.Errorf("handicap tripped unexpected metric %s", r)
		}
	}
}

// newestBaseline returns the committed BENCH_<n>.json with the highest n
// — the file scripts/benchdiff.sh gates against.
func newestBaseline(t *testing.T) string {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH_<n>.json (glob error %v)", err)
	}
	newest, best := "", -1
	for _, p := range paths {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), "BENCH_%d.json", &n); err == nil && n > best {
			newest, best = p, n
		}
	}
	return newest
}

// handicap inflates every time-valued metric of a collected document by
// frac, synthesizing the slowdown the comparison gate exists to catch.
// Counts and ratios are left alone — a slowdown moves neither.
func (b *Baseline) handicap(frac float64) {
	for name, m := range b.Metrics {
		switch m.Unit {
		case "us", "ms", "ns/op":
			m.Value *= 1 + frac
			b.Metrics[name] = m
		}
	}
}

// TestCompareBaselinesJudgment covers the gate's decision table without
// any collection: tolerance edges, the absolute slack on zero bases,
// noisy metrics under quick vs full, and missing-metric detection.
func TestCompareBaselinesJudgment(t *testing.T) {
	mk := func(metrics map[string]Metric) *Baseline {
		return &Baseline{Schema: BaselineSchema, Metrics: metrics}
	}
	base := mk(map[string]Metric{
		"det":       {Value: 100, Unit: "us", Tol: 0.15, Abs: 0.75},
		"zero":      {Value: 0, Unit: "allocs/op", Tol: 0.15, Abs: 0.75},
		"wallclock": {Value: 100, Unit: "ns/op", Tol: 0.60, Abs: 0.75, Noisy: true},
	})

	cur := mk(map[string]Metric{
		"det":       {Value: 114}, // +14%: inside the 15% budget
		"zero":      {Value: 0.5}, // below the absolute slack
		"wallclock": {Value: 150}, // +50%: inside the noisy budget
	})
	if regs, missing := CompareBaselines(base, cur, false); len(regs) > 0 || len(missing) > 0 {
		t.Fatalf("within-budget run flagged: %v, missing %v", regs, missing)
	}

	cur = mk(map[string]Metric{
		"det":       {Value: 120}, // +20%: regression
		"zero":      {Value: 2},   // past the absolute slack on a 0 base
		"wallclock": {Value: 170}, // +70%: noisy regression
	})
	regs, _ := CompareBaselines(base, cur, false)
	if len(regs) != 3 {
		t.Fatalf("full comparison found %d regressions, want 3: %v", len(regs), regs)
	}
	if regs, _ := CompareBaselines(base, cur, true); len(regs) != 2 {
		t.Fatalf("quick comparison found %d regressions, want 2 (noisy skipped): %v", len(regs), regs)
	}

	cur = mk(map[string]Metric{"det": {Value: 100}})
	if _, missing := CompareBaselines(base, cur, true); len(missing) != 1 || missing[0] != "zero" {
		t.Fatalf("dropped metric not reported: %v", missing)
	}
}

// TestReadBaselineRejectsBadDocuments covers the loader's validation.
func TestReadBaselineRejectsBadDocuments(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := ReadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := ReadBaseline(write("garbage.json", "{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadBaseline(write("schema.json", `{"schema":99,"metrics":{"x":{"value":1}}}`)); err == nil {
		t.Error("future schema accepted")
	}
	if _, err := ReadBaseline(write("empty.json", `{"schema":1,"metrics":{}}`)); err == nil {
		t.Error("metric-free document accepted")
	}
}
