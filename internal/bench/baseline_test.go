package bench

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// repoRoot is where the committed BENCH_<n>.json files live.
const repoRoot = "../.."

// TestBaselineRoundTripAndGate is the exact contract of the committed
// numbers: this build reports the metric names of the newest committed
// baseline, no more and no fewer, every value bit-equal to it, and the
// collected document survives the JSON round trip bit for bit. An
// intended change writes the next baseline (`go run ./cmd/armci-bench
// -baseline`).
func TestBaselineRoundTripAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline collection skipped in -short")
	}
	cur, err := CollectBaseline("test")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range contractDiff(newestCommitted(t), cur) {
		t.Error(d)
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteBaseline(cur, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range contractDiff(cur, loaded) {
		t.Errorf("JSON round trip: %s", d)
	}
}

// contractDiff lists every way got breaks the contract want sets: a
// metric want tracks that got lacks, one got reports that want does not
// track, and a value that differs in any bit. A renamed metric shows as
// one of each of the first two.
func contractDiff(want, got *Baseline) []string {
	var diffs []string
	for name, w := range want.Metrics {
		g, ok := got.Metrics[name]
		if !ok {
			diffs = append(diffs, "missing "+name+": tracked by the baseline, not reported by this build")
		} else if math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			// %v prints the shortest text that parses back to the same bits.
			diffs = append(diffs, fmt.Sprintf("%s: %v, the baseline has %v", name, g.Value, w.Value))
		}
	}
	for name := range got.Metrics {
		if _, ok := want.Metrics[name]; !ok {
			diffs = append(diffs, "extra "+name+": reported by this build, not tracked by the baseline")
		}
	}
	slices.Sort(diffs)
	return diffs
}

// newestCommitted reads the committed baseline NewestBaseline picks.
func newestCommitted(t *testing.T) *Baseline {
	t.Helper()
	n := NewestBaseline(repoRoot)
	if n < 0 {
		t.Fatal("no committed BENCH_<n>.json")
	}
	b, err := ReadBaseline(BaselinePath(repoRoot, n))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBaselineContractIsNotBlind injects each defect the contract exists
// to catch into a copy of the newest committed baseline and requires
// contractDiff to name it, and to find nothing in the unchanged copy.
func TestBaselineContractIsNotBlind(t *testing.T) {
	committed := newestCommitted(t)
	names := make([]string, 0, len(committed.Metrics))
	for name := range committed.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	victim := names[0]

	for _, tc := range []struct {
		defect string
		mutate func(m map[string]Metric)
		want   []string // a substring of each reported difference, in order
	}{
		{"unchanged", func(map[string]Metric) {}, nil},
		{"one ulp", func(m map[string]Metric) {
			v := m[victim]
			v.Value = math.Nextafter(v.Value, math.Inf(1))
			m[victim] = v
		}, []string{victim + ": "}},
		{"renamed", func(m map[string]Metric) {
			m[victim+"-renamed"] = m[victim]
			delete(m, victim)
		}, []string{"extra " + victim + "-renamed", "missing " + victim}},
		{"missing", func(m map[string]Metric) { delete(m, victim) }, []string{"missing " + victim}},
		{"extra", func(m map[string]Metric) { m["extra/metric"] = Metric{Value: 1, Unit: "us"} },
			[]string{"extra extra/metric"}},
	} {
		t.Run(tc.defect, func(t *testing.T) {
			cur := *committed
			cur.Metrics = maps.Clone(committed.Metrics)
			tc.mutate(cur.Metrics)
			got := contractDiff(committed, &cur)
			if len(got) != len(tc.want) {
				t.Fatalf("reported %q, want %d difference(s) containing %q", got, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("difference %d is %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}

// TestNewestBaselineComparesNumbers pins the one rule for the current
// file: the highest n wins as a number, not as text, and names that are
// not exactly BENCH_<n>.json do not count.
func TestNewestBaselineComparesNumbers(t *testing.T) {
	dir := t.TempDir()
	if n := NewestBaseline(dir); n != -1 {
		t.Fatalf("empty directory: newest %d, want -1", n)
	}
	for _, name := range []string{"BENCH_9.json", "BENCH_10.json", "BENCH_11.json.bak", "BENCH_012.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := NewestBaseline(dir); n != 10 {
		t.Fatalf("newest %d, want 10 (BENCH_10.json beats BENCH_9.json)", n)
	}
	if got, want := BaselinePath(dir, 11), filepath.Join(dir, "BENCH_11.json"); got != want {
		t.Fatalf("BaselinePath = %q, want %q", got, want)
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
	// A file written with the retired tolerance fields still loads.
	old, err := ReadBaseline(write("old.json", `{"schema":1,"metrics":{"x":{"value":1.5,"unit":"us","tol":0.15,"abs":0.75,"noisy":true}}}`))
	if err != nil || old.Metrics["x"] != (Metric{Value: 1.5, Unit: "us"}) {
		t.Errorf("document with tolerance fields: %+v, %v", old, err)
	}
}

// ReadBaseline loads a BENCH_*.json document.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return nil, fmt.Errorf("bench: %s has schema %d, this build understands %d", path, b.Schema, BaselineSchema)
	}
	if len(b.Metrics) == 0 {
		return nil, fmt.Errorf("bench: %s tracks no metrics", path)
	}
	return &b, nil
}
