package main

import (
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smoke is the shortest run that still cycles every kind a few times:
// long enough for every oracle, far too short for a wall-clock number.
var smoke = phases{warm: 100 * time.Millisecond, timed: 300 * time.Millisecond}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBlockMedianIgnoresModesAndStalls(t *testing.T) {
	// Single calls are bimodal; blocks are not, but a machine stall can
	// inflate a few of them. The median over blocks must report the
	// common level whatever the stalled blocks cost.
	blocks := make([]float64, 0, 101)
	for i := 0; i < 100; i++ {
		blocks = append(blocks, 14+0.01*float64(i%7))
	}
	level := median(blocks)
	blocks = append(blocks, 5000) // one block sat out a 100 ms stall
	if got := median(blocks); math.Abs(got-level) > 0.02 {
		t.Errorf("one stalled block moved the median from %.3f to %.3f", level, got)
	}
	if mean := sum(blocks) / float64(len(blocks)); mean < 60 {
		t.Fatalf("the test's stall is too small to matter: mean %.1f", mean)
	}

	// A bimodal per-call distribution (1.7 µs when the reply is already
	// there, 36.7 µs after a sleep) has a median that flips with the mix;
	// the blocks that average those calls do not.
	calls := func(fast int) []float64 {
		xs := make([]float64, 0, 100)
		for i := 0; i < 100; i++ {
			if i < fast {
				xs = append(xs, 1.7)
			} else {
				xs = append(xs, 36.7)
			}
		}
		return xs
	}
	if a, b := median(calls(49)), median(calls(51)); a == b {
		t.Errorf("per-call medians %.1f and %.1f should differ: the example is not bimodal", a, b)
	}
	if a, b := sum(calls(49))/100, sum(calls(51))/100; math.Abs(a-b)/a > 0.05 {
		t.Errorf("block means %.2f and %.2f differ by more than 5 %% for a 2 %% change of mix", a, b)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v and median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, pct := tailPercentile(xs); pct != 99 {
		t.Errorf("1000 samples support p%v, want p99", pct)
	}
	if _, pct := tailPercentile(xs[:150]); pct != 90 {
		t.Errorf("150 samples support p%v, want p90", pct)
	}
	if _, pct := tailPercentile(xs[:50]); pct != 50 {
		t.Errorf("50 samples support p%v, want p50", pct)
	}
}

// TestSmokeEveryWorkload runs each workload for a moment at two seeds:
// every oracle passes, every end-to-end metric of BENCHMARK.json comes
// out under its name, and the allocation counts do not depend on the seed.
func TestSmokeEveryWorkload(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, c.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why breaks the contract's limits", w.name)
		}
		var allocs [2][2]float64
		for s, seed := range []int64{1, 2} {
			o := runBlocks(w, seed, smoke)
			if o.err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, o.err)
			}
			if o.attempted < 1 || o.failed != 0 {
				t.Errorf("%s seed %d: %d of %d operations failed their oracle", w.name, seed, o.failed, o.attempted)
			}
			got := endToEnd(o)
			if len(got) != len(c.EndToEnd) {
				t.Fatalf("%s: %d end-to-end metrics, BENCHMARK.json has %d", w.name, len(got), len(c.EndToEnd))
			}
			for j, m := range got {
				if want := c.EndToEnd[j]; m.name != want.Name || m.Unit != want.Unit {
					t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json has %s [%s]", w.name, j, m.name, m.Unit, want.Name, want.Unit)
				}
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s seed %d: %s = %v, want a positive number", w.name, seed, m.name, m.Value)
				}
			}
			allocs[s] = [2]float64{got[3].Value, got[4].Value}
		}
		for k, name := range []string{"op_allocs", "alt_allocs"} {
			if w.name == racyQueueLock && k == 0 {
				continue
			}
			if a, b := allocs[0][k], allocs[1][k]; math.Abs(a-b)/a > 0.02 {
				t.Errorf("%s: %s is %.2f at seed 1 and %.2f at seed 2, more than 2 %% apart", w.name, name, a, b)
			}
		}
	}
}

// racyQueueLock names the one workload whose op has no exact counts: how
// many messages and allocations a queue-lock hand-off takes depends on
// whether the acquirer finds the lock free and the releaser its successor
// already linked, a race that moments-long runs decide differently each
// time (over a 12 s run the counts settle within 1 %).
const racyQueueLock = "lock-chan4"

// TestCountsDoNotDependOnSeed pins the protocol's message counts: the same
// at two seeds, to the message. The queue lock of lock-chan4 is the one
// exception (see racyQueueLock).
func TestCountsDoNotDependOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := countMessages(w, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := countMessages(w, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.fails+b.fails != 0 {
			t.Errorf("%s: %d oracle failures in the fixed-count runs", w.name, a.fails+b.fails)
		}
		if w.name == racyQueueLock {
			a.sendsPerOp, a.bytesPerOp = b.sendsPerOp, b.bytesPerOp
		}
		a.msgP50US, b.msgP50US = 0, 0 // a latency, not a count
		if a != b {
			t.Errorf("%s: counts differ between seeds:\n  seed 1 %+v\n  seed 2 %+v", w.name, a, b)
		}
		if a.sendsPerOp <= 0 || a.sendsPerAlt <= 0 {
			t.Errorf("%s: no messages counted: %+v", w.name, a)
		}
	}
}

// TestFailedOracleFailsTheBlock corrupts the expected values: every
// operation must then be reported failed, not averaged into a time.
func TestFailedOracleFailsTheBlock(t *testing.T) {
	corruptOracle.Store(true)
	defer corruptOracle.Store(false)
	for _, w := range workloads {
		o := runBlocks(w, 1, smoke)
		if o.err != nil {
			t.Fatalf("%s: %v", w.name, o.err)
		}
		if o.attempted < 1 || o.failed != o.attempted {
			t.Errorf("%s: %d of %d operations failed with a wrong expectation, want all", w.name, o.failed, o.attempted)
		}
	}
}

func TestAbortFailsTheBlockInFlight(t *testing.T) {
	o := &outcome{op: newSeries(), alt: newSeries()}
	o.op.attempted, o.alt.attempted, o.alt.failed = 640, 320, 64
	o.inflight.Store(64)
	o.finish(workloads[0], errors.New("rank 2: crash during recv"))
	if o.attempted != 640+320+64 || o.failed != 64+64 {
		t.Errorf("after an abort: %d attempted, %d failed; want the 64 in flight added to both", o.attempted, o.failed)
	}
	if o.err == nil || !strings.Contains(o.err.Error(), workloads[0].name) {
		t.Errorf("abort error %v does not name the workload", o.err)
	}
}

// TestTracedRunEmitsEveryLayerMetric checks the traced run against
// BENCHMARK.json on the cheapest workload: every per-layer name, in order,
// with its unit, and a span file a reader can follow.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	w := findWorkload("lock-chan4")
	ms, attempted, failed, err := runTraced(w, 1, phases{warm: smoke.warm, timed: 600 * time.Millisecond}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if attempted < 1 || failed != 0 {
		t.Errorf("%d of %d operations failed", failed, attempted)
	}
	if len(ms) != len(c.PerLayer) {
		t.Fatalf("%d per-layer metrics, BENCHMARK.json has %d", len(ms), len(c.PerLayer))
	}
	for i, m := range ms {
		if want := c.PerLayer[i]; m.name != want.Name || m.Unit != want.Unit {
			t.Errorf("metric %d is %s [%s], BENCHMARK.json has %s [%s]", i, m.name, m.Unit, want.Name, want.Unit)
		}
		if !nameRE.MatchString(m.name) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v: bad name or not a number", m.name, m.Value)
		}
	}
}

func TestSpansNestAndInheritTheirOperation(t *testing.T) {
	r := newRecorder(8)
	r.on = true
	op := r.begin()
	put := r.begin()
	r.end(spanPut, put, 0)
	r.end(spanOp, op, 7)
	r.on = false
	if h := r.begin(); h != -1 {
		t.Errorf("recorder switched off still opened span %d", h)
	}
	if len(r.spans) != 2 || r.spans[1].parent != 0 || r.spans[0].parent != -1 {
		t.Fatalf("spans %+v: want the put inside the op", r.spans)
	}
	if d := r.durationsUS(spanPut); len(d) != 1 || d[0] < 0 {
		t.Errorf("put durations %v", d)
	}
	var nilRec *recorder
	nilRec.end(spanOp, nilRec.begin(), 1) // the untraced run's path: must not panic
}
