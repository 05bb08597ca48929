package bench

import (
	"reflect"
	"testing"
)

// TestSmallPutCoalescingSpeedup is the structural gate on the tentpole
// win: packing the small-put stream into batched frames must at least
// double sustained throughput on the calibrated network, because the
// destination server's fixed per-message service cost is paid once per
// frame instead of once per put. The measured ratio is also a metric of
// the committed baseline (smallput/ratio_pct), which
// TestBaselineRoundTripAndGate holds exactly, and smallPutFloor keeps a
// baseline below 2x from being written.
func TestSmallPutCoalescingSpeedup(t *testing.T) {
	r, err := SmallPut(Opts{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("uncoalesced %.1fus (%.0f ops/sec), coalesced %.1fus (%.0f ops/sec)", r.Float(0, "uncoalesced_us"),
		r.Float(0, "uncoalesced_ops"), r.Float(0, "coalesced_us"), r.Float(0, "coalesced_ops"))
	if f := r.Float(0, "factor"); f < 2 || smallPutFloor(r) != nil {
		t.Fatalf("coalescing speedup %.2fx, want >= 2x (the gate's floor says %v)", f, smallPutFloor(r))
	}
}

// TestSmallPutDeterministic pins the virtual-time measurement: the sim
// fabric must yield identical numbers across runs, or the baseline
// metrics are not comparable.
func TestSmallPutDeterministic(t *testing.T) {
	a, err := SmallPut(Opts{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SmallPut(Opts{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("smallput not deterministic: run 1 %v vs run 2 %v", a.Rows, b.Rows)
	}
}
