package bench

import (
	"reflect"
	"testing"
)

// TestElasticExperiment runs the elastic-recovery experiment at its
// default shape and checks the structure of the result: replication
// costs something (the overhead metric is meaningful), recovery has a
// positive span, and determinism holds across a repeat — these are the
// numbers the baseline gate tracks.
func TestElasticExperiment(t *testing.T) {
	r, err := Elastic(Opts{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base, repl := r.Float(0, "base_us"), r.Float(0, "repl_us"); base <= 0 || repl <= base {
		t.Errorf("replication must cost something: base %.1fus, replicated %.1fus", base, repl)
	}
	if pct := r.Float(0, "overhead_pct"); pct <= 0 {
		t.Errorf("overhead = %.2f%%, want positive", pct)
	}
	if rec := r.Float(0, "recovery_us"); rec <= 0 {
		t.Errorf("recovery span = %.1fus, want positive", rec)
	}
	again, err := Elastic(Opts{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Rows, r.Rows) {
		t.Errorf("experiment not deterministic:\nfirst  %v\nsecond %v", r.Rows, again.Rows)
	}
}
