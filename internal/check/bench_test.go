package check

import (
	"testing"

	"armci"
)

// BenchmarkExploreCase measures one full conformance case — fabric
// setup, the two-phase workload, trace capture, every oracle — which is
// the unit the sweep repeats thousands of times. Its allocations grow
// with the run's records (about 990 for this case: sends, deliveries and
// steps), not with setup alone: they are dominated by the captured spine
// and the message path that feeds it, so a copy of the history per case
// shows here at once.
func BenchmarkExploreCase(b *testing.B) {
	b.ReportAllocs()
	c := Case{Fabric: armci.FabricSim, Alg: "queue", Seed: 1}
	for i := 0; i < b.N; i++ {
		if r := RunCase(c); !r.Passed() {
			b.Fatalf("baseline case failed: %+v", r)
		}
	}
}

// exploreCaseBytes is the ceiling on what one BenchmarkExploreCase case
// allocates: 10 % over the 342 KB it reads since the oracles read the
// recorded spine in place. It read 739 KB when each case copied its
// history as it grew and again for the oracles.
const exploreCaseBytes = 376_000

// TestExploreCaseBytesCeiling holds BenchmarkExploreCase under
// exploreCaseBytes a case.
func TestExploreCaseBytesCeiling(t *testing.T) {
	r := testing.Benchmark(BenchmarkExploreCase)
	if r.N == 0 {
		t.Fatal("BenchmarkExploreCase failed")
	}
	if got := r.AllocedBytesPerOp(); got > exploreCaseBytes {
		t.Fatalf("a conformance case allocates %d B, ceiling %d B (%d cases, %d allocs a case)",
			got, exploreCaseBytes, r.N, r.AllocsPerOp())
	}
}
