package workload

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"armci"
)

// TestPSTotalIsTheSum: the oracle's closed form equals the brute-force
// sum of psDelta over every rank and update, at the grammar's bounds
// (ranks 1…4096, updates 1…1024, width 1…512) and a few points between.
func TestPSTotalIsTheSum(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 4, 17, 4096} {
		for _, updates := range []int{1, 2, 3, 64, 1024} {
			for _, i := range []int{0, 1, 63, 511} {
				var want int64
				for r := 0; r < ranks; r++ {
					for u := 0; u < updates; u++ {
						want += psDelta(u, r, i)
					}
				}
				if got := psTotal(ranks, updates, i); got != want {
					t.Errorf("psTotal(%d, %d, %d) = %d, want %d", ranks, updates, i, got, want)
				}
			}
		}
	}
}

// solveMallocs runs one body built from spec on 4 chan ranks: a warm-up
// solve, then solves more, and returns the process's heap allocations
// per solve (all ranks together) and the oracle's reports.
func solveMallocs(t *testing.T, spec string, solves int) (float64, []string) {
	t.Helper()
	sp, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var reports []string
	body := Build(sp, Config{Report: func(format string, args ...any) {
		mu.Lock()
		reports = append(reports, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	var before, after runtime.MemStats
	_, err = armci.Run(armci.Options{Procs: 4, Fabric: armci.FabricChan}, func(p *armci.Proc) {
		body(p)
		p.Barrier()
		if p.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		p.Barrier()
		for i := 0; i < solves; i++ {
			body(p)
		}
		p.Barrier()
		if p.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(solves), reports
}

// TestParamServerSolveAllocations: a warm solve's allocations do not grow
// with its updates. A rank encodes its vectors once, and the solve's
// descriptor and handle slice are made once per solve, so what still
// grows with updates is the messages' and handles' amortized chunks,
// under a quarter of an allocation per update and rank (about 0.13).
// Building the vectors every solve cost 3.2 per update and rank. The same body
// serves all four ranks and every solve, with the oracle silent.
func TestParamServerSolveAllocations(t *testing.T) {
	const ranks, solves = 4, 16
	few, r1 := solveMallocs(t, "paramserver:hot=0,updates=8,width=64", solves)
	many, r2 := solveMallocs(t, "paramserver:hot=0,updates=64,width=64", solves)
	t.Logf("allocations per solve on %d ranks: %.1f at 8 updates, %.1f at 64", ranks, few, many)
	if reports := append(r1, r2...); len(reports) > 0 {
		t.Errorf("%d oracle reports, first: %s", len(reports), reports[0])
	}
	if perUpdate := (many - few) / ((64 - 8) * ranks); perUpdate >= 0.25 {
		t.Errorf("a solve's allocations grow by %.2f per update and rank (%.1f at 8 updates, %.1f at 64), want < 0.25",
			perUpdate, few, many)
	}
}

// BenchmarkParamServerSolve is one solve of the benchmark's parameter
// server (hot=0, updates=64, width=64) on 4 chan ranks: the accumulate
// storm, its WaitAll and the oracle.
func BenchmarkParamServerSolve(b *testing.B) {
	benchSolve(b, "paramserver:hot=0,updates=64,width=64")
}

// benchSolve times one solve of the body built from spec on 4 chan
// ranks, after a warm-up solve, with the allocations of every rank
// counted per solve.
func benchSolve(b *testing.B, spec string) {
	sp, err := Parse(spec)
	if err != nil {
		b.Fatal(err)
	}
	body := Build(sp, Config{})
	b.ReportAllocs()
	b.StopTimer()
	_, err = armci.Run(armci.Options{Procs: 4, Fabric: armci.FabricChan}, func(p *armci.Proc) {
		body(p)
		p.Barrier()
		if p.Rank() == 0 {
			b.StartTimer()
		}
		for i := 0; i < b.N; i++ {
			body(p)
		}
		p.Barrier()
		if p.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestLaterSolvesReuseTheRegion: a body's later solves in one run
// allocate no shared memory, and the reused region looks fresh to the
// oracle — the hot rank zeroed its accumulator, or every later solve
// would read twice the total. A probe segment allocated after each solve
// gets the next segment number only when the solve allocated none.
func TestLaterSolvesReuseTheRegion(t *testing.T) {
	const ranks, solves = 4, 3
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan} {
		t.Run(fabric.String(), func(t *testing.T) {
			sp, err := Parse("paramserver:hot=1,updates=4,width=8")
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var reports []string
			body := Build(sp, Config{Report: func(format string, args ...any) {
				mu.Lock()
				reports = append(reports, fmt.Sprintf(format, args...))
				mu.Unlock()
			}})
			var segs [ranks][]int32 // each rank's, written by it alone
			_, err = armci.Run(armci.Options{Procs: ranks, Fabric: fabric}, func(p *armci.Proc) {
				me := p.Rank()
				for range solves {
					body(p)
					segs[me] = append(segs[me], p.Env().Space().AllocBytes(me, 8).Seg)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) > 0 {
				t.Fatalf("%d oracle reports over %d solves, first: %s", len(reports), solves, reports[0])
			}
			for r, s := range segs {
				for i := 1; i < solves; i++ {
					if s[i] != s[i-1]+1 {
						t.Errorf("rank %d: probe segments %v: solve %d allocated shared memory", r, s, i+1)
					}
				}
			}
		})
	}
}
