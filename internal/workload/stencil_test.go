package workload

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"armci"
	"armci/internal/msg"
)

// refCell is the update rule as first written, kept as the spec the
// sweep kernel is held to: center plus the four cross-neighbor arms out
// to distance halo, an out-of-grid cell reading zero through the
// accessor, wrapped at 2^20 with math.Mod.
func refCell(at func(r, c int) float64, r, c, halo int) float64 {
	v := at(r, c)
	for d := 1; d <= halo; d++ {
		v += at(r-d, c) + at(r+d, c) + at(r, c-d) + at(r, c+d)
	}
	return math.Mod(v, 1<<20)
}

// refStep applies refCell to every cell of a rows×cols grid.
func refStep(cur []float64, rows, cols, halo int) []float64 {
	at := func(r, c int) float64 {
		if r < 0 || r >= rows || c < 0 || c >= cols {
			return 0
		}
		return cur[r*cols+c]
	}
	nxt := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nxt[r*cols+c] = refCell(at, r, c, halo)
		}
	}
	return nxt
}

// refModel is the reference replay: stencilInit, then refStep applied
// steps times.
func refModel(rows, cols, halo, steps int) []float64 {
	cur := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cur[r*cols+c] = stencilInit(r, c, cols)
		}
	}
	for s := 0; s < steps; s++ {
		cur = refStep(cur, rows, cols, halo)
	}
	return cur
}

// TestStencilModelMatchesReference: the replay over the sweep kernel is
// bit-equal to the reference rule on every shape the grammar allows to
// be awkward, up to its maximum of 256×256, halo 16, 32 steps.
func TestStencilModelMatchesReference(t *testing.T) {
	for _, tc := range []struct{ rows, cols, halo, steps int }{
		{1, 9, 2, 3},       // 1×N
		{9, 1, 3, 4},       // N×1
		{12, 3, 2, 4},      // 12×3, halo 2
		{1, 9, 5, 3},       // halo wider than the tile and the grid
		{7, 200, 3, 32},    // long thin grid, every step the grammar allows
		{64, 64, 1, 8},     // the benchmark's solve
		{256, 256, 16, 32}, // the grammar's maximum
	} {
		name := fmt.Sprintf("%dx%d/h%d/s%d", tc.rows, tc.cols, tc.halo, tc.steps)
		got := stencilModel(tc.rows, tc.cols, tc.halo, tc.steps)
		want := refModel(tc.rows, tc.cols, tc.halo, tc.steps)
		if len(got) != len(want) {
			t.Errorf("%s: %d cells, want %d", name, len(got), len(want))
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: cell (%d,%d) = %v, want %v", name, i/tc.cols, i%tc.cols, got[i], want[i])
				break
			}
		}
	}
}

// TestStencilSweepClampedPatch: sweeping one block from its clamped halo
// patch, as a rank does, gives the same cells as a reference sweep of
// the whole grid — for every block of a 3×2 split, interior and edge.
func TestStencilSweepClampedPatch(t *testing.T) {
	const rows, cols, halo = 13, 10, 2
	grid := refModel(rows, cols, halo, 3)
	want := refStep(grid, rows, cols, halo)
	rs, cs := []int{0, 4, 9, 13}, []int{0, 5, 10}
	for gr := 0; gr+1 < len(rs); gr++ {
		for gc := 0; gc+1 < len(cs); gc++ {
			rlo, rhi, clo, chi := rs[gr], rs[gr+1], cs[gc], cs[gc+1]
			prlo, prhi := max(0, rlo-halo), min(rows, rhi+halo)
			pclo, pchi := max(0, clo-halo), min(cols, chi+halo)
			patch := make([]float64, 0, (prhi-prlo)*(pchi-pclo))
			for r := prlo; r < prhi; r++ {
				patch = append(patch, grid[r*cols+pclo:r*cols+pchi]...)
			}
			bw := chi - clo
			out := make([]float64, (rhi-rlo)*bw)
			stencilSweep(patch, prlo, prhi, pclo, pchi, out, rlo, rhi, clo, chi, halo)
			for r := rlo; r < rhi; r++ {
				for c := clo; c < chi; c++ {
					if g, w := out[(r-rlo)*bw+(c-clo)], want[r*cols+c]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("block [%d,%d)x[%d,%d): cell (%d,%d) = %v, want %v", rlo, rhi, clo, chi, r, c, g, w)
					}
				}
			}
		}
	}
}

// TestStencilSweepIgnoresCorners: the sweep never reads a patch cell
// outside both the swept rows and the swept columns, so NaN there gives
// bit-identical output for every block of TestStencilSweepClampedPatch's
// 3×2 split. That is why the body need not fetch the halo's corners.
func TestStencilSweepIgnoresCorners(t *testing.T) {
	const rows, cols, halo = 13, 10, 2
	grid := refModel(rows, cols, halo, 3)
	rs, cs := []int{0, 4, 9, 13}, []int{0, 5, 10}
	for gr := 0; gr+1 < len(rs); gr++ {
		for gc := 0; gc+1 < len(cs); gc++ {
			rlo, rhi, clo, chi := rs[gr], rs[gr+1], cs[gc], cs[gc+1]
			prlo, prhi := max(0, rlo-halo), min(rows, rhi+halo)
			pclo, pchi := max(0, clo-halo), min(cols, chi+halo)
			var patch, holed []float64
			for r := prlo; r < prhi; r++ {
				for c := pclo; c < pchi; c++ {
					v := grid[r*cols+c]
					patch = append(patch, v)
					if (r < rlo || r >= rhi) && (c < clo || c >= chi) {
						v = math.NaN()
					}
					holed = append(holed, v)
				}
			}
			want := make([]float64, (rhi-rlo)*(chi-clo))
			got := make([]float64, len(want))
			stencilSweep(patch, prlo, prhi, pclo, pchi, want, rlo, rhi, clo, chi, halo)
			stencilSweep(holed, prlo, prhi, pclo, pchi, got, rlo, rhi, clo, chi, halo)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("block [%d,%d)x[%d,%d): cell %d = %v with NaN corners, want %v", rlo, rhi, clo, chi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStencilFetchesNoCorner: the benchmark's 64×64 solve on 4 ranks (a
// 2×2 grid of 32×32 blocks, halo 1) sends exactly 67 gets. Each of the 8
// steps, every rank reads one row from the block above or below and one
// column from the block beside it; the 3 more are rank 0's read of the
// other blocks for the boundary checksum. Fetching the whole halo
// rectangle, corner block included, sent 99.
func TestStencilFetchesNoCorner(t *testing.T) {
	sp, err := Parse("stencil:rows=64,cols=64,halo=1,steps=8")
	if err != nil {
		t.Fatal(err)
	}
	var reports []string
	var mu sync.Mutex
	body := Build(sp, Config{Report: func(format string, args ...any) {
		mu.Lock()
		reports = append(reports, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	rep, err := armci.Run(armci.Options{Procs: 4, Fabric: armci.FabricChan}, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) > 0 {
		t.Errorf("%d oracle reports, first: %s", len(reports), reports[0])
	}
	if got := rep.Stats.Count(msg.KindGet); got != 67 {
		t.Errorf("%d gets per solve, want 67", got)
	}
}

// TestStencilSolveAllocations: a warm solve of the benchmark's stencil
// on 4 chan ranks stays under a ceiling of allocations. A rank makes its
// patch and result buffers once per solve and reuses each array's byte
// scratch for every piece it gets or puts; what is left per step is the
// pieces' strided descriptors, the messages and the barrier, about 233
// per solve. A fresh patch, result and byte slice per step and piece,
// as the body once made, cost about 705.
func TestStencilSolveAllocations(t *testing.T) {
	const ceiling = 300
	allocs, reports := solveMallocs(t, "stencil:rows=64,cols=64,halo=1,steps=8", 16)
	t.Logf("allocations per solve on 4 ranks: %.1f", allocs)
	if len(reports) > 0 {
		t.Errorf("%d oracle reports, first: %s", len(reports), reports[0])
	}
	if allocs > ceiling {
		t.Errorf("%.1f allocations per solve, want at most %d", allocs, ceiling)
	}
}

// TestStencilBodySharedAcrossRanks: one built body, its replay memo
// included, serves every rank of a concurrent run, twice on each rank,
// with the oracle silent. Under the race detector this is the check
// that the memo is safe to share.
func TestStencilBodySharedAcrossRanks(t *testing.T) {
	sp, err := Parse("stencil:rows=12,cols=10,halo=2,steps=3")
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
	_, err = armci.Run(armci.Options{Procs: 4, Fabric: armci.FabricChan}, func(p *armci.Proc) {
		body(p)
		body(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) > 0 {
		t.Errorf("%d oracle reports, first: %s", len(reports), reports[0])
	}
}

// BenchmarkStencilReplay is one replay of the benchmark's 64×64 solve:
// the oracle's cost, read without the benchmark driver.
func BenchmarkStencilReplay(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		stencilModel(64, 64, 1, 8)
	}
}

// BenchmarkStencilSolve is one solve of the benchmark's stencil (64×64,
// halo 1, 8 steps) on 4 chan ranks: the halo gets, the sweeps, the puts,
// the GA_Syncs and the oracle.
func BenchmarkStencilSolve(b *testing.B) {
	benchSolve(b, "stencil:rows=64,cols=64,halo=1,steps=8")
}
