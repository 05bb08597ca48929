package workload

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"armci"
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
