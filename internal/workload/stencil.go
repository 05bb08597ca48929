package workload

import (
	"math"

	"armci"
	"armci/ga"
)

// stencilBody is the halo-exchange workload: Jacobi-style sweeps over a
// pair of ga 2-D block-distributed arrays. Each step, every rank pulls
// its block plus a halo of width sp.Halo (clamped at the grid edges —
// the patch legitimately spans neighbor blocks, and with a halo wider
// than the tile it spans several), applies the shared cross-neighbor
// update rule, and puts the result into the other array; the arrays
// swap roles each step and every write round is closed by the case's
// sync variant through ga's SyncMode.
//
// Oracle: the whole computation is replayed sequentially (stencilModel)
// and each rank compares its final block cell-exactly — values are
// integer-valued floats wrapped at 2^20, so float64 arithmetic is exact
// and any halo cell fetched stale or put astray shows up. Rank 0
// additionally checks the global boundary checksum, the classic
// aggregate that catches edge-clamping bugs even when interior cells
// agree.
func stencilBody(sp Spec, cfg Config) func(*armci.Proc) {
	rows, cols, halo, steps := sp.Rows, sp.Cols, sp.Halo, sp.Steps
	sy, _ := SyncNamed(cfg.Sync)
	return func(p *armci.Proc) {
		me := p.Rank()
		a, err := ga.Create(p, "wl-stencil-a", rows, cols)
		if err != nil {
			cfg.reportf("stencil: create a: %v", err)
			return
		}
		b, err := ga.Create(p, "wl-stencil-b", rows, cols)
		if err != nil {
			cfg.reportf("stencil: create b: %v", err)
			return
		}
		a.SetSyncMode(sy.GA)
		b.SetSyncMode(sy.GA)

		rlo, rhi, clo, chi := a.Distribution(me)
		// Degenerate shapes (1×N under a 2-D grid) leave some ranks with
		// empty blocks; they skip compute but join every collective.
		empty := rlo >= rhi || clo >= chi
		bw := chi - clo
		if !empty {
			buf := make([]float64, (rhi-rlo)*bw)
			for r := rlo; r < rhi; r++ {
				for c := clo; c < chi; c++ {
					buf[(r-rlo)*bw+(c-clo)] = stencilInit(r, c, cols)
				}
			}
			a.Put(rlo, rhi, clo, chi, buf)
		}
		a.Sync()

		cur, nxt := a, b
		for s := 0; s < steps; s++ {
			if !empty {
				prlo, prhi := max(0, rlo-halo), min(rows, rhi+halo)
				pclo, pchi := max(0, clo-halo), min(cols, chi+halo)
				patch := cur.Get(prlo, prhi, pclo, pchi)
				pw := pchi - pclo
				at := func(r, c int) float64 {
					if r < prlo || r >= prhi || c < pclo || c >= pchi {
						return 0
					}
					return patch[(r-prlo)*pw+(c-pclo)]
				}
				out := make([]float64, (rhi-rlo)*bw)
				for r := rlo; r < rhi; r++ {
					for c := clo; c < chi; c++ {
						out[(r-rlo)*bw+(c-clo)] = stencilCell(at, r, c, halo)
					}
				}
				nxt.Put(rlo, rhi, clo, chi, out)
			}
			nxt.Sync()
			cur, nxt = nxt, cur
		}

		model := stencilModel(rows, cols, halo, steps)
		if !empty {
			got := cur.Get(rlo, rhi, clo, chi)
		verify:
			for r := rlo; r < rhi; r++ {
				for c := clo; c < chi; c++ {
					if g, w := got[(r-rlo)*bw+(c-clo)], model[r*cols+c]; g != w {
						cfg.reportf("stencil: rank %d cell (%d,%d) = %v after %d steps, want %v (halo exchange corrupted the block)",
							me, r, c, g, steps, w)
						break verify
					}
				}
			}
		}
		if me == 0 {
			full := cur.Get(0, rows, 0, cols)
			var got, want float64
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					if r == 0 || r == rows-1 || c == 0 || c == cols-1 {
						got += full[r*cols+c]
						want += model[r*cols+c]
					}
				}
			}
			if got != want {
				cfg.reportf("stencil: boundary checksum = %v, want %v (edge clamping or halo width handled wrong)", got, want)
			}
		}
		cur.Sync()
	}
}

// stencilInit is the initial grid value at (r, c): small positive
// integers, so sums stay integer-valued.
func stencilInit(r, c, cols int) float64 { return float64((r*cols+c)%251 + 1) }

// stencilCell is the shared update rule — center plus the four
// cross-neighbor arms out to distance halo, out-of-grid cells reading
// zero. Values wrap at 2^20 (math.Mod is exact on integer-valued
// floats), so any step count stays exactly representable in float64.
// Both the distributed sweep and the sequential replay call this, so a
// mismatch can only come from the communication layer.
func stencilCell(at func(r, c int) float64, r, c, halo int) float64 {
	v := at(r, c)
	for d := 1; d <= halo; d++ {
		v += at(r-d, c) + at(r+d, c) + at(r, c-d) + at(r, c+d)
	}
	return math.Mod(v, 1<<20)
}

// stencilModel replays the whole computation sequentially.
func stencilModel(rows, cols, halo, steps int) []float64 {
	cur := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cur[r*cols+c] = stencilInit(r, c, cols)
		}
	}
	nxt := make([]float64, rows*cols)
	for s := 0; s < steps; s++ {
		at := func(r, c int) float64 {
			if r < 0 || r >= rows || c < 0 || c >= cols {
				return 0
			}
			return cur[r*cols+c]
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				nxt[r*cols+c] = stencilCell(at, r, c, halo)
			}
		}
		cur, nxt = nxt, cur
	}
	return cur
}
