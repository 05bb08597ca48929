package workload

import (
	"sync"

	"armci"
	"armci/ga"
)

// stencilBody is the halo-exchange workload: Jacobi-style sweeps over a
// pair of ga 2-D block-distributed arrays. Each step, every rank pulls
// the cross-shaped halo of width sp.Halo its sweep reads (clamped at the
// grid edges — it legitimately spans neighbor blocks, and with a halo
// wider than the tile several): the band of its own columns reaching
// halo rows up and down, and the two arms of its own rows reaching halo
// columns left and right. They land in the patch rectangle the sweep
// takes, whose corners the cross never reads and so are never fetched
// (a cross stencil skips ghost corners, as in GA_Set_ghost_corner_flag).
// The rank applies the shared update rule and puts the result into the
// other array; the arrays swap roles each step and every write round is
// closed by the case's sync variant through ga's SyncMode. The patch and
// result buffers are made once per solve.
//
// Oracle: the whole computation is replayed sequentially (stencilModel)
// and each rank compares its final block cell-exactly — values are
// integer-valued floats wrapped at 2^20, so float64 arithmetic is exact
// and any halo cell fetched stale or put astray shows up. The expected
// grid is a pure function of the spec, so the replay runs once per built
// body, on first use, and every rank and every run of the body read that
// one copy. Rank 0 additionally checks the global boundary checksum, the
// classic aggregate that catches edge-clamping bugs even when interior
// cells agree.
func stencilBody(sp Spec, cfg Config) func(*armci.Proc) {
	rows, cols, halo, steps := sp.Rows, sp.Cols, sp.Halo, sp.Steps
	sy, _ := SyncNamed(cfg.Sync)
	replay := sync.OnceValue(func() []float64 { return stencilModel(rows, cols, halo, steps) })
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
		// A ga Put may reuse its buffer on return, so one block buffer
		// holds the initial values, every step's result and the final
		// read.
		prlo, prhi := max(0, rlo-halo), min(rows, rhi+halo)
		pclo, pchi := max(0, clo-halo), min(cols, chi+halo)
		var patch, out []float64
		if !empty {
			patch = make([]float64, (prhi-prlo)*(pchi-pclo))
			out = make([]float64, (rhi-rlo)*bw)
			for r := rlo; r < rhi; r++ {
				for c := clo; c < chi; c++ {
					out[(r-rlo)*bw+(c-clo)] = stencilInit(r, c, cols)
				}
			}
			a.Put(rlo, rhi, clo, chi, out)
		}
		a.Sync()

		cur, nxt := a, b
		for s := 0; s < steps; s++ {
			if !empty {
				fetchCross(cur, patch, prlo, prhi, pclo, pchi, rlo, rhi, clo, chi)
				stencilSweep(patch, prlo, prhi, pclo, pchi, out, rlo, rhi, clo, chi, halo)
				nxt.Put(rlo, rhi, clo, chi, out)
			}
			nxt.Sync()
			cur, nxt = nxt, cur
		}

		model := replay()
		if !empty {
			got := out
			cur.GetTo(rlo, rhi, clo, chi, got, bw)
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

// fetchCross reads into patch, the row-major rectangle rows
// [prlo,prhi) × cols [pclo,pchi), the cells of the block rows
// [rlo,rhi) × cols [clo,chi) and of its clamped halo that a cross
// stencil reads: the band of the block's columns over every patch row,
// then the arms of the block's rows left and right of it. The corners
// of the patch are not written.
func fetchCross(a *ga.Array, patch []float64, prlo, prhi, pclo, pchi, rlo, rhi, clo, chi int) {
	pw := pchi - pclo
	a.GetTo(prlo, prhi, clo, chi, patch[clo-pclo:], pw)
	arms := patch[(rlo-prlo)*pw:]
	if pclo < clo {
		a.GetTo(rlo, rhi, pclo, clo, arms, pw)
	}
	if chi < pchi {
		a.GetTo(rlo, rhi, chi, pchi, arms[chi-pclo:], pw)
	}
}

// stencilInit is the initial grid value at (r, c): small positive
// integers, so sums stay integer-valued.
func stencilInit(r, c, cols int) float64 { return float64((r*cols+c)%251 + 1) }

// stencilSweep is the shared update rule, applied to every cell of rows
// [r0,r1) × cols [c0,c1) and written row-major into dst: center plus the
// four cross-neighbor arms out to distance halo, read from src, the
// row-major patch rows [sr0,sr1) × cols [sc0,sc1). A neighbor outside
// the patch reads zero; callers pass a patch that reaches halo past the
// swept cells or the grid edge, so outside the patch means outside the
// grid. Only the cross through the swept cells is read: a patch cell
// both outside the swept rows and outside the swept columns never is.
// Every value is a non-negative integer below 65·2^20 < 2^27, so the
// float64 sums are exact and the wrap at 2^20 is a mask. Both the
// distributed sweep and the sequential replay call this, so a mismatch
// can only come from the communication layer.
func stencilSweep(src []float64, sr0, sr1, sc0, sc1 int, dst []float64, r0, r1, c0, c1, halo int) {
	sw, dw := sc1-sc0, c1-c0
	for r := r0; r < r1; r++ {
		out := dst[(r-r0)*dw : (r-r0+1)*dw]
		base := (r - sr0) * sw
		for c := c0; c < c1; c++ {
			i := base + c - sc0
			v := src[i]
			for d := 1; d <= halo; d++ {
				if r-d >= sr0 {
					v += src[i-d*sw]
				}
				if r+d < sr1 {
					v += src[i+d*sw]
				}
				if c-d >= sc0 {
					v += src[i-d]
				}
				if c+d < sc1 {
					v += src[i+d]
				}
			}
			out[c-c0] = float64(int64(v) & (1<<20 - 1))
		}
	}
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
		stencilSweep(cur, 0, rows, 0, cols, nxt, 0, rows, 0, cols, halo)
		cur, nxt = nxt, cur
	}
	return cur
}
