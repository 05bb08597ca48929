package ga_test

import (
	"testing"

	"armci"
	"armci/ga"
)

// TestHaloExchangeDegenerateShapes drives the halo-exchange access
// pattern — a clamped Get of each rank's block plus its halo ring, an
// update computed from the halo, and a Put of the block — over shapes
// where the block decomposition degenerates: single-row and
// single-column arrays, halos wider than the owning tile, a halo that
// spans the whole array, and grids with more ranks than rows so some
// blocks are empty. Every patch crossing multiple owners exercises ga's
// multi-block strided transfers at their boundary cases.
func TestHaloExchangeDegenerateShapes(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		procs, rows, cols, halo int
	}{
		{"1xN halo wider than tile", 6, 1, 9, 2},
		{"Nx1 halo wider than tile", 6, 9, 1, 3},
		{"1x1 array", 4, 1, 1, 2},
		{"halo spans whole array", 4, 3, 3, 4},
		{"more ranks than rows", 5, 2, 7, 1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			init := func(r, c int) float64 { return float64(r*tc.cols + c + 1) }
			// The update every rank applies to its cells: the sum of the
			// cell and its cross-neighbors to distance halo, clamped at the
			// array edge — exactly what the halo patch must supply.
			updated := func(r, c int) float64 {
				v := init(r, c)
				for d := 1; d <= tc.halo; d++ {
					if r-d >= 0 {
						v += init(r-d, c)
					}
					if r+d < tc.rows {
						v += init(r+d, c)
					}
					if c-d >= 0 {
						v += init(r, c-d)
					}
					if c+d < tc.cols {
						v += init(r, c+d)
					}
				}
				return v
			}
			runGA(t, tc.procs, func(p *armci.Proc) {
				a, err := ga.Create(p, "halo-src", tc.rows, tc.cols)
				if err != nil {
					panic(err)
				}
				b, err := ga.Create(p, "halo-dst", tc.rows, tc.cols)
				if err != nil {
					panic(err)
				}
				me := p.Rank()
				rlo, rhi, clo, chi := a.Distribution(me)
				empty := rlo >= rhi || clo >= chi
				if !empty {
					buf := make([]float64, (rhi-rlo)*(chi-clo))
					for r := rlo; r < rhi; r++ {
						for c := clo; c < chi; c++ {
							buf[(r-rlo)*(chi-clo)+(c-clo)] = init(r, c)
						}
					}
					a.Put(rlo, rhi, clo, chi, buf)
				}
				a.Sync()

				if !empty {
					// The halo patch, clamped at the array edge. With a halo
					// wider than the tile this spans several owners' blocks.
					hrlo, hrhi := max(0, rlo-tc.halo), min(tc.rows, rhi+tc.halo)
					hclo, hchi := max(0, clo-tc.halo), min(tc.cols, chi+tc.halo)
					patch := a.Get(hrlo, hrhi, hclo, hchi)
					at := func(r, c int) float64 {
						return patch[(r-hrlo)*(hchi-hclo)+(c-hclo)]
					}
					for r := hrlo; r < hrhi; r++ {
						for c := hclo; c < hchi; c++ {
							if got := at(r, c); got != init(r, c) {
								panic("halo patch cell is stale")
							}
						}
					}
					out := make([]float64, (rhi-rlo)*(chi-clo))
					for r := rlo; r < rhi; r++ {
						for c := clo; c < chi; c++ {
							v := at(r, c)
							for d := 1; d <= tc.halo; d++ {
								if r-d >= hrlo {
									v += at(r-d, c)
								}
								if r+d < hrhi {
									v += at(r+d, c)
								}
								if c-d >= hclo {
									v += at(r, c-d)
								}
								if c+d < hchi {
									v += at(r, c+d)
								}
							}
							out[(r-rlo)*(chi-clo)+(c-clo)] = v
						}
					}
					b.Put(rlo, rhi, clo, chi, out)
				}
				b.Sync()

				if me == 0 {
					got := b.Get(0, tc.rows, 0, tc.cols)
					for r := 0; r < tc.rows; r++ {
						for c := 0; c < tc.cols; c++ {
							if want := updated(r, c); got[r*tc.cols+c] != want {
								panic("updated cell diverged from the sequential model")
							}
						}
					}
				}
			})
		})
	}
}
