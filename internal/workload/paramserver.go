package workload

import (
	"encoding/binary"

	"armci"
)

// paramServerBody is the hot-variable accumulate workload (the
// SynCron-style parameter-server shape): every rank streams sp.Updates
// integer update vectors into the hot rank's sp.Width-word parameter
// region — even updates with blocking Accumulate, odd ones with NbAcc
// whose handles are collected by one WaitAll — so the server's atomic
// accumulate path runs under full n-way contention, coalesced or not.
//
// Oracle: accumulate-sum exactness. The deltas are pure functions of
// (update, rank, cell) and integer-valued, so addition is commutative
// and exact regardless of arrival order: after the closing sync, every
// rank fetches the hot region, independently recomputes the expected
// total of every cell, and any interleaving that lost an update is
// unambiguous.
func paramServerBody(sp Spec, cfg Config) func(*armci.Proc) {
	sy, _ := SyncNamed(cfg.Sync)
	return func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		hot, updates, width := sp.Hot, sp.Updates, sp.Width
		if hot >= n {
			hot = 0 // defensive; check.validateCase rejects this earlier
		}
		params := p.Malloc(8 * width)
		sy.Proc(p)

		var hs []*armci.Handle
		for u := 0; u < updates; u++ {
			delta := make([]int64, width)
			for i := range delta {
				delta[i] = psDelta(u, me, i)
			}
			if cfg.Hazards.AccLostUpdate {
				// BUG: a non-atomic read-modify-write instead of the atomic
				// Accumulate — two ranks that interleave their Get/Put pairs
				// on the same cell lose one of the updates.
				for i, d := range delta {
					cell := params[hot].Add(int64(8 * i))
					v := int64(binary.LittleEndian.Uint64(p.Get(cell, 8)))
					p.Put(cell, leWords([]int64{v + d}))
				}
				continue
			}
			data := leWords(delta)
			if u%2 == 1 {
				hs = append(hs, p.NbAcc(armci.AccInt64, params[hot], data, 1))
			} else {
				p.Accumulate(armci.AccInt64, params[hot], armci.Contig(len(data)), data, 1)
			}
		}
		p.WaitAll(hs...)
		sy.Proc(p)

		got := p.Get(params[hot], 8*width)
		for i := 0; i < width; i++ {
			var want int64
			for r := 0; r < n; r++ {
				for u := 0; u < updates; u++ {
					want += psDelta(u, r, i)
				}
			}
			if g := int64(binary.LittleEndian.Uint64(got[8*i:])); g != want {
				cfg.reportf("paramserver: rank %d read hot cell %d = %d, want %d (an accumulate was lost)",
					me, i, g, want)
				break
			}
		}
		sy.Proc(p)
	}
}

// psDelta is the update rank contributes to cell i on update u — unique
// per (update, rank, cell) so a lost or doubled accumulate is
// unambiguous, and small enough that totals stay far below 2^53.
func psDelta(u, rank, i int) int64 { return int64(u*977 + rank*31 + i + 1) }
