package workload

import (
	"encoding/binary"
	"sync"

	"armci"
)

// paramServerBody is the hot-variable accumulate workload (the
// SynCron-style parameter-server shape): every rank streams sp.Updates
// integer update vectors into the hot rank's sp.Width-word parameter
// region — even updates with blocking Accumulate, odd ones with NbAcc
// whose handles are collected by one WaitAll — so the server's atomic
// accumulate path runs under full n-way contention, coalesced or not.
// A rank's vectors are a pure function of (update, rank, cell), so it
// encodes them on its first solve and every later solve sends those same
// bytes; one built body serves any number of ranks (the harness runs one
// on every rank), each with its own vectors. Shared memory is never
// freed, so the parameter region is allocated by a rank's first solve of
// a run and reused by the later ones, whose hot rank first zeroes the
// accumulator in its own memory, with no message.
//
// Oracle: accumulate-sum exactness. The deltas are integer-valued, so
// addition is commutative and exact regardless of arrival order: after
// the closing sync, every rank fetches the hot region and compares each
// cell with the closed-form total of every rank's deltas (psTotal), and
// any interleaving that lost an update is unambiguous.
func paramServerBody(sp Spec, cfg Config) func(*armci.Proc) {
	sy, _ := SyncNamed(cfg.Sync)
	updates, width := sp.Updates, sp.Width
	// A rank's parameter region, with the Proc that allocated it, and on
	// the hot rank a zero vector. It is kept by rank and reused only by
	// that Proc: a new run's Procs are new, and every rank of a run makes
	// the same choice, so Malloc stays collective. The entry holds its
	// Proc, whose address therefore cannot be reused.
	type region struct {
		p      *armci.Proc
		params []armci.Ptr
		zero   []byte
	}
	var (
		mu      sync.Mutex
		vecs    = map[int][][]byte{} // rank → its encoded update vectors
		regions = map[int]region{}
	)
	vectorsOf := func(rank int) [][]byte {
		mu.Lock()
		defer mu.Unlock()
		v, ok := vecs[rank]
		if !ok {
			v = psVectors(rank, updates, width)
			vecs[rank] = v
		}
		return v
	}
	return func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		hot := sp.Hot
		if hot >= n {
			hot = 0 // defensive; check.validateCase rejects this earlier
		}
		mu.Lock()
		r, ok := regions[me]
		mu.Unlock()
		if ok && r.p == p {
			if me == hot {
				p.Put(r.params[hot], r.zero) // the rank's own memory
			}
		} else {
			r = region{p: p, params: p.Malloc(8 * width)}
			if me == hot {
				r.zero = make([]byte, 8*width)
			}
			mu.Lock()
			regions[me] = r
			mu.Unlock()
		}
		params := r.params
		sy.Proc(p)

		if cfg.Hazards.AccLostUpdate {
			// BUG: a non-atomic read-modify-write instead of the atomic
			// Accumulate — two ranks that interleave their Get/Put pairs
			// on the same cell lose one of the updates.
			for u := 0; u < updates; u++ {
				for i := 0; i < width; i++ {
					cell := params[hot].Add(int64(8 * i))
					v := int64(binary.LittleEndian.Uint64(p.Get(cell, 8)))
					p.Put(cell, leWords([]int64{v + psDelta(u, me, i)}))
				}
			}
		} else {
			d := armci.Contig(8 * width)
			hs := make([]*armci.Handle, 0, updates/2)
			for u, data := range vectorsOf(me) {
				if u%2 == 1 {
					hs = append(hs, p.NbAcc(armci.AccInt64, params[hot], data, 1))
				} else {
					p.Accumulate(armci.AccInt64, params[hot], d, data, 1)
				}
			}
			p.WaitAll(hs...)
		}
		sy.Proc(p)

		got := p.Get(params[hot], 8*width)
		for i := 0; i < width; i++ {
			if g, want := int64(binary.LittleEndian.Uint64(got[8*i:])), psTotal(n, updates, i); g != want {
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

// psVectors encodes rank's updates: vector u is width AccInt64 words,
// word i being psDelta(u, rank, i). The vectors share one buffer, each
// capped at its own length.
func psVectors(rank, updates, width int) [][]byte {
	buf := make([]byte, 8*updates*width)
	vs := make([][]byte, updates)
	for u := range vs {
		v := buf[8*u*width : 8*(u+1)*width : 8*(u+1)*width]
		for i := 0; i < width; i++ {
			binary.LittleEndian.PutUint64(v[8*i:], uint64(psDelta(u, rank, i)))
		}
		vs[u] = v
	}
	return vs
}

// psTotal is what cell i holds once every one of ranks ranks has applied
// its updates: the sum over r < ranks and u < updates of psDelta(u, r, i),
// in closed form.
func psTotal(ranks, updates, i int) int64 {
	n, u := int64(ranks), int64(updates)
	return 977*n*(u*(u-1)/2) + 31*u*(n*(n-1)/2) + n*u*int64(i+1)
}
