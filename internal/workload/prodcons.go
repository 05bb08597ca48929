package workload

import (
	"bytes"

	"armci"
)

// prodConsBody is the notify/wait chain workload: ranks form a pipeline
// 0 → 1 → ... → n-1 with sp.Depth items in flight. For each item, a
// rank first consumes from its left neighbor — WaitFlag on the item's
// own flag cell, then a byte-exact check of every chunk — and then
// produces the item for its right neighbor: sp.Chunks-1 chunks via
// NbPut and the last chunk via PutFlag, which orders the flag strictly
// after the data on the destination's FIFO pipe. Per-item flag cells
// (not one rolling counter) let the head of the chain run arbitrarily
// far ahead without a value being overwritten under a spinning
// consumer. Outstanding NbPut handles are collected by one WaitAll
// before the closing sync.
//
// Oracle: flag-ordering / no-stale-read. The payload expected at rank r
// is a pure function of (item, chunk, r) — each hop adds one to every
// byte, so what a rank forwards equals what it verified plus one — and
// a flag that arrives before its data exposes stale bytes that match no
// hop count.
func prodConsBody(sp Spec, cfg Config) func(*armci.Proc) {
	sy, _ := SyncNamed(cfg.Sync)
	return func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		chunks, nbytes, depth := sp.Chunks, sp.Bytes, sp.Depth
		buf := p.Malloc(depth * chunks * nbytes)
		flags := p.MallocWords(depth)
		sy.Proc(p)

		off := func(t, k int) int64 { return int64((t*chunks + k) * nbytes) }
		var hs []*armci.Handle
		for t := 0; t < depth; t++ {
			if me > 0 {
				p.WaitFlag(flags[me].Add(int64(t)), int64(t+1))
				for k := 0; k < chunks; k++ {
					got := p.Get(buf[me].Add(off(t, k)), nbytes)
					if want := pcChunk(t, k, me, nbytes); !bytes.Equal(got, want) {
						cfg.reportf("prodcons: rank %d item %d chunk %d is stale (notify flag arrived before its data)",
							me, t, k)
						break
					}
				}
			}
			if me < n-1 {
				next := me + 1
				if cfg.Hazards.FlagBeforeData {
					// BUG: the flag is published with a plain word store
					// issued before the data. The store travels the control
					// pipe while the puts travel the server pipe, so the
					// consumer's WaitFlag wakes while the chunks are still in
					// flight and it reads whatever the slot held before.
					p.Store(flags[next].Add(int64(t)), int64(t+1))
					for k := 0; k < chunks; k++ {
						hs = append(hs, p.NbPut(buf[next].Add(off(t, k)), pcChunk(t, k, next, nbytes)))
					}
				} else {
					for k := 0; k < chunks-1; k++ {
						hs = append(hs, p.NbPut(buf[next].Add(off(t, k)), pcChunk(t, k, next, nbytes)))
					}
					p.PutFlag(buf[next].Add(off(t, chunks-1)), pcChunk(t, chunks-1, next, nbytes),
						flags[next].Add(int64(t)), int64(t+1))
				}
			}
		}
		p.WaitAll(hs...)
		sy.Proc(p)
	}
}

// pcChunk is the payload expected at rank dst for chunk k of item t:
// the base pattern plus dst, one added per hop of the chain.
func pcChunk(t, k, dst, nbytes int) []byte {
	b := make([]byte, nbytes)
	for i := range b {
		b[i] = byte(t*193 + k*41 + i + dst)
	}
	return b
}
