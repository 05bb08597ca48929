package shmem

import "fmt"

// Batch applies a sequence of writes to one rank's memory in one critical
// section (Space.Apply): the writes of one run become visible together,
// and the write hook fires once per maximal run of contiguous cells they
// wrote rather than once per write. A caller keeps one Batch and applies
// every run through it, so a warm apply allocates nothing.
type Batch struct {
	r    *rankMem
	rank int32

	// written holds the regions written so far, in write order; a write
	// that starts where the last region ends extends it.
	written []Cells
}

// Apply runs fn holding rank's lock, with b bound to rank's memory: every
// write fn makes through b lands in this one critical section. After the
// lock is released, the write hook fires once per region b recorded.
// fn must not call back into the Space: the rank's lock is held.
func (s *Space) Apply(b *Batch, rank int, fn func(b *Batch)) {
	b.written = b.written[:0]
	s.locked(int32(rank), func(r *rankMem) {
		b.r, b.rank = r, int32(rank)
		fn(b)
	})
	for _, c := range b.written {
		s.notify(c.P, c.N)
	}
}

// Put copies data into memory at p, one of the bound rank's pointers.
func (b *Batch) Put(p Ptr, data []byte) {
	b.check(p).put(p, data)
	b.wrote(p, int64(len(data)))
}

// Accumulate performs dst += scale*src elementwise at p, as
// Space.Accumulate does.
func (b *Batch) Accumulate(op AccOp, p Ptr, data []byte, scale float64) {
	b.check(p).accumulate(op, p, data, scale)
	b.wrote(p, int64(len(data)))
}

// Store writes v to the cell at p.
func (b *Batch) Store(p Ptr, v int64) {
	b.check(p).store(p, v)
	b.wrote(p, 1)
}

// check returns the bound rank's memory, panicking when p points into
// another rank's: that rank's lock is not held.
func (b *Batch) check(p Ptr) *rankMem {
	if p.Rank != b.rank {
		panic(fmt.Sprintf("shmem: batch bound to rank %d writes %v", b.rank, p))
	}
	return b.r
}

// wrote records a write of n cells from p for the hook, extending the
// last region when the write continues it.
func (b *Batch) wrote(p Ptr, n int64) {
	if k := len(b.written) - 1; k >= 0 {
		last := &b.written[k]
		if last.P.Kind == p.Kind && last.P.Seg == p.Seg && last.P.Off+last.N == p.Off {
			last.N += n
			return
		}
	}
	b.written = append(b.written, Cells{p, n})
}
