package shmem

import (
	"fmt"
	"slices"
)

// MaxStrideLevels bounds the nesting depth of a strided transfer, matching
// ARMCI's ARMCI_MAX_STRIDE_LEVEL.
const MaxStrideLevels = 8

// Strided describes an ARMCI-style non-contiguous memory region relative
// to a base pointer:
//
//	Count[0]            bytes in each innermost contiguous run
//	Count[l], l >= 1    number of blocks at level l
//	Stride[l-1]         distance in bytes between the starts of
//	                    consecutive level-l blocks
//
// A 2-D sub-matrix of w-byte rows inside an array with a leading dimension
// of ld bytes is Strided{Count: []int{w, rows}, Stride: []int64{ld}}.
// A nil or zero-level descriptor denotes a contiguous run of Count[0]
// bytes.
type Strided struct {
	Count  []int
	Stride []int64
}

// Contig returns the descriptor of a contiguous n-byte run.
func Contig(n int) Strided { return Strided{Count: []int{n}} }

// IsZero reports whether d is the zero descriptor, which a contiguous
// transfer travels with: its length is the payload's, or the request's.
func (d Strided) IsZero() bool { return len(d.Count) == 0 }

// Levels returns the number of stride levels.
func (d Strided) Levels() int { return len(d.Stride) }

// Validate reports a descriptive error if the descriptor is malformed.
func (d Strided) Validate() error {
	if len(d.Count) == 0 {
		return fmt.Errorf("shmem: strided descriptor has empty count vector")
	}
	if len(d.Count) != len(d.Stride)+1 {
		return fmt.Errorf("shmem: strided descriptor has %d counts for %d stride levels (want levels+1)",
			len(d.Count), len(d.Stride))
	}
	if len(d.Stride) > MaxStrideLevels {
		return fmt.Errorf("shmem: %d stride levels exceeds maximum %d", len(d.Stride), MaxStrideLevels)
	}
	for i, c := range d.Count {
		if c <= 0 {
			return fmt.Errorf("shmem: strided count[%d] = %d must be positive", i, c)
		}
	}
	return nil
}

// TotalBytes returns the number of payload bytes the descriptor covers.
func (d Strided) TotalBytes() int {
	if len(d.Count) == 0 {
		return 0
	}
	n := d.Count[0]
	for _, c := range d.Count[1:] {
		n *= c
	}
	return n
}

// EachRun invokes fn once per contiguous run, passing the byte offset of
// the run relative to the base pointer and the run length. Runs are
// visited in ascending level order (innermost first), which matches the
// order a flattened payload buffer is packed in.
func (d Strided) EachRun(fn func(off int64, n int)) {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	levels := d.Levels()
	if levels == 0 {
		fn(0, d.Count[0])
		return
	}
	var odo [MaxStrideLevels]int
	idx := odo[:levels] // idx[l] counts blocks at level l+1; Validate bounds levels
	for {
		var off int64
		for l := 0; l < levels; l++ {
			off += int64(idx[l]) * d.Stride[l]
		}
		fn(off, d.Count[0])
		// Odometer increment over Count[1..levels].
		l := 0
		for ; l < levels; l++ {
			idx[l]++
			if idx[l] < d.Count[l+1] {
				break
			}
			idx[l] = 0
		}
		if l == levels {
			return
		}
	}
}

// AppendGet appends the n bytes of the region d at src to dst, packed in
// EachRun order, and returns the extended slice; the zero d is the
// contiguous run of n bytes at src. A dst with room for n more bytes is
// filled in place, so a caller that keeps its buffer — a get's reply
// payload, a strided get's destination — reads without allocating.
func (s *Space) AppendGet(dst []byte, src Ptr, d Strided, n int) []byte {
	dst = slices.Grow(dst, n)
	r := &s.ranks[src.Rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	if d.IsZero() {
		return append(dst, r.bytesAt(src, int64(n))...)
	}
	d.EachRun(func(off int64, k int) {
		dst = append(dst, r.bytesAt(src.Add(off), int64(k))...)
	})
	return dst
}

// UnpackTo scatters the flat buffer data into the region described by d at
// base dst. It is the destination-side operation of a strided put.
func (s *Space) UnpackTo(dst Ptr, d Strided, data []byte) {
	if want := d.TotalBytes(); want != len(data) {
		panic(fmt.Sprintf("shmem: strided unpack of %d bytes into descriptor covering %d", len(data), want))
	}
	var end int64 // the region's extent from dst, what the hook reports
	s.locked(dst.Rank, func(r *rankMem) {
		pos := 0
		d.EachRun(func(off int64, n int) {
			r.put(dst.Add(off), data[pos:pos+n])
			pos += n
			end = max(end, off+int64(n))
		})
	})
	s.notify(dst, end)
}

// AccumulateStrided atomically performs dst += scale*src elementwise over
// the strided region at dst, consuming the flat buffer data run by run.
func (s *Space) AccumulateStrided(op AccOp, dst Ptr, d Strided, data []byte, scale float64) {
	if want := d.TotalBytes(); want != len(data) {
		panic(fmt.Sprintf("shmem: strided accumulate of %d bytes into descriptor covering %d", len(data), want))
	}
	var end int64 // the region's extent from dst, what the hook reports
	s.locked(dst.Rank, func(r *rankMem) {
		pos := 0
		d.EachRun(func(off int64, n int) {
			r.accumulate(op, dst.Add(off), data[pos:pos+n], scale)
			pos += n
			end = max(end, off+int64(n))
		})
	})
	s.notify(dst, end)
}
