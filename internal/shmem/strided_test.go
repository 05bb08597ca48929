package shmem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestContigDescriptor(t *testing.T) {
	d := Contig(100)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Levels() != 0 || d.TotalBytes() != 100 {
		t.Fatalf("Contig descriptor wrong: %+v", d)
	}
	var runs [][2]int64
	d.EachRun(func(off int64, n int) { runs = append(runs, [2]int64{off, int64(n)}) })
	if len(runs) != 1 || runs[0] != [2]int64{0, 100} {
		t.Fatalf("runs = %v", runs)
	}
}

func TestTwoDimensionalRuns(t *testing.T) {
	// 3 rows of 8 bytes inside a 32-byte-wide matrix.
	d := Strided{Count: []int{8, 3}, Stride: []int64{32}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.TotalBytes() != 24 {
		t.Fatalf("totals wrong: %d bytes", d.TotalBytes())
	}
	var offs []int64
	d.EachRun(func(off int64, n int) {
		if n != 8 {
			t.Fatalf("run length %d", n)
		}
		offs = append(offs, off)
	})
	want := []int64{0, 32, 64}
	if !slices.Equal(offs, want) {
		t.Fatalf("offsets %v, want %v", offs, want)
	}
}

func TestThreeLevelRuns(t *testing.T) {
	// 2 planes of 3 rows of 4 bytes; rows 16 apart, planes 100 apart.
	d := Strided{Count: []int{4, 3, 2}, Stride: []int64{16, 100}}
	if d.TotalBytes() != 24 {
		t.Fatalf("totals wrong")
	}
	var offs []int64
	d.EachRun(func(off int64, n int) { offs = append(offs, off) })
	want := []int64{0, 16, 32, 100, 116, 132}
	if !slices.Equal(offs, want) {
		t.Fatalf("offsets %v, want %v", offs, want)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Strided{
		{},                                       // empty count
		{Count: []int{4, 2}},                     // counts without strides
		{Count: []int{0}},                        // zero count
		{Count: []int{4, 0}, Stride: []int64{8}}, // zero block count
		{Count: []int{4, -1}, Stride: []int64{8}},           // negative
		{Count: make([]int, 11), Stride: make([]int64, 10)}, // too deep
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: no error for %+v", i, d)
		}
	}
}

// TestPackUnpackStridedRoundTrip is the property test for the
// scatter/gather pair: unpacking a packed region reproduces it exactly,
// and bytes outside the region are never touched.
func TestPackUnpackStridedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		levels := r.Intn(3)
		d := Strided{Count: []int{1 + r.Intn(16)}}
		extent := int64(d.Count[0])
		for l := 0; l < levels; l++ {
			blocks := 1 + r.Intn(4)
			// Stride at least the current extent to keep runs disjoint.
			stride := extent + int64(r.Intn(8))
			d.Count = append(d.Count, blocks)
			d.Stride = append(d.Stride, stride)
			extent = stride*int64(blocks-1) + extent
		}
		size := int(extent) + 16
		nodes := []int{0}
		s := NewSpace(nodes)
		src := s.AllocBytes(0, size)
		dst := s.AllocBytes(0, size)

		// Fill the source with random bytes and a sentinel destination.
		content := make([]byte, size)
		r.Read(content)
		s.Put(src, content)
		sentinel := bytes.Repeat([]byte{0xEE}, size)
		s.Put(dst, sentinel)

		packed := s.AppendGet(nil, src, d, d.TotalBytes())
		if len(packed) != d.TotalBytes() {
			return false
		}
		s.UnpackTo(dst, d, packed)

		// Inside the region: dst == src. Outside: sentinel intact.
		inRegion := make([]bool, size)
		d.EachRun(func(off int64, n int) {
			for i := 0; i < n; i++ {
				inRegion[off+int64(i)] = true
			}
		})
		got := s.AppendGet(nil, dst, Strided{}, size)
		want := s.AppendGet(nil, src, Strided{}, size)
		for i := 0; i < size; i++ {
			if inRegion[i] && got[i] != want[i] {
				return false
			}
			if !inRegion[i] && got[i] != 0xEE {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackLengthMismatchPanics(t *testing.T) {
	s := NewSpace([]int{0})
	p := s.AllocBytes(0, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	s.UnpackTo(p, Contig(16), make([]byte, 8))
}

func TestAccumulateStrided(t *testing.T) {
	s := NewSpace([]int{0})
	p := s.AllocBytes(0, 128)
	// Two rows of two float64s, rows 32 bytes apart.
	d := Strided{Count: []int{16, 2}, Stride: []int64{32}}
	add := make([]byte, 32)
	for i := 0; i < 4; i++ {
		lePutUint64(add[8*i:], 0x3FF0000000000000) // 1.0
	}
	s.AccumulateStrided(AccFloat64, p, d, add, 2)
	out := s.AppendGet(nil, p, d, d.TotalBytes())
	for i := 0; i < 4; i++ {
		if got := leUint64(out[8*i:]); got != 0x4000000000000000 { // 2.0
			t.Fatalf("element %d = %x", i, got)
		}
	}
	// Bytes between the rows untouched.
	gap := s.AppendGet(nil, p.Add(16), Strided{}, 16)
	for _, b := range gap {
		if b != 0 {
			t.Fatalf("gap corrupted: %v", gap)
		}
	}
}

// TestAppendGetFillsInPlace: a read appends after what dst holds, the
// zero descriptor reads n contiguous bytes, and a dst with room for the
// region is filled without an allocation, strided or not.
func TestAppendGetFillsInPlace(t *testing.T) {
	s := NewSpace([]int{0})
	p := s.AllocBytes(0, 64)
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i)
	}
	s.Put(p, src)
	d := Strided{Count: []int{4, 3}, Stride: []int64{16}} // bytes 0-3, 16-19, 32-35
	got := s.AppendGet([]byte{0xAA}, p, d, d.TotalBytes())
	want := []byte{0xAA, 0, 1, 2, 3, 16, 17, 18, 19, 32, 33, 34, 35}
	if !bytes.Equal(got, want) {
		t.Fatalf("strided append = %v, want %v", got, want)
	}
	if got := s.AppendGet(nil, p.Add(60), Strided{}, 4); !bytes.Equal(got, []byte{60, 61, 62, 63}) {
		t.Fatalf("contiguous read = %v", got)
	}
	buf := make([]byte, 0, 16)
	if n := testing.AllocsPerRun(20, func() {
		s.AppendGet(buf[:0], p, d, d.TotalBytes())
		s.AppendGet(buf[:0], p, Strided{}, 16)
	}); n != 0 {
		t.Errorf("AppendGet into a buffer with room: %v allocations, want 0", n)
	}
}
