package shmem

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"
)

func newTestSpace(t *testing.T, ranks int) *Space {
	t.Helper()
	nodes := make([]int, ranks)
	for i := range nodes {
		nodes[i] = i
	}
	return NewSpace(nodes)
}

func TestAllocAndBasicWordOps(t *testing.T) {
	s := newTestSpace(t, 2)
	p := s.AllocWords(1, 4)
	if p.Rank != 1 || p.Kind != KindWord || p.Seg != 1 {
		t.Fatalf("unexpected pointer %+v", p)
	}
	if got := s.Load(p); got != 0 {
		t.Fatalf("fresh cell = %d", got)
	}
	s.Store(p, 7)
	if got := s.Load(p); got != 7 {
		t.Fatalf("after store, cell = %d", got)
	}
	if old := s.FetchAdd(p, 5); old != 7 {
		t.Fatalf("FetchAdd returned %d, want 7", old)
	}
	if got := s.Load(p); got != 12 {
		t.Fatalf("after FetchAdd, cell = %d", got)
	}
}

func TestPairOps(t *testing.T) {
	s := newTestSpace(t, 1)
	p := s.AllocWords(0, 2)
	s.StorePair(p, Pair{Hi: 3, Lo: 4})
	if got := s.LoadPair(p); got != (Pair{3, 4}) {
		t.Fatalf("LoadPair = %+v", got)
	}
	if old := s.SwapPair(p, Pair{7, 8}); old != (Pair{3, 4}) {
		t.Fatalf("SwapPair returned %+v", old)
	}
	// Failed pair CAS: observed value returned, memory untouched.
	if prev := s.CompareAndSwapPair(p, Pair{0, 0}, Pair{1, 1}); prev != (Pair{7, 8}) {
		t.Fatalf("failed CASPair returned %+v", prev)
	}
	if got := s.LoadPair(p); got != (Pair{7, 8}) {
		t.Fatalf("failed CASPair mutated to %+v", got)
	}
	// Successful pair CAS.
	if prev := s.CompareAndSwapPair(p, Pair{7, 8}, Pair{9, 10}); prev != (Pair{7, 8}) {
		t.Fatalf("successful CASPair returned %+v", prev)
	}
	if got := s.LoadPair(p); got != (Pair{9, 10}) {
		t.Fatalf("successful CASPair left %+v", got)
	}
}

// TestPairCASPartialMatch: matching only one of the two words must not
// swap — the whole point of the paper's pair-wide compare&swap.
func TestPairCASPartialMatch(t *testing.T) {
	s := newTestSpace(t, 1)
	p := s.AllocWords(0, 2)
	s.StorePair(p, Pair{5, 6})
	if prev := s.CompareAndSwapPair(p, Pair{5, 99}, Pair{0, 0}); prev != (Pair{5, 6}) {
		t.Fatalf("partial-match CAS returned %+v", prev)
	}
	if got := s.LoadPair(p); got != (Pair{5, 6}) {
		t.Fatalf("partial-match CAS mutated to %+v", got)
	}
}

func TestByteOps(t *testing.T) {
	s := newTestSpace(t, 2)
	p := s.AllocBytes(0, 64)
	data := []byte("hello, remote memory!")
	s.Put(p.Add(8), data)
	got := s.AppendGet(nil, p.Add(8), Strided{}, len(data))
	if string(got) != string(data) {
		t.Fatalf("Get = %q", got)
	}
	// Unwritten bytes stay zero.
	if head := s.AppendGet(nil, p, Strided{}, 8); string(head) != string(make([]byte, 8)) {
		t.Fatalf("head corrupted: %v", head)
	}
}

func TestAccumulateFloat64(t *testing.T) {
	s := newTestSpace(t, 1)
	p := s.AllocBytes(0, 32)
	init := make([]byte, 32)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(init[8*i:], math.Float64bits(float64(i)))
	}
	s.Put(p, init)
	add := make([]byte, 32)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(add[8*i:], math.Float64bits(10))
	}
	s.Accumulate(AccFloat64, p, add, 0.5)
	out := s.AppendGet(nil, p, Strided{}, 32)
	for i := 0; i < 4; i++ {
		got := math.Float64frombits(binary.LittleEndian.Uint64(out[8*i:]))
		want := float64(i) + 5
		if got != want {
			t.Fatalf("element %d = %v, want %v", i, got, want)
		}
	}
}

func TestAccumulateInt64(t *testing.T) {
	s := newTestSpace(t, 1)
	p := s.AllocBytes(0, 16)
	add := make([]byte, 16)
	binary.LittleEndian.PutUint64(add, 3)
	neg := int64(-2)
	binary.LittleEndian.PutUint64(add[8:], uint64(neg)) // negative operand
	s.Accumulate(AccInt64, p, add, 4)
	out := s.AppendGet(nil, p, Strided{}, 16)
	if got := int64(binary.LittleEndian.Uint64(out)); got != 12 {
		t.Fatalf("element 0 = %d, want 12", got)
	}
	if got := int64(binary.LittleEndian.Uint64(out[8:])); got != -8 {
		t.Fatalf("element 1 = %d, want -8", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := newTestSpace(t, 1)
	w := s.AllocWords(0, 2)
	b := s.AllocBytes(0, 8)
	cases := []struct {
		name string
		fn   func()
	}{
		{"word overflow", func() { s.Load(w.Add(2)) }},
		{"word negative", func() { s.Load(w.Add(-1)) }},
		{"pair at tail", func() { s.LoadPair(w.Add(1)) }},
		{"byte overflow", func() { s.AppendGet(nil, b, Strided{}, 9) }},
		{"kind mismatch word", func() { s.Load(b) }},
		{"kind mismatch byte", func() { s.AppendGet(nil, w, Strided{}, 1) }},
		{"acc misaligned", func() { s.Accumulate(AccFloat64, b, make([]byte, 7), 1) }},
		{"alloc zero words", func() { s.AllocWords(0, 0) }},
		{"alloc zero bytes", func() { s.AllocBytes(0, 0) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestNodeTopology(t *testing.T) {
	s := NewSpace([]int{0, 0, 1, 1})
	if s.NumRanks() != 4 {
		t.Fatalf("NumRanks = %d", s.NumRanks())
	}
	for r, want := range []int{0, 0, 1, 1} {
		if s.Node(r) != want {
			t.Fatalf("Node(%d) = %d, want %d", r, s.Node(r), want)
		}
	}
}

// TestConcurrentFetchAdd verifies the atomicity the concurrent fabrics
// rely on: parallel increments never lose updates.
func TestConcurrentFetchAdd(t *testing.T) {
	s := newTestSpace(t, 1)
	p := s.AllocWords(0, 1)
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.FetchAdd(p, 1)
			}
		}()
	}
	wg.Wait()
	if got := s.Load(p); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
}

// TestConcurrentPairSwapChain: N workers swap themselves into a pair cell;
// the set of values ever returned must be exactly {initial} ∪ all but one
// of the written values — i.e. a permutation chain with no duplicates,
// which fails if two swaps ever interleave non-atomically.
func TestConcurrentPairSwapChain(t *testing.T) {
	s := newTestSpace(t, 1)
	p := s.AllocWords(0, 2)
	const workers = 16
	results := make([]Pair, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = s.SwapPair(p, Pair{Hi: int64(w + 1), Lo: int64(-(w + 1))})
		}()
	}
	wg.Wait()
	final := s.LoadPair(p)
	seen := map[Pair]bool{final: true}
	for _, r := range results {
		if seen[r] {
			t.Fatalf("value %+v observed twice — swap not atomic", r)
		}
		seen[r] = true
	}
	if !seen[(Pair{})] {
		t.Fatal("initial zero pair never observed in the chain")
	}
	if len(seen) != workers+1 {
		t.Fatalf("chain has %d distinct values, want %d", len(seen), workers+1)
	}
}

func TestOnWriteHookFires(t *testing.T) {
	s := newTestSpace(t, 2)
	count := 0
	var got []Cells
	s.SetOnWrite(func(p Ptr, n int64) {
		if p.Rank != 1 {
			t.Errorf("onWrite named rank %d for a write to rank 1", p.Rank)
		}
		got = append(got, Cells{p, n})
		count++
	})
	w := s.AllocWords(1, 2)
	b := s.AllocBytes(1, 16)
	s.Store(w, 1)
	s.FetchAdd(w.Add(1), 1)
	s.StorePair(w, Pair{})
	s.SwapPair(w, Pair{1, 1})
	s.CompareAndSwapPair(w, Pair{1, 1}, Pair{2, 2})
	s.Put(b, []byte{1})
	s.Accumulate(AccInt64, b.Add(8), make([]byte, 8), 1)
	if count != 7 {
		t.Fatalf("onWrite fired %d times, want 7", count)
	}
	want := []Cells{{w, 1}, {w.Add(1), 1}, {w, 2}, {w, 2}, {w, 2}, {b, 1}, {b.Add(8), 8}}
	if !slices.Equal(got, want) {
		t.Fatalf("onWrite reported %v, want %v", got, want)
	}
	// Reads must not fire it.
	s.Load(w)
	s.LoadPair(w)
	s.AppendGet(nil, b, Strided{}, 1)
	if count != 7 {
		t.Fatalf("reads fired onWrite (count %d)", count)
	}
}

// TestCellsOverlaps: a wait's cells overlap exactly the writes that touch
// one of them, and a whole-rank write touches every cell of its rank.
func TestCellsOverlaps(t *testing.T) {
	s := newTestSpace(t, 2)
	w := s.AllocWords(1, 4)
	other := s.AllocWords(1, 4)
	b := s.AllocBytes(1, 32)
	pair := Cells{w.Add(1), 2}
	for _, c := range []struct {
		p    Ptr
		n    int64
		want bool
	}{
		{w, 1, false},
		{w, 2, true},
		{w.Add(1), 1, true},
		{w.Add(2), 2, true},
		{w.Add(3), 1, false},
		{other.Add(1), 2, false}, // another segment
		{b.Add(1), 16, false},    // byte memory at the same offsets
		{Ptr{Rank: 1}, 0, true},  // all of rank 1's memory
		{Ptr{Rank: 0}, 0, false}, // all of rank 0's
		{Ptr{Rank: 0, Kind: KindWord, Seg: w.Seg, Off: 1}, 1, false},
	} {
		if got := pair.Overlaps(c.p, c.n); got != c.want {
			t.Errorf("%v+2 overlaps a write of %d from %v: %v, want %v", pair.P, c.n, c.p, got, c.want)
		}
	}
	if (Cells{}).Overlaps(Ptr{Rank: 0}, 0) {
		t.Error("the zero Cells overlaps a whole-rank write of rank 0")
	}
}
