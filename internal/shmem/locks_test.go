package shmem

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRankLocksUnderConcurrency: every rank's memory has its own lock.
// Two goroutines per rank hammer ranks 1..3 with fetch-and-adds on a
// shared cell, stores, accumulates and batches, while rank 0's own
// goroutine protects its memory, writes it, and captures deltas and
// snapshots. Run under -race, it shows the locks cover every access; the
// final words and rank 0's dirty set show none was lost.
func TestRankLocksUnderConcurrency(t *testing.T) {
	const iters = 400
	s := NewSpace([]int{0, 0, 1, 1})
	var hooks atomic.Int64
	s.SetOnWrite(func(Ptr, int64) { hooks.Add(1) })
	words := make([]Ptr, s.NumRanks())
	bytes := make([]Ptr, s.NumRanks())
	for r := range words {
		words[r] = s.AllocWords(r, 4*PageWords)
		bytes[r] = s.AllocBytes(r, 2*PageBytes)
	}

	var wg sync.WaitGroup
	var writes atomic.Int64 // hook calls the writers expect
	for r := 1; r < s.NumRanks(); r++ {
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var b Batch
				one := binary.LittleEndian.AppendUint64(nil, 1)
				// Each goroutine owns one half of the rank's word cells
				// past cell 0, and one half of its byte memory.
				own := words[r].Add(int64(1 + g*PageWords))
				acc := bytes[r].Add(int64(g * PageBytes))
				for i := range iters {
					s.FetchAdd(words[r], 1)
					s.Store(own.Add(int64(i%8)), int64(i))
					s.Accumulate(AccInt64, acc, one, 1)
					// Three contiguous cells in one batch: one hook call.
					s.Apply(&b, r, func(b *Batch) {
						for k := range 3 {
							b.Store(own.Add(int64(8+k)), int64(r*1000+i))
						}
					})
					writes.Add(4)
				}
			}()
		}
	}

	// Rank 0: protect, then write one page per round and capture exactly
	// it, with a snapshot of the round's state.
	var deltas [][]DeltaRange
	var snaps []*RankSnapshot
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ProtectRange(0, 0, 0)
		for i := range iters {
			page := int64(i % 4)
			s.FetchAdd(words[0].Add(page*PageWords), 1)
			writes.Add(1)
			d := s.CaptureDelta(0, true)
			snaps = append(snaps, s.Snapshot(0, uint64(i)))
			if i < 4 {
				deltas = append(deltas, d)
			} else if len(d) != 1 || d[0].Ptr != words[0].Add(page*PageWords) {
				t.Errorf("round %d: captured %v, want only word page %d", i, d, page)
				return
			}
		}
		s.Put(bytes[0].Add(PageBytes), []byte{7})
		writes.Add(1)
	}()
	wg.Wait()

	for r := 1; r < s.NumRanks(); r++ {
		if got := s.Load(words[r]); got != 2*iters {
			t.Errorf("rank %d shared cell = %d, want %d (an increment was lost)", r, got, 2*iters)
		}
		for g := range 2 {
			own := words[r].Add(int64(1 + g*PageWords))
			for k := range 8 {
				// The last round that stored cell k is the last i < iters
				// with i%8 == k.
				want := int64(iters - 8 + k)
				if got := s.Load(own.Add(int64(k))); got != want {
					t.Errorf("rank %d cell %v = %d, want %d", r, own.Add(int64(k)), got, want)
				}
			}
			for k := range 3 {
				if got, want := s.Load(own.Add(int64(8+k))), int64(r*1000+iters-1); got != want {
					t.Errorf("rank %d batch cell %d = %d, want %d", r, k, got, want)
				}
			}
			acc := s.AppendGet(nil, bytes[r].Add(int64(g*PageBytes)), Strided{}, 8)
			if got := binary.LittleEndian.Uint64(acc); got != iters {
				t.Errorf("rank %d accumulated %d, want %d", r, got, iters)
			}
		}
	}
	for page := range 4 {
		if len(deltas[page]) != 1 || deltas[page][0].Ptr != words[0].Add(int64(page*PageWords)) {
			t.Errorf("rank 0 round %d captured %v, want word page %d", page, deltas[page], page)
		}
		if got, want := s.Load(words[0].Add(int64(page*PageWords))), int64(iters/4); got != want {
			t.Errorf("rank 0 page %d counter = %d, want %d", page, got, want)
		}
	}
	// The last snapshot holds the last round's counters; the dirty set
	// holds the one byte page written after it, and nothing else.
	last := snaps[len(snaps)-1]
	if got := last.words[0][(iters-1)%4*PageWords]; got != iters/4 {
		t.Errorf("last snapshot's counter = %d, want %d", got, iters/4)
	}
	d := s.CaptureDelta(0, false)
	if len(d) != 1 || d[0].Ptr != bytes[0].Add(PageBytes) || !slices.Equal(d[0].Data[:1], []byte{7}) {
		t.Errorf("rank 0 dirty set %v, want only byte page 1", d)
	}
	if got, want := hooks.Load(), writes.Load(); got != want {
		t.Errorf("write hook fired %d times, want %d", got, want)
	}
}

// TestBatchNotifiesOncePerContiguousRun: a batch's writes land in one
// critical section, and the write hook then fires once per maximal run
// of contiguous cells, in write order.
func TestBatchNotifiesOncePerContiguousRun(t *testing.T) {
	s := newTestSpace(t, 2)
	w := s.AllocWords(1, 8)
	b := s.AllocBytes(1, 64)
	other := s.AllocBytes(1, 64)
	var got []Cells
	s.SetOnWrite(func(p Ptr, n int64) { got = append(got, Cells{p, n}) })
	var batch Batch
	s.Apply(&batch, 1, func(bt *Batch) {
		bt.Put(b, []byte{1, 2})
		bt.Put(b.Add(2), []byte{3})
		bt.Accumulate(AccInt64, b.Add(3), binary.LittleEndian.AppendUint64(nil, 4), 1)
		bt.Put(other.Add(11), []byte{5}) // another segment at the next offset
		bt.Store(w.Add(1), 6)
		bt.Store(w.Add(2), 7)
		bt.Store(w, 8) // backwards: not a continuation
	})
	want := []Cells{{b, 11}, {other.Add(11), 1}, {w.Add(1), 2}, {w, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("hook reported %v, want %v", got, want)
	}
	if v := s.AppendGet(nil, b, Strided{}, 4); !slices.Equal(v, []byte{1, 2, 3, 4}) {
		t.Errorf("bytes = %v", v)
	}
	if s.Load(w) != 8 || s.Load(w.Add(1)) != 6 || s.Load(w.Add(2)) != 7 {
		t.Errorf("words = %d %d %d", s.Load(w), s.Load(w.Add(1)), s.Load(w.Add(2)))
	}

	// A write to another rank's memory is refused, and the rank's lock is
	// released on the way out.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a batch bound to rank 1 wrote rank 0's memory")
			}
		}()
		r0 := s.AllocWords(0, 1)
		s.Apply(&batch, 1, func(bt *Batch) { bt.Store(r0, 1) })
	}()
	s.Store(w, 9) // would deadlock if the panic left rank 1 locked
}
