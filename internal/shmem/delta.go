package shmem

import (
	"fmt"
	"sort"
)

// Delta capture — the shmem half of the elastic replication protocol.
//
// A rank that replicates its state to a peer calls Protect once after its
// application segments are allocated: from then on every mutation of
// those segments marks a fixed-size page dirty, and CaptureDelta drains
// the dirty set into a deterministic list of (pointer, raw bytes) ranges
// — what the replicator streams to the peer at each sync epoch. Segments
// allocated after Protect (the replicator's own shadow and staging
// areas) are deliberately outside the protected set: they hold replica
// state that must survive a rollback, and replicating a replica would
// cascade.

const (
	// PageWords is the dirty-tracking granularity of word segments.
	PageWords = 32
	// PageBytes is the dirty-tracking granularity of byte segments; one
	// byte page spans the same 256 bytes as one word page.
	PageBytes = 256
)

// pageKey names one dirty page of a rank's protected memory.
type pageKey struct {
	kind Kind
	seg  int32
	page int32
}

// protState is the per-rank dirty-tracking state. The protected set is
// the window of segments (wbase, words] × (bbase, bytes] in allocation
// order: segments at or below the base (runtime internals allocated
// before the application's state) and segments allocated after Protect
// (the replicator's shadow and staging) are both outside it.
type protState struct {
	on    bool
	wbase int // word segments below the protected window
	bbase int // byte segments below the protected window
	words int // protected word-segment count (prefix of rankMem.words)
	bytes int // protected byte-segment count (prefix of rankMem.bytes)
	dirty map[pageKey]struct{}
}

// DeltaRange is one contiguous dirty range of protected memory: the
// pointer to its first cell or byte and its raw little-endian contents
// (8 bytes per cell for word ranges).
type DeltaRange struct {
	Ptr  Ptr
	Data []byte
}

// RankSnapshot is a deep copy of one rank's protected segments, taken at
// a sync-epoch commit and restored on rollback.
type RankSnapshot struct {
	Epoch uint64
	words [][]int64
	bytes [][]byte
}

// ProtectRange marks rank's current segments from the first baseWords
// word segments and baseBytes byte segments on as its protected set and
// starts dirty-page tracking over them. The segments below the bound —
// runtime internals allocated before the application's state — stay
// outside the protected set, so captures, snapshots and rollbacks never
// touch live synchronization machinery. Call it once, after the
// application's collective allocations and before the first delta
// capture; segments allocated later are excluded from tracking, capture,
// snapshot and restore.
func (s *Space) ProtectRange(rank, baseWords, baseBytes int) {
	r := &s.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	if baseWords > len(r.words) || baseBytes > len(r.bytes) {
		panic(fmt.Sprintf("shmem: protect base %d/%d beyond rank %d's %d/%d segments",
			baseWords, baseBytes, rank, len(r.words), len(r.bytes)))
	}
	r.prot = protState{
		on:    true,
		wbase: baseWords,
		bbase: baseBytes,
		words: len(r.words),
		bytes: len(r.bytes),
		dirty: make(map[pageKey]struct{}),
	}
}

// mark records the pages touched by a mutation of n cells/bytes at p, a
// pointer into this rank's memory. Callers hold r.mu. Accesses outside
// the protected prefix — including every access before Protect — are
// ignored.
func (r *rankMem) mark(p Ptr, n int64) {
	ps := &r.prot
	if !ps.on || n <= 0 {
		return
	}
	pageSize := int64(PageBytes)
	base, limit := ps.bbase, ps.bytes
	if p.Kind == KindWord {
		pageSize = PageWords
		base, limit = ps.wbase, ps.words
	}
	if int(p.Seg) <= base || int(p.Seg) > limit {
		return
	}
	for pg := p.Off / pageSize; pg <= (p.Off+n-1)/pageSize; pg++ {
		ps.dirty[pageKey{kind: p.Kind, seg: p.Seg, page: int32(pg)}] = struct{}{}
	}
}

// CaptureDelta drains rank's dirty set into a deterministic list of
// ranges: sorted by (kind, segment, page), with consecutive pages of one
// segment merged. reset clears the dirty set, so the next capture
// carries only later mutations.
func (s *Space) CaptureDelta(rank int, reset bool) []DeltaRange {
	r := &s.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	ps := r.protected(rank)
	keys := make([]pageKey, 0, len(ps.dirty))
	for k := range ps.dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.seg != b.seg {
			return a.seg < b.seg
		}
		return a.page < b.page
	})
	var out []DeltaRange
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].kind == keys[i].kind && keys[j].seg == keys[i].seg &&
			keys[j].page == keys[j-1].page+1 {
			j++
		}
		out = append(out, r.rangeAt(rank, keys[i], int(keys[j-1].page-keys[i].page)+1))
		i = j
	}
	if reset {
		ps.dirty = make(map[pageKey]struct{})
	}
	return out
}

// CaptureFull returns rank's entire protected set as one range per
// segment — the re-establishing transfer after a membership change,
// which must rebuild a respawned peer's replica from nothing.
func (s *Space) CaptureFull(rank int, reset bool) []DeltaRange {
	r := &s.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	ps := r.protected(rank)
	out := make([]DeltaRange, 0, (ps.words-ps.wbase)+(ps.bytes-ps.bbase))
	for seg := ps.wbase; seg < ps.words; seg++ {
		data := make([]byte, 8*len(r.words[seg]))
		for i, v := range r.words[seg] {
			lePutUint64(data[8*i:], uint64(v))
		}
		out = append(out, DeltaRange{Ptr: Ptr{Rank: int32(rank), Kind: KindWord, Seg: int32(seg + 1)}, Data: data})
	}
	for seg := ps.bbase; seg < ps.bytes; seg++ {
		out = append(out, DeltaRange{Ptr: Ptr{Rank: int32(rank), Kind: KindByte, Seg: int32(seg + 1)}, Data: append([]byte(nil), r.bytes[seg]...)})
	}
	if reset {
		ps.dirty = make(map[pageKey]struct{})
	}
	return out
}

// rangeAt serializes pages consecutive pages of one segment of rank's
// memory r starting at key k, clamped to the segment end. Callers hold
// r.mu.
func (r *rankMem) rangeAt(rank int, k pageKey, pages int) DeltaRange {
	if k.kind == KindWord {
		seg := r.words[k.seg-1]
		lo := int(k.page) * PageWords
		hi := lo + pages*PageWords
		if hi > len(seg) {
			hi = len(seg)
		}
		data := make([]byte, 8*(hi-lo))
		for i, v := range seg[lo:hi] {
			lePutUint64(data[8*i:], uint64(v))
		}
		return DeltaRange{Ptr: Ptr{Rank: int32(rank), Kind: KindWord, Seg: k.seg, Off: int64(lo)}, Data: data}
	}
	seg := r.bytes[k.seg-1]
	lo := int(k.page) * PageBytes
	hi := lo + pages*PageBytes
	if hi > len(seg) {
		hi = len(seg)
	}
	return DeltaRange{Ptr: Ptr{Rank: int32(rank), Kind: KindByte, Seg: k.seg, Off: int64(lo)}, Data: append([]byte(nil), seg[lo:hi]...)}
}

// protected returns the tracking state of rank's memory r, panicking
// when Protect was never called — capturing an unprotected rank is a
// protocol bug, not a recoverable condition. Callers hold r.mu.
func (r *rankMem) protected(rank int) *protState {
	if !r.prot.on {
		panic(fmt.Sprintf("shmem: rank %d has no protected set (Protect not called)", rank))
	}
	return &r.prot
}

// Snapshot deep-copies rank's protected segments. The elastic runner
// takes one at every sync-epoch commit; Restore rewinds to it when a
// membership change forces survivors back to the resume epoch.
func (s *Space) Snapshot(rank int, epoch uint64) *RankSnapshot {
	r := &s.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	ps := r.protected(rank)
	snap := &RankSnapshot{Epoch: epoch}
	for seg := ps.wbase; seg < ps.words; seg++ {
		snap.words = append(snap.words, append([]int64(nil), r.words[seg]...))
	}
	for seg := ps.bbase; seg < ps.bytes; seg++ {
		snap.bytes = append(snap.bytes, append([]byte(nil), r.bytes[seg]...))
	}
	return snap
}

// Restore copies snap back over rank's protected segments and clears the
// dirty set (the restored state is exactly the peer-replicated epoch, so
// nothing is pending replication).
func (s *Space) Restore(rank int, snap *RankSnapshot) {
	s.locked(int32(rank), func(r *rankMem) {
		ps := r.protected(rank)
		if len(snap.words) != ps.words-ps.wbase || len(snap.bytes) != ps.bytes-ps.bbase {
			panic(fmt.Sprintf("shmem: snapshot shape %d/%d does not match protected set %d/%d",
				len(snap.words), len(snap.bytes), ps.words-ps.wbase, ps.bytes-ps.bbase))
		}
		for seg, w := range snap.words {
			copy(r.words[ps.wbase+seg], w)
		}
		for seg, b := range snap.bytes {
			copy(r.bytes[ps.bbase+seg], b)
		}
		ps.dirty = make(map[pageKey]struct{})
	})
	s.notify(Ptr{Rank: int32(rank)}, 0)
}

// WipeProtected zeroes rank's protected segments — the in-process
// emulation of a rank crash losing its memory, so restore paths can be
// exercised on the single-process fabrics.
func (s *Space) WipeProtected(rank int) {
	s.locked(int32(rank), func(r *rankMem) {
		ps := r.protected(rank)
		for seg := ps.wbase; seg < ps.words; seg++ {
			w := r.words[seg]
			for i := range w {
				w[i] = 0
			}
		}
		for seg := ps.bbase; seg < ps.bytes; seg++ {
			b := r.bytes[seg]
			for i := range b {
				b[i] = 0
			}
		}
		ps.dirty = make(map[pageKey]struct{})
	})
	s.notify(Ptr{Rank: int32(rank)}, 0)
}

// ReadRaw serializes n bytes of memory at p into little-endian raw form.
// For word pointers, p.Off is in cells and n in bytes (8 per cell).
func (s *Space) ReadRaw(p Ptr, n int) []byte {
	r := &s.ranks[p.Rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.Kind == KindByte {
		return append([]byte(nil), r.bytesAt(p, int64(n))...)
	}
	if n%8 != 0 {
		panic(fmt.Sprintf("shmem: raw word read %v+%d not cell-aligned", p, n))
	}
	w := r.wordsAt(p, int64(n/8))
	out := make([]byte, n)
	for i, v := range w {
		lePutUint64(out[8*i:], uint64(v))
	}
	return out
}

// WriteRaw writes little-endian raw bytes at p, the inverse of ReadRaw
// and the application side of a replica range: word pointers take p.Off
// in cells and data as 8 bytes per cell.
func (s *Space) WriteRaw(p Ptr, data []byte) {
	s.locked(p.Rank, func(r *rankMem) {
		if p.Kind == KindByte {
			r.put(p, data)
			return
		}
		if len(data)%8 != 0 {
			panic(fmt.Sprintf("shmem: raw word write of %d bytes not cell-aligned", len(data)))
		}
		w := r.wordsAt(p, int64(len(data)/8))
		for i := range w {
			w[i] = int64(leUint64(data[8*i:]))
		}
		r.mark(p, int64(len(w)))
	})
	n := int64(len(data))
	if p.Kind == KindWord {
		n /= 8
	}
	s.notify(p, n)
}
