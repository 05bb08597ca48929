package msg

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"armci/internal/shmem"
)

// TestArenaNeverReusesASlot: every message an arena hands out has a slot
// of its own, across chunk boundaries, and holds the fields it was given.
func TestArenaNeverReusesASlot(t *testing.T) {
	var a Arena
	const n = 5*ChunkMessages + 3
	seen := make(map[*Message]bool)
	var all []*Message
	for i := 0; i < n; i++ {
		var m *Message
		if i%2 == 0 {
			m = a.New(Message{Kind: KindColl, Tag: i})
		} else {
			m = a.NewWith(Message{Kind: KindColl, Tag: i}, 8)
			m.Data[0] = byte(i)
		}
		if seen[m] {
			t.Fatalf("message %d reuses a slot", i)
		}
		seen[m] = true
		all = append(all, m)
	}
	for i, m := range all {
		if m.Tag != i || i%2 == 1 && m.Data[0] != byte(i) {
			t.Fatalf("message %d was overwritten: %+v", i, m)
		}
	}
}

// TestArenaPayloadsAreSealed: a payload's capacity is its length, inline
// in a slot or carved from a slab, so its owner's append reallocates
// instead of writing into the next message's payload.
func TestArenaPayloadsAreSealed(t *testing.T) {
	for _, n := range []int{3, InlineBytes, InlineBytes + 1, SlabBytes / 4} {
		var a Arena
		first := a.NewWith(Message{}, n).Data
		second := a.NewWith(Message{}, n).Data
		if cap(first) != n || cap(second) != n {
			t.Fatalf("%d-byte payloads have capacities %d and %d", n, cap(first), cap(second))
		}
		grown := append(first, bytes.Repeat([]byte{9}, n)...)
		grown[0] = 7
		if first[0] != 0 || !bytes.Equal(second, make([]byte, n)) {
			t.Fatalf("%d-byte payloads: an append to one wrote into another", n)
		}
	}
	if a := new(Arena); a.NewWith(Message{Data: []byte{1}}, 0).Data != nil {
		t.Fatal("an empty payload is nil")
	}
}

// TestArenaBigPayloadIsItsOwn: a payload up to a quarter of SlabBytes is
// carved from the slab, right behind the one carved before it; a bigger
// one is an allocation of its own, and so is its message.
func TestArenaBigPayloadIsItsOwn(t *testing.T) {
	var a Arena
	a.NewWith(Message{}, InlineBytes+1) // the slab exists
	rest := unsafe.SliceData(a.slab)
	quarter := a.NewWith(Message{}, SlabBytes/4).Data
	if unsafe.SliceData(quarter) != rest {
		t.Fatal("a quarter-slab payload was not carved from the slab")
	}
	rest, left := unsafe.SliceData(a.slab), len(a.slab)
	slots := len(a.slots)
	big := a.NewWith(Message{}, SlabBytes/4+1)
	if len(big.Data) != SlabBytes/4+1 || cap(big.Data) != len(big.Data) {
		t.Fatalf("big payload of len %d cap %d", len(big.Data), cap(big.Data))
	}
	if unsafe.SliceData(a.slab) != rest || len(a.slab) != left || len(a.slots) != slots {
		t.Fatal("a big payload, or its message, was carved")
	}
}

// sink keeps a message the compiler would otherwise place on the stack.
var sink *Message

// TestArenaAllocations: a warm arena allocates one chunk per ChunkMessages
// messages whose payloads fit a slot, and a nil arena each message on its
// own.
func TestArenaAllocations(t *testing.T) {
	var a Arena
	for i := 0; i < 2*ChunkMessages; i++ {
		a.NewWith(Message{}, InlineBytes) // past the first chunk
	}
	for len(a.slots) > 0 {
		a.New(Message{})
	}
	per := testing.AllocsPerRun(10, func() {
		for i := 0; i < ChunkMessages; i++ {
			sink = a.NewWith(Message{Kind: KindPut}, InlineBytes)
		}
	})
	if per != 1 {
		t.Fatalf("%d messages with %d B payloads allocate %.2f times, want 1", ChunkMessages, InlineBytes, per)
	}
	var none *Arena
	if avg := testing.AllocsPerRun(10, func() { sink = none.New(Message{Kind: KindPut}) }); avg != 1 {
		t.Fatalf("a nil arena allocates %.2f per message, want 1", avg)
	}
}

// TestArenaStrided: a strided message's descriptor is a copy, vectors
// included, in a slot of its own — one chunk per ChunkMessages of them once
// warm, vectors inline up to inlineLevels — and a contiguous one's is nil,
// in a nil arena too.
func TestArenaStrided(t *testing.T) {
	var a Arena
	if a.Strided(shmem.Strided{}) != nil || (*Arena)(nil).Strided(shmem.Strided{}) != nil {
		t.Fatal("a contiguous transfer's descriptor is not nil")
	}
	d := shmem.Strided{Count: []int{8, 4}, Stride: []int64{64}}
	var all []*shmem.Strided
	for i := 0; i < 3*ChunkMessages; i++ {
		d.Stride[0] = int64(i)
		p := a.Strided(d)
		if slices.Contains(all, p) {
			t.Fatalf("descriptor %d reuses a slot", i)
		}
		all = append(all, p)
	}
	for i, p := range all {
		if p.Stride[0] != int64(i) || !slices.Equal(p.Count, d.Count) {
			t.Fatalf("descriptor %d was overwritten or shares the caller's vectors: %+v", i, *p)
		}
	}
	deep := shmem.Strided{Count: []int{8, 2, 2, 2}, Stride: []int64{16, 32, 64}}
	if p := a.Strided(deep); !slices.Equal(p.Count, deep.Count) || !slices.Equal(p.Stride, deep.Stride) {
		t.Fatalf("a %d-level descriptor came back as %+v", deep.Levels(), *p)
	}
	for len(a.strides) > 0 {
		a.Strided(d)
	}
	per := testing.AllocsPerRun(10, func() {
		for i := 0; i < ChunkMessages; i++ {
			a.Strided(d)
		}
	})
	if per != 1 {
		t.Fatalf("%d one-level descriptors allocate %.2f times, want 1", ChunkMessages, per)
	}
}

// TestMessageSize pins the message to what its kinds use: 168 bytes, a
// slot (the message and its inline payload) 232 and a chunk of
// ChunkMessages slots 3,712. A field every kind does not need belongs in
// one that several share, or behind a pointer (see Message); adding one
// back fails here first.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 168 {
		t.Errorf("Message is %d bytes, want 168", got)
	}
	if got := unsafe.Sizeof(slot{}); got != 232 {
		t.Errorf("an arena slot is %d bytes, want 232", got)
	}
	if got := unsafe.Sizeof([ChunkMessages]slot{}); got != 3712 {
		t.Errorf("a chunk is %d bytes, want 3712", got)
	}
}
