package msg

import (
	"math/rand/v2"

	"armci/internal/shmem"
)

// Arena sizes. A chunk holds ChunkMessages slots of a message and
// InlineBytes of payload each (3.6 KB); a payload longer than that is
// carved from a slab of SlabBytes, and one over a quarter of SlabBytes is
// allocated on its own.
const (
	ChunkMessages = 16
	InlineBytes   = 64
	SlabBytes     = 8 << 10
)

// Arena is where one owner keeps the messages it holds past a call: the
// frames one link reader decodes, or the copies a fabric makes of the sends
// it delivers later (Keep) — never a message being sent, which its sender
// lends the fabric until Send returns (transport.Env.Send). A message and
// its payload are born together (New, NewWith, Keep): the message in the
// next slot of a chunk, a short payload in the same slot, a longer one in a
// slab. The arena never hands out a slot or a byte twice, so nothing is
// ever returned to it: the collector frees a chunk or a slab once the last
// message or payload in it is gone. A message, or its payload, may
// therefore be kept, shared between goroutines and passed on like any heap
// object; what it costs is the chunk and slab it pins.
//
// What an owner allocates is one chunk per ChunkMessages messages, a slab
// now and then for the payloads that do not fit a slot, and a chunk of
// ChunkMessages stride descriptors per as many strided messages (Strided,
// StridedN). The first chunk of each is of a random length: arenas fed in
// step — every rank's in a collective, every link's of one exchange —
// would otherwise all open their next chunk at the same message, and
// allocations counted over a part of a run that repeats would be off by
// one per arena, all in the same direction.
//
// The zero Arena is ready to use; a nil *Arena allocates every message and
// payload on its own. An Arena is not safe for concurrent use: its owner
// uses it from one goroutine at a time — a link reader's own, or the
// sending actor's, which for a data server served on delivery is one of
// its requesters' goroutines, one request at a time (transport.Handler).
type Arena struct {
	slots   []slot       // the current chunk's slots not yet handed out
	strides []strideSlot // the current descriptor chunk's, likewise
	slab    []byte       // the current slab's bytes not yet handed out

	slotsOpened, stridesOpened bool // the first chunk of each was made
}

// slot is one message and room for a short payload of its own.
type slot struct {
	m       Message
	payload [InlineBytes]byte
}

// inlineLevels is how many stride levels a descriptor slot holds the
// vectors of; a deeper descriptor's vectors are allocated on their own.
const inlineLevels = 2

// strideSlot is one stride descriptor and room for its vectors.
type strideSlot struct {
	d      shmem.Strided
	count  [inlineLevels + 1]int
	stride [inlineLevels]int64
}

// New returns a message holding m's fields, in a slot no other message
// ever had. m.Data is kept as given: a message whose payload is over a
// quarter of SlabBytes is not put in a slot, since a chunk keeps alive
// every payload its messages point to; it is a heap object of its own, as
// its payload is, and dies with it.
func (a *Arena) New(m Message) *Message {
	if a == nil || len(m.Data) > SlabBytes/4 {
		p := new(Message)
		*p = m
		return p
	}
	s := a.next()
	s.m = m
	return &s.m
}

// NewWith is New for a message whose payload is n fresh zero bytes, which
// the caller fills: m.Data is replaced (nil for n == 0). The payload's
// capacity is n, so an append to it reallocates instead of writing into a
// neighbour's bytes.
func (a *Arena) NewWith(m Message, n int) *Message { return a.with(&m, n) }

// Keep returns a copy of m that the arena's owner may hold: its fields,
// its payload and its stride descriptor, vectors included, are the copy's
// own, so the sender may rewrite any of them once Keep returns.
func (a *Arena) Keep(m *Message) *Message {
	p := a.with(m, len(m.Data))
	copy(p.Data, m.Data)
	if m.Stride != nil {
		p.Stride = a.Strided(*m.Stride)
	}
	return p
}

// with is NewWith for a message given by pointer: *m's fields are copied
// once, straight into the message's slot.
func (a *Arena) with(m *Message, n int) *Message {
	if a == nil || n > SlabBytes/4 {
		p := new(Message)
		*p = *m
		p.Data = nil
		if n > 0 {
			p.Data = make([]byte, n)
		}
		return p
	}
	s := a.next()
	s.m = *m
	switch {
	case n == 0:
		s.m.Data = nil
	case n > InlineBytes:
		if len(a.slab) < n {
			a.slab = make([]byte, SlabBytes)
		}
		s.m.Data, a.slab = a.slab[:n:n], a.slab[n:]
	default:
		s.m.Data = s.payload[:n:n]
	}
	return &s.m
}

// Strided returns a copy of d, its vectors included, for a message's
// Stride (see StridedN): nil for a descriptor with neither counts nor
// strides (a contiguous transfer).
func (a *Arena) Strided(d shmem.Strided) *shmem.Strided {
	if len(d.Count) == 0 && len(d.Stride) == 0 {
		return nil
	}
	p := a.StridedN(len(d.Count), len(d.Stride))
	copy(p.Count, d.Count)
	copy(p.Stride, d.Stride)
	return p
}

// StridedN returns a zero descriptor of nc counts and ns strides for the
// caller to fill, in a descriptor slot no other message ever had, with its
// vectors in the slot when they fit (inlineLevels) — a strided message
// costs no heap object of its own. An empty vector is nil, and each
// vector's capacity is its length.
func (a *Arena) StridedN(nc, ns int) *shmem.Strided {
	var s *strideSlot
	if a == nil {
		s = new(strideSlot)
	} else {
		s = carve(&a.strides, &a.stridesOpened)
	}
	switch {
	case nc == 0:
	case nc <= len(s.count):
		s.d.Count = s.count[:nc:nc]
	default:
		s.d.Count = make([]int, nc)
	}
	switch {
	case ns == 0:
	case ns <= len(s.stride):
		s.d.Stride = s.stride[:ns:ns]
	default:
		s.d.Stride = make([]int64, ns)
	}
	return &s.d
}

// next hands out the next message slot.
func (a *Arena) next() *slot { return carve(&a.slots, &a.slotsOpened) }

// carve hands out the next element of a chunk, opening a chunk when the
// last is used up: ChunkMessages long, but for the first, whose length is
// random.
func carve[T any](chunk *[]T, opened *bool) *T {
	if len(*chunk) == 0 {
		n := ChunkMessages
		if !*opened {
			n, *opened = 1+rand.IntN(ChunkMessages), true
		}
		*chunk = make([]T, n)
	}
	p := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return p
}
