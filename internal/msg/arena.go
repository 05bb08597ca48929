package msg

import "math/rand/v2"

// Arena sizes. A chunk holds ChunkMessages slots of a message and
// InlineBytes of payload each (5.5 KB); a payload longer than that is
// carved from a slab of SlabBytes, and one over a quarter of SlabBytes is
// allocated on its own.
const (
	ChunkMessages = 16
	InlineBytes   = 64
	SlabBytes     = 8 << 10
)

// Arena is where one owner's messages are born: the sends of one actor, or
// the frames one link reader decodes. A message and its payload are born
// together (New, NewWith): the message in the next slot of a chunk, a
// short payload in the same slot, a longer one in a slab. The arena never
// hands out a slot or a byte twice, so nothing is ever returned to it: the
// collector frees a chunk or a slab once the last message or payload in it
// is gone. A message, or its payload, may therefore be kept, shared
// between goroutines and passed on like any heap object; what it costs is
// the chunk and slab it pins.
//
// What an owner allocates is one chunk per ChunkMessages messages, and a
// slab now and then for the payloads that do not fit a slot. The first
// chunk is of a random length: arenas fed in step — every rank's in a
// collective, every link's of one exchange — would otherwise all open
// their next chunk at the same message, and allocations counted over a
// part of a run that repeats would be off by one per arena, all in the
// same direction.
//
// The zero Arena is ready to use; a nil *Arena allocates every message and
// payload on its own. An Arena is not safe for concurrent use: its owner
// uses it from one goroutine at a time. That is the actor's own, except
// for a data server served on delivery, whose handler runs on its
// requesters' goroutines, one request at a time (transport.Handler).
type Arena struct {
	slots   []slot // the current chunk's slots not yet handed out
	slab    []byte // the current slab's bytes not yet handed out
	chunked bool   // the first chunk was made
}

// slot is one message and room for a short payload of its own.
type slot struct {
	m       Message
	payload [InlineBytes]byte
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
func (a *Arena) NewWith(m Message, n int) *Message {
	switch {
	case n == 0:
		m.Data = nil
	case a == nil || n > SlabBytes/4:
		m.Data = make([]byte, n)
		return a.New(m)
	case n > InlineBytes:
		if len(a.slab) < n {
			a.slab = make([]byte, SlabBytes)
		}
		m.Data, a.slab = a.slab[:n:n], a.slab[n:]
	default:
		s := a.next()
		s.m = m
		s.m.Data = s.payload[:n:n]
		return &s.m
	}
	return a.New(m)
}

// next hands out the next slot, opening a chunk when the last is used up.
func (a *Arena) next() *slot {
	if len(a.slots) == 0 {
		n := ChunkMessages
		if !a.chunked {
			n, a.chunked = 1+rand.IntN(ChunkMessages), true
		}
		a.slots = make([]slot, n)
	}
	s := &a.slots[0]
	a.slots = a.slots[1:]
	return s
}
