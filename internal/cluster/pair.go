package cluster

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"

	"armci/internal/msg"
	"armci/internal/wire"
)

// WriteCap is how many buffered bytes a pair connection writes without
// waiting for its sender to listen.
const WriteCap = 16 << 10

// Sender is one sending actor's side of the pair connections it writes:
// those holding its frames back until it next listens. Only that actor's
// goroutine uses it.
type Sender struct{ corked []*Pair }

// Pair is the writing end of a pair connection, with its write buffer: on
// tcpnet, one endpoint's end of the connection it shares with one peer,
// whose frames the link reads off the same socket; on proc, a worker's
// route to one node, shared by all the worker's actors. A burst rides in
// one write: a frame leaves at once unless the frame before it on the end
// is its own sender's of the same generation (no listen since) and the
// buffer is short of WriteCap; else it waits for the sender's Flush. That
// is Nagle's rule with "the sender listened" for the ACK: program points,
// no timer. On a shared route another sender's frame takes the held ones
// along, so a frame can leave earlier than its sender's rule says, never
// later.
type Pair struct {
	c    net.Conn
	fail func(error) // told of a refused write, on the writer's goroutine, no lock held
	mu   sync.Mutex
	buf  []byte  // encoded frames (and the hello) not yet written
	from *Sender // the sender of the last frame, in its generation gen
	gen  uint64
	// What the writes carried, for Close: the recorder's mutex between a
	// sender's write and its park would show several-fold in a round trip.
	writes, written int
}

// NewPair makes c the writing end of a pair connection. hello, when not
// nil, is a frame body that leads the stream, written with the first
// message; fail is told of refused writes.
func NewPair(c net.Conn, hello []byte, fail func(error)) *Pair {
	p := &Pair{c: c, fail: fail}
	if hello != nil {
		p.buf = append(binary.LittleEndian.AppendUint32(nil, uint32(len(hello))), hello...)
	}
	return p
}

// Send appends m, sent by from in its generation gen, and writes the buffer
// unless the rule holds m back for from.Flush, which it then reports.
func (p *Pair) Send(from *Sender, gen uint64, m *msg.Message) (held bool) {
	p.mu.Lock()
	held = p.from == from && p.gen == gen
	p.from, p.gen = from, gen
	if held && len(p.buf) == 0 { // else from listed p with the frame that found it so
		from.corked = append(from.corked, p)
	}
	p.buf = wire.AppendEncode(p.buf, m)
	held = held && len(p.buf) < WriteCap
	p.writeUnlock(!held)
	return held
}

// Flush writes every buffer the sender's frames wait in.
func (s *Sender) Flush() {
	for _, p := range s.corked {
		p.mu.Lock()
		p.writeUnlock(len(p.buf) > 0) // else it filled, or another sender wrote it
	}
	s.corked = s.corked[:0]
}

// writeUnlock writes the whole buffer if write is set — the one Write of
// both socket links — then releases p.mu and tells fail of a refusal.
func (p *Pair) writeUnlock(write bool) {
	var err error
	if write {
		var n int
		n, err = p.c.Write(p.buf)
		p.buf = p.buf[:0]
		p.writes++
		p.written += n
	}
	p.mu.Unlock()
	if err != nil {
		p.fail(err)
	}
}

// Close closes the connection, which ends a write blocked on it, and
// returns how many writes it made and the bytes they carried.
func (p *Pair) Close() (writes, written int) {
	p.c.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writes, p.written
}

// ServePair is the reading end of a pair connection, which it closes when
// done: admit, when set, judges the hello that leads the stream, deliver
// gets the messages behind it, each born in the reader's own msg.Arena. A
// frame that is not a message (over wire.MaxFrame, or undecodable) goes to
// corrupt and ends the connection; a stream that ends or fails, between
// frames or inside one, ends it silently: the peer's fate is the link's.
func ServePair(c io.ReadCloser, admit func(hello []byte) bool, deliver func(*msg.Message), corrupt func(error)) {
	defer c.Close()
	fr := wire.FrameReader{R: c}
	var arena msg.Arena
	if admit != nil {
		hello, err := fr.Next()
		if err != nil || !admit(hello) {
			return
		}
	}
	for {
		body, err := fr.Next()
		var m *msg.Message
		if err == nil {
			m, err = wire.DecodeIn(&arena, body)
		} else if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, new(net.Error)) {
			return
		}
		if err != nil {
			corrupt(err)
			return
		}
		deliver(m)
	}
}
