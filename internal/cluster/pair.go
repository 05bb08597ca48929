package cluster

import (
	"encoding/binary"
	"net"
	"sync"
	"syscall"

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
// corrupt and ends the connection; a stream that ends or fails, a close and
// an expired read deadline end it silently: the peer's fate is the link's.
//
// It reads once per wake-up, inside c's RawConn.Read: a read(2) shorter than
// the free buffer drained the socket, so the reader delivers the frames it
// completed and parks without the read that would return EAGAIN. No wake-up
// is lost: readiness is cleared only as RawRead starts, right before a read,
// and every byte that lands after a read's walk of the socket fires a fresh
// edge. A full read may leave more, so RawRead returns and is entered again,
// where a Close (which waits for the callback) or a deadline is seen. A
// peer's close queued behind data a read returned goes unseen, so the owner
// closes what it reads; admit and deliver run inside the callback and must
// not close c.
func ServePair(c net.Conn, admit func(hello []byte) bool, deliver func(*msg.Message), corrupt func(error)) {
	defer c.Close()
	raw, err := c.(syscall.Conn).SyscallConn()
	if err != nil {
		return
	}
	var (
		frames wire.FrameBuf
		arena  msg.Arena
		done   bool  // the stream ended, or a frame ended it
		bad    error // the frame that ended it
	)
	serve := func(fd uintptr) bool {
		free := frames.Free()
		n, err := syscall.Read(int(fd), free)
		switch {
		case err == syscall.EAGAIN:
			return false
		case err == syscall.EINTR: // read again
			return true
		case n <= 0: // the peer closed, or the socket failed
			done = true
			return true
		}
		frames.Filled(n)
		for !done {
			body, ok, err := frames.Next()
			switch {
			case err != nil:
				bad, done = err, true
			case !ok: // park after a short read, read on after a full one
				return n == len(free)
			case admit != nil:
				done, admit = !admit(body), nil
			default:
				var m *msg.Message
				if m, bad = wire.DecodeIn(&arena, body); bad != nil {
					done = true
				} else {
					deliver(m)
				}
			}
		}
		return true
	}
	for !done && raw.Read(serve) == nil {
	}
	if bad != nil {
		corrupt(bad)
	}
}
