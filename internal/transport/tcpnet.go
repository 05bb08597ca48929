package transport

import (
	"fmt"
	"io"
	"net"
	"sync"

	"armci/internal/cluster"
	"armci/internal/msg"
	"armci/internal/wire"
)

// TCPFabric runs the cluster as real goroutines whose every message —
// including between a user process and its own node's server — crosses a
// loopback TCP socket, straight from the sender to the destination's
// reader. It emulates the message path of a socket-based ARMCI port: the
// paper's cluster interconnect is replaced by real kernel sockets, per the
// reproduction substitution rule.
type TCPFabric struct{ *wallFabric }

// NewTCP builds a TCP fabric. It listens on an ephemeral loopback port;
// everything is torn down when Run returns.
func NewTCP(cfg Config) (*TCPFabric, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// The TCP fabric measures real socket costs, so the cost-model
	// stage is inactive; trace, fault injection and metrics still run.
	f := newWallFabric("tcpnet", cfg, false)
	f.link = &tcpLink{f: f, out: make(map[msg.Addr]*pairConns)}
	return &TCPFabric{f}, nil
}

// tcpLink is the pair-sockets link: one loopback listener as the
// rendezvous, and one connection per (source, destination) pair, dialed by
// the sender on the pair's first frame. The hello that opens a connection
// names the destination and the pair's frames follow it on the same
// stream, so none can overtake it; the accepting side reads each
// connection straight into the destination's mailbox. Frames of different
// pairs are not ordered against each other.
//
// A burst rides in one write. Every pair has a write buffer, and a frame
// leaves at once only when it is its pair's first since the source actor
// last listened (carry's gen moved on) or when it fills the buffer to
// writeCap; the frames behind a first one wait for the actor's next listen
// (flush) — Nagle's rule with "the sender listened" where TCP has the ACK,
// decided at program points and never by a timer. Request/response traffic
// therefore sees one write per frame, and only the tail of a burst waits:
// for one fabric call at most.
type tcpLink struct {
	f        *wallFabric
	listener net.Listener
	out      map[msg.Addr]*pairConns // by source, fixed once up returns
}

// writeCap is how many buffered bytes a pair writes without waiting for
// its sender to listen.
const writeCap = 16 << 10

// pairConns is the sending side of one endpoint. Only the endpoint's own
// actor sends from it; mu orders that actor against down.
type pairConns struct {
	mu     sync.Mutex
	to     map[msg.Addr]*pairConn // dialed connections by destination
	corked []*pairConn            // the pairs that held frames back since the last flush
	// What write counted; down hands it to the run's recorder. The
	// recorder's mutex is not taken per write: what a sender does between
	// its write and its park shows several-fold in a round trip (three
	// uncontended mutex pairs there cost a 21 us Get 0.8 us on 2 cores).
	writes, written int
}

// pairConn is one pair's connection and its write buffer.
type pairConn struct {
	net.Conn
	dst msg.Addr
	buf []byte // encoded frames (and the hello) not yet written
	gen uint64 // the source's generation at the pair's last frame
}

// up opens the rendezvous listener. No connection exists yet: each pair
// that talks dials its own on first use.
func (l *tcpLink) up() (err error) {
	// cluster.Listen reports the address on failure and rides out
	// ephemeral-port rebind races, so repeated -count runs never flake.
	l.listener, err = cluster.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	for addr := range l.f.boxes {
		l.out[addr] = &pairConns{to: make(map[msg.Addr]*pairConn)}
	}
	go l.accept()
	return nil
}

// carry appends m to its pair's buffer, dialing the pair first if this is
// its first frame ever (the hello then leads the buffer), and writes the
// buffer if the frame is the pair's first of generation gen or fills it.
func (l *tcpLink) carry(m *msg.Message, gen uint64) (held bool) {
	o := l.out[m.Src]
	if o == nil {
		panic(fmt.Sprintf("tcpnet: send from unknown endpoint %v", m.Src))
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	p := o.to[m.Dst]
	first := p == nil || p.gen != gen
	if p == nil {
		c, err := net.Dial("tcp", l.listener.Addr().String())
		if err != nil {
			panic(fmt.Sprintf("tcpnet: dial %v -> %v: %v", m.Src, m.Dst, err))
		}
		p = &pairConn{Conn: c, dst: m.Dst, buf: wire.EncodeHello(m.Dst)}
		o.to[m.Dst] = p // registered first, so down closes it on every path
	}
	p.gen = gen
	empty := len(p.buf) == 0
	p.buf = wire.AppendEncode(p.buf, m)
	if first || len(p.buf) >= writeCap {
		o.write(m.Src, p)
		return false
	}
	if empty { // else the pair is listed already, by the frame that found it so
		o.corked = append(o.corked, p)
	}
	return true
}

// flush writes every buffer src's frames are waiting in.
func (l *tcpLink) flush(src msg.Addr) {
	o := l.out[src]
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range o.corked {
		if len(p.buf) > 0 { // else it filled and left since it was listed
			o.write(src, p)
		}
	}
	o.corked = o.corked[:0]
}

// write is the link's one Write: p's whole buffer. A refused write aborts
// the sending actor, whose goroutine this is. The caller holds o.mu.
func (o *pairConns) write(src msg.Addr, p *pairConn) {
	n, err := p.Write(p.buf)
	p.buf = p.buf[:0]
	if err != nil {
		panic(fmt.Sprintf("tcpnet: send %v -> %v: %v", src, p.dst, err))
	}
	o.writes++
	o.written += n
}

func (tcpLink) usersDone() error { return nil }

// down closes the listener, which ends accept, and the dialed end of
// every pair, which ends that pair's reader; each reader closes the
// accepted end. A pair dialed by an actor that outlived a failed run is
// caught too: carry holds the source's mu from dial to registration, and a
// dial after the listener closed fails.
func (l *tcpLink) down() {
	if l.listener == nil {
		return
	}
	l.listener.Close()
	for _, o := range l.out {
		o.mu.Lock()
		for _, p := range o.to {
			p.Close()
		}
		l.f.cfg.Trace.RecordLinkWrites(o.writes, o.written)
		o.mu.Unlock()
	}
}

func (l *tcpLink) accept() {
	for {
		c, err := l.listener.Accept()
		if err != nil {
			return // listener closed at teardown
		}
		go l.read(c)
	}
}

// read drains one pair's connection into the box of the destination
// its hello named — nil when nobody hosts it, and arrive drops the frames.
func (l *tcpLink) read(c net.Conn) {
	defer c.Close()
	fr := wire.FrameReader{R: c}
	hello, err := fr.Next()
	if err != nil {
		return
	}
	dst, err := wire.DecodeHello(hello)
	if err != nil {
		return // not one of our endpoints
	}
	b := l.f.boxes[dst]
	for {
		body, err := fr.Next()
		if err == io.EOF {
			return // the sender closed the pair at teardown
		}
		var m *msg.Message
		if err == nil {
			m, err = wire.Decode(body)
		}
		if err != nil {
			l.f.report(fmt.Errorf("tcpnet: endpoint %v received corrupt frame: %w", dst, err))
			return
		}
		l.f.arrive(b, m)
	}
}
