package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

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
type tcpLink struct {
	f        *wallFabric
	listener net.Listener
	out      map[msg.Addr]*pairConns // by source, fixed once up returns
}

// pairConns is the sending side of one endpoint. Only the endpoint's own
// actor sends from it; mu orders that actor against down.
type pairConns struct {
	mu  sync.Mutex
	to  map[msg.Addr]net.Conn // dialed connections by destination
	buf []byte                // reused frame buffer
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
		l.out[addr] = &pairConns{to: make(map[msg.Addr]net.Conn)}
	}
	go l.accept()
	return nil
}

// carry writes m on its pair's connection, dialing it first if this is the
// pair's first frame; the hello then rides in the same write.
func (l *tcpLink) carry(m *msg.Message) {
	o := l.out[m.Src]
	if o == nil {
		panic(fmt.Sprintf("tcpnet: send from unknown endpoint %v", m.Src))
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf = o.buf[:0]
	c := o.to[m.Dst]
	if c == nil {
		var err error
		if c, err = net.Dial("tcp", l.listener.Addr().String()); err != nil {
			panic(fmt.Sprintf("tcpnet: dial %v -> %v: %v", m.Src, m.Dst, err))
		}
		o.to[m.Dst] = c // registered first, so down closes it on every path
		o.buf = append(o.buf, wire.EncodeHello(m.Dst)...)
	}
	o.buf = wire.AppendEncode(o.buf, m)
	if _, err := c.Write(o.buf); err != nil {
		panic(fmt.Sprintf("tcpnet: send %v -> %v: %v", m.Src, m.Dst, err))
	}
}

func (tcpLink) usersDone(time.Duration) error { return nil }

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
		for _, c := range o.to {
			c.Close()
		}
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
