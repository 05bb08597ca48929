package transport

import (
	"fmt"
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
	f.link = &tcpLink{f: f, to: make(map[msg.Addr]map[msg.Addr]*cluster.Pair)}
	return &TCPFabric{f}, nil
}

// tcpLink is the pair-sockets link: one loopback listener as the
// rendezvous, and one cluster.Pair per (source, destination) pair, dialed
// by the source on the pair's first frame — so only one actor sends on
// each. The hello that opens a connection names the destination and the
// pair's frames follow it on the same stream, so none can overtake it; the
// accepting side reads each connection straight into the destination's
// mailbox. Frames of different pairs are not ordered against each other.
type tcpLink struct {
	f        *wallFabric
	listener net.Listener
	// By source, fixed once up returns, then by destination, the source's.
	to map[msg.Addr]map[msg.Addr]*cluster.Pair

	mu    sync.Mutex
	pairs []*cluster.Pair // every pair dialed, for down
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
		l.to[addr] = make(map[msg.Addr]*cluster.Pair)
	}
	go cluster.Accept(l.listener, l.serve)
	return nil
}

// carry sends m down its pair, which its first frame dials.
func (l *tcpLink) carry(from *cluster.Sender, m *msg.Message, gen uint64) (held bool) {
	to := l.to[m.Src]
	if to == nil {
		panic(fmt.Sprintf("tcpnet: send from unknown endpoint %v", m.Src))
	}
	p := to[m.Dst]
	if p == nil {
		p = l.dial(m.Src, m.Dst)
		to[m.Dst] = p
	}
	return p.Send(from, gen, m)
}

// dial opens the pair src -> dst, whose refused write aborts src's actor.
// It holds l.mu from dial to registration, and a dial after down closed the
// listener fails: down closes every pair, an outliving actor's too.
func (l *tcpLink) dial(src, dst msg.Addr) *cluster.Pair {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, err := cluster.DialPair(l.listener.Addr().String(), wire.EncodeHello(dst)[4:], func(err error) {
		panic(fmt.Sprintf("tcpnet: send %v -> %v: %v", src, dst, err))
	})
	if err != nil {
		panic(fmt.Sprintf("tcpnet: dial %v -> %v: %v", src, dst, err))
	}
	l.pairs = append(l.pairs, p)
	return p
}

func (*tcpLink) usersDone() error { return nil }

// down closes the listener, which ends accept, and the dialed end of
// every pair, which ends that pair's reader; each reader closes the
// accepted end.
func (l *tcpLink) down() {
	if l.listener == nil {
		return
	}
	l.listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	var writes, written int
	for _, p := range l.pairs {
		w, n := p.Close()
		writes, written = writes+w, written+n
	}
	l.f.cfg.Trace.RecordLinkWrites(writes, written)
}

// serve drains one pair's connection into the box of the destination its
// hello named — nil when nobody hosts it, and arrive drops the frames.
func (l *tcpLink) serve(c net.Conn) {
	var dst msg.Addr
	var b *box
	cluster.ServePair(c, func(hello []byte) bool {
		var err error
		dst, err = wire.DecodeHello(hello)
		b = l.f.boxes[dst]
		return err == nil
	}, func(m *msg.Message) { l.f.arrive(b, m) }, func(err error) {
		l.f.report(fmt.Errorf("tcpnet: endpoint %v received corrupt frame: %w", dst, err))
	})
}
