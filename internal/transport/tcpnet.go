package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"armci/internal/cluster"
	"armci/internal/msg"
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
	f.link = &tcpLink{f: f, to: make(map[msg.Addr]map[msg.Addr]*cluster.Pair), ends: make(map[[2]msg.Addr]*cluster.Pair)}
	return &TCPFabric{f}, nil
}

// tcpLink is the pair-sockets link: one loopback listener as the
// rendezvous, and one connection per unordered pair of endpoints that
// talk, opened on the first frame either sends the other. Each end is one
// direction: a cluster.Pair its owner writes its frames to the peer
// through — so only one actor sends on each — and a reader filing the
// peer's frames into the owner's box. A request and its reply therefore
// share a connection, and the reply carries the ACK of the request, so the
// kernel seldom sends a segment that is only an ACK. Frames of one (source,
// destination) pair ride one stream in order; frames of different pairs
// are not ordered against each other.
type tcpLink struct {
	f        *wallFabric
	listener net.Listener
	// By source, fixed once up returns, then by destination: the source's
	// end. Only the source's actor touches its map, so a frame takes no
	// lock once its pair is open.
	to map[msg.Addr]map[msg.Addr]*cluster.Pair

	mu sync.Mutex
	// ends holds every end opened, by (owner, peer), for open and down.
	ends map[[2]msg.Addr]*cluster.Pair
}

// up opens the rendezvous listener. No connection exists yet: each pair
// that talks opens its own on first use.
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
	return nil
}

// carry encodes m into its sender's end, which its pair's first frame
// opens.
func (l *tcpLink) carry(from *wallEnv, m *msg.Message) (held bool) {
	to := l.to[m.Src]
	if to == nil {
		panic(fmt.Sprintf("tcpnet: send from unknown endpoint %v", m.Src))
	}
	p := to[m.Dst]
	if p == nil {
		p = l.open(m.Src, m.Dst)
		to[m.Dst] = p
	}
	return p.Send(&from.out, from.listens, m)
}

// open returns src's end of the connection src and dst share, opening it
// if neither has sent the other a frame yet; a refused connection aborts
// src's actor. It holds l.mu from the dial to the registration, and a dial
// after down closed the listener fails: down closes every end, an
// outliving actor's too.
func (l *tcpLink) open(src, dst msg.Addr) *cluster.Pair {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := [2]msg.Addr{src, dst}
	if p := l.ends[key]; p != nil {
		return p // dst opened it
	}
	a, b, err := l.connect()
	if err != nil {
		panic(fmt.Sprintf("tcpnet: connect %v <-> %v: %v", src, dst, err))
	}
	l.end(src, dst, a)
	l.end(dst, src, b)
	return l.ends[key]
}

// connect dials the listener and accepts the connection inline, so both
// ends come back together; a stranger accepted meanwhile is hung up on.
// The caller holds l.mu, so no other dial of the link is in flight.
func (l *tcpLink) connect() (a, b net.Conn, err error) {
	if a, err = net.DialTimeout("tcp", l.listener.Addr().String(), 2*time.Second); err != nil {
		return nil, nil, err
	}
	for {
		if b, err = l.listener.Accept(); err != nil {
			a.Close()
			return nil, nil, err
		}
		if b.RemoteAddr().String() == a.LocalAddr().String() {
			return a, b, nil
		}
		b.Close()
	}
}

// end makes c owner's end of its connection to peer: the Pair owner
// writes through, and a reader that files what arrives on c — peer's
// frames — into owner's box (nil when nobody hosts it, and arrive drops
// them). The caller holds l.mu.
func (l *tcpLink) end(owner, peer msg.Addr, c net.Conn) {
	l.ends[[2]msg.Addr{owner, peer}] = cluster.NewPair(c, nil, func(err error) {
		panic(fmt.Sprintf("tcpnet: send %v -> %v: %v", owner, peer, err))
	})
	b := l.f.boxes[owner]
	go cluster.ServePair(c, nil, func(m *msg.Message) { l.f.arrive(b, m, nil) }, func(err error) {
		l.f.report(fmt.Errorf("tcpnet: endpoint %v received corrupt frame: %w", owner, err))
	})
}

func (*tcpLink) usersDone() error { return nil }

// down closes the listener, so no connection opens from here on, and
// every end, which ends a write blocked on it and its reader.
func (l *tcpLink) down() {
	if l.listener == nil {
		return
	}
	l.listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	var writes, written int
	for _, p := range l.ends {
		w, n := p.Close()
		writes, written = writes+w, written+n
	}
	l.f.cfg.Trace.RecordLinkWrites(writes, written)
}
