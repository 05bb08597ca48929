package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"armci/internal/cluster"
	"armci/internal/msg"
	"armci/internal/wire"
)

// TCPFabric runs the cluster as real goroutines whose every message —
// including between a user process and its own node's server — crosses a
// loopback TCP socket through a star router. It emulates the message path
// of a socket-based ARMCI port: the paper's cluster interconnect is
// replaced by real kernel sockets, per the reproduction substitution rule.
type TCPFabric struct{ *wallFabric }

// NewTCP builds a TCP fabric. The router listens on an ephemeral loopback
// port; everything is torn down when Run returns.
func NewTCP(cfg Config) (*TCPFabric, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// The TCP fabric measures real socket costs, so the cost-model
	// stage is inactive; trace, fault injection and metrics still run.
	f := newWallFabric("tcpnet", cfg, false)
	f.link = &tcpLink{f: f, conns: make(map[msg.Addr]*endpointConn)}
	return &TCPFabric{f}, nil
}

// tcpLink is the router-and-sockets link: every endpoint dials the star
// router, writes its frames there and reads what the router forwards.
type tcpLink struct {
	f        *wallFabric
	listener net.Listener
	router   *router
	conns    map[msg.Addr]*endpointConn // dialed side, fixed once up returns
}

// endpointConn is an endpoint's dialed connection to the router.
type endpointConn struct {
	c       net.Conn
	writeMu sync.Mutex
	buf     []byte // reused frame buffer, guarded by writeMu
}

func (ec *endpointConn) writeFrame(f []byte) error {
	ec.writeMu.Lock()
	defer ec.writeMu.Unlock()
	return wire.WriteFrame(ec.c, f)
}

// writeMsg encodes m into the connection's reused buffer and writes the
// frame, so steady-state sends do not allocate a fresh frame each time.
func (ec *endpointConn) writeMsg(m *msg.Message) error {
	ec.writeMu.Lock()
	defer ec.writeMu.Unlock()
	ec.buf = wire.AppendEncode(ec.buf[:0], m)
	return wire.WriteFrame(ec.c, ec.buf)
}

// up brings up the router and connects every endpoint to it.
func (l *tcpLink) up() (err error) {
	// cluster.Listen reports the address on failure and rides out
	// ephemeral-port rebind races, so repeated -count runs never flake.
	l.listener, err = cluster.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	l.router = newRouter(l.listener)
	go l.router.serve()

	all := l.f.endpoints()
	for _, a := range all {
		conn, derr := net.Dial("tcp", l.listener.Addr().String())
		if derr != nil {
			return fmt.Errorf("tcpnet: dial router: %w", derr)
		}
		ec := &endpointConn{c: conn}
		l.conns[a.addr] = ec // registered first, so down closes it on every path
		if werr := ec.writeFrame(wire.EncodeHello(a.addr)); werr != nil {
			return fmt.Errorf("tcpnet: hello: %w", werr)
		}
		go l.readLoop(a.addr, conn)
	}
	// Wait for the router to have registered every endpoint before any
	// actor sends, so no frame races ahead of its destination's hello.
	return l.router.waitRegistered(len(all), 10*time.Second)
}

func (l *tcpLink) carry(m *msg.Message) {
	ec := l.conns[m.Src]
	if ec == nil {
		panic(fmt.Sprintf("tcpnet: send from unknown endpoint %v", m.Src))
	}
	if err := ec.writeMsg(m); err != nil {
		panic(fmt.Sprintf("tcpnet: send %v -> %v: %v", m.Src, m.Dst, err))
	}
}

func (tcpLink) usersDone(time.Duration) error { return nil }

// down closes the listener and both ends of every connection, which is
// also what ends the router's and the endpoints' reader goroutines.
func (l *tcpLink) down() {
	if l.listener == nil {
		return
	}
	l.listener.Close()
	l.router.closeAll()
	for _, ec := range l.conns {
		ec.c.Close()
	}
}

// readLoop drains frames arriving for one endpoint into its mailbox.
func (l *tcpLink) readLoop(a msg.Addr, conn net.Conn) {
	q := l.f.mailboxes[a]
	for {
		body, err := wire.ReadFrame(conn)
		if err != nil {
			return // connection closed at teardown
		}
		m, err := wire.Decode(body)
		if err != nil {
			l.f.panics <- fmt.Errorf("tcpnet: endpoint %v received corrupt frame: %w", a, err)
			return
		}
		l.f.arrive(q, m)
	}
}

// router forwards frames between endpoint connections.
type router struct {
	ln net.Listener

	mu    sync.Mutex
	conns map[msg.Addr]*endpointConn
	n     int
}

func newRouter(ln net.Listener) *router {
	return &router{ln: ln, conns: make(map[msg.Addr]*endpointConn)}
}

func (r *router) serve() {
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		go r.serveConn(c)
	}
}

func (r *router) serveConn(c net.Conn) {
	// closeAll only reaches registered connections; one that loses the
	// race with a failed bring-up's teardown is closed here instead.
	defer c.Close()
	hello, err := wire.ReadFrame(c)
	if err != nil {
		return
	}
	addr, err := wire.DecodeHello(hello)
	if err != nil {
		return
	}
	ec := &endpointConn{c: c}
	r.mu.Lock()
	r.conns[addr] = ec
	r.n++
	r.mu.Unlock()
	var fr []byte // reused re-frame buffer; this loop is the only writer
	for {
		body, err := wire.ReadFrame(c)
		if err != nil {
			return
		}
		dst, err := wire.PeekDst(body)
		if err != nil {
			return
		}
		r.mu.Lock()
		out := r.conns[dst]
		r.mu.Unlock()
		if out == nil {
			continue // destination gone at teardown
		}
		// Re-frame and forward.
		fr = append(fr[:0], byte(len(body)), byte(len(body)>>8), byte(len(body)>>16), byte(len(body)>>24))
		fr = append(fr, body...)
		if err := out.writeFrame(fr); err != nil {
			continue
		}
	}
}

func (r *router) waitRegistered(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		got := r.n
		r.mu.Unlock()
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tcpnet: only %d of %d endpoints registered with router", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *router) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ec := range r.conns {
		ec.c.Close()
	}
}
