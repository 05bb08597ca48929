package cluster

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"time"

	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/wire"
)

// Handlers are the worker-side callbacks a Session invokes from its
// read loop. Both must be safe for concurrent use and non-blocking
// enough not to stall the connection.
type Handlers struct {
	// ClockStart receives, from Join and before any other callback, the
	// instant every worker of the launch — a respawned incarnation too —
	// measures fabric time from. Message stamps travel between workers, so
	// they must mean the same on each: against a worker's own start they
	// would differ by the workers' start skew. nil ignores it.
	ClockStart func(time.Time)
	// Data receives every message a peer (or this worker itself) sent to
	// this worker's listener. nil drops them.
	Data func(*msg.Message)
	// Corrupt receives the error of a peer connection's corrupt frame,
	// which ended that connection (ServePair). nil ignores it.
	Corrupt func(error)
	// Fault is invoked exactly once if the launch fails — a peer was
	// declared dead (the error carries the dead worker's first rank) or
	// the coordinator itself vanished. nil ignores faults.
	Fault func(*pipeline.FaultError)
	// View receives every membership view the coordinator broadcasts:
	// the initial roster view and, on elastic runs, each membership
	// change. nil ignores views.
	View func(wire.View)
	// Resume receives the recovery hand-off after a membership change:
	// the replaced node slot and the sync epoch to resume from. nil
	// ignores it.
	Resume func(wire.EpochReport)
}

// Session is one worker's membership of its launch: it joins via the
// hello handshake, heartbeats the coordinator, participates in the drain
// protocol and surfaces cluster faults over the coordinator connection,
// and sends and receives messages over peer connections.
type Session struct {
	env       WorkerEnv
	cc        *clusterConn
	h         Handlers
	peerHello []byte // the hello body every peer connection of this worker opens with

	drainCh   chan struct{}
	drainOnce sync.Once
	pingDone  chan struct{}
	closeOnce sync.Once

	mu     sync.Mutex
	closed bool
	err    *pipeline.FaultError
	fOnce  sync.Once
	// The accepted peer connections still read, which Close closes: their
	// reader may miss the peer's close (ServePair).
	inbound map[net.Conn]bool

	// Peer routing state. Workers advertise a data listener in their
	// hello; the coordinator redistributes the addresses through
	// membership views, and the first send to a node — this one included —
	// dials it, lazily, so pairs that never communicate never hold a
	// connection. A node is either connected (or connectable) or, once it
	// has no address or a dial to it failed, unreachable until a view or a
	// peer hello installs a newer member — so one node pair's frames stay on
	// a single FIFO stream per incarnation.
	peerLn    net.Listener
	peerMu    sync.Mutex
	peerConns map[int]*Pair // node → dialed connection
	peerAddrs []string      // node → advertised listener address
	peerInc   []uint32      // node → incarnation of that address
	peerBad   map[int]bool  // node → unreachable, frames dropped

	writes, written int // what the closed peer connections wrote, for Close
}

// Join dials the coordinator (retrying until the join timeout, since
// the worker may start before the launcher finishes binding), presents
// the versioned hello, and blocks until the roster broadcast — i.e.
// until every node of the launch has arrived. On return the session is
// live: heartbeats flow and peers' messages are delivered to h.Data.
func Join(env WorkerEnv, h Handlers) (*Session, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	// The data listener opens before the hello so its address can be
	// advertised; peers dial it lazily on their first send to this node,
	// and what they send before Accept starts waits in the socket.
	peerLn, lerr := Listen("127.0.0.1:0")
	if lerr != nil {
		return nil, fmt.Errorf("cluster: node %d peer listener: %w", env.Node, lerr)
	}
	deadline := time.Now().Add(env.joinTimeout())
	var conn net.Conn
	for {
		var err error
		conn, err = net.Dial("tcp", env.Addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			peerLn.Close()
			return nil, fmt.Errorf("cluster: node %d cannot reach coordinator at %s: %w", env.Node, env.Addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cc := &clusterConn{c: conn}
	hello := wire.EncodeClusterHello(wire.ClusterHello{
		Node:         env.Node,
		Procs:        env.Procs,
		ProcsPerNode: env.ProcsPerNode,
		Cookie:       env.Cookie,
		Incarnation:  env.Incarnation,
		PeerAddr:     peerLn.Addr().String(),
	})[4:] // strip the outer length prefix; writeFrame re-frames
	fail := func(err error) (*Session, error) {
		conn.Close()
		peerLn.Close()
		return nil, err
	}
	if err := cc.writeFrame(frameHello, hello); err != nil {
		return fail(fmt.Errorf("cluster: node %d hello: %w", env.Node, err))
	}

	conn.SetReadDeadline(deadline)
	var initView *wire.View
	var clockStart time.Time
	haveRoster := false
	// The handshake completes on the roster plus the initial membership
	// view: peer addresses must be installed before the first send, or it
	// would find every node unreachable.
	for initView == nil || !haveRoster {
		body, err := wire.ReadFrame(conn)
		if err != nil {
			return fail(fmt.Errorf("cluster: node %d: no roster from coordinator within %v: %w", env.Node, env.joinTimeout(), err))
		}
		if len(body) == 0 {
			continue
		}
		switch body[0] {
		case frameReject:
			return fail(fmt.Errorf("cluster: node %d rejected by coordinator: %s", env.Node, body[1:]))
		case frameRoster:
			var rerr error
			if clockStart, rerr = parseRoster(body[1:], env); rerr != nil {
				return fail(rerr)
			}
			haveRoster = true
		case frameView:
			v, derr := wire.DecodeView(body[1:])
			if derr != nil {
				return fail(fmt.Errorf("cluster: node %d: %w", env.Node, derr))
			}
			initView = &v
		case frameFault:
			// The launch already failed (a peer died mid-rendezvous).
			rank, reason := parseFault(body[1:])
			return fail(&pipeline.FaultError{Rank: rank, Op: reason, Kind: pipeline.FaultPeerLost})
		default:
			return fail(fmt.Errorf("cluster: node %d: unexpected frame %#x before roster", env.Node, body[0]))
		}
	}
	conn.SetReadDeadline(time.Time{})

	if h.Data == nil {
		h.Data = func(*msg.Message) {}
	}
	if h.Corrupt == nil {
		h.Corrupt = func(error) {}
	}
	s := &Session{
		env: env,
		cc:  cc,
		h:   h,
		// The peer hello names this worker's own listener and incarnation,
		// so the acceptor can always answer: see servePeer.
		peerHello: append([]byte{framePeerHello}, hello...),
		drainCh:   make(chan struct{}),
		pingDone:  make(chan struct{}),
		peerLn:    peerLn,
		peerConns: make(map[int]*Pair),
		peerAddrs: make([]string, env.NumNodes()),
		peerInc:   make([]uint32, env.NumNodes()),
		peerBad:   make(map[int]bool),
		inbound:   make(map[net.Conn]bool),
	}
	s.installView(*initView)
	if h.ClockStart != nil {
		h.ClockStart(clockStart)
	}
	if h.View != nil {
		h.View(*initView)
	}
	go Accept(peerLn, s.servePeer)
	go s.readLoop()
	go s.pingLoop()
	return s, nil
}

// SendMsg carries m, stamped by the pipeline and sent by from in its
// generation gen, over the pair connection to node, m.Dst's, dialed on
// first use; it reports whether m waits for from.Flush (Pair.Send). Frames
// for an unreachable node, or on a connection whose write was refused, are
// dropped until a view or a peer hello installs a newer member: whether the
// worker behind it is dead is the coordinator's call, which this session
// hears as a fault or a view.
func (s *Session) SendMsg(from *Sender, gen uint64, node int, m *msg.Message) (held bool) {
	p := s.peerConn(node)
	return p != nil && p.Send(from, gen, m)
}

// peerConn returns the connection to a destination node, dialing its
// advertised listener on first use — this worker's own for a same-node
// frame. Returns nil when the node is unreachable.
func (s *Session) peerConn(node int) *Pair {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if node < 0 || node >= len(s.peerAddrs) || s.peerBad[node] {
		return nil
	}
	if p := s.peerConns[node]; p != nil {
		return p
	}
	if s.peerAddrs[node] == "" { // a slot between incarnations
		s.unreachableLocked(node)
		return nil
	}
	c, err := net.DialTimeout("tcp", s.peerAddrs[node], 2*time.Second)
	if err != nil {
		s.unreachableLocked(node)
		return nil
	}
	p := NewPair(c, s.peerHello, func(error) {})
	s.peerConns[node] = p
	return p
}

// unreachableLocked closes and forgets the connection to node, counting
// what it wrote, and drops its frames from here on. Callers hold peerMu.
func (s *Session) unreachableLocked(node int) {
	if p := s.peerConns[node]; p != nil {
		w, n := p.Close()
		s.writes, s.written = s.writes+w, s.written+n
		delete(s.peerConns, node)
	}
	s.peerBad[node] = true
}

// installView records a membership view's peer addresses and
// incarnations.
func (s *Session) installView(v wire.View) {
	s.peerMu.Lock()
	for _, m := range v.Members {
		s.installMemberLocked(m)
	}
	s.peerMu.Unlock()
}

// installMemberLocked is the one place a node's route changes: a newer
// incarnation, or the address of the current one when none is known yet
// (an incarnation has one listener for life, so a known address is never
// replaced or blanked), drops the connection to the slot's previous
// occupant and makes the node reachable again. It reports false for a
// member older than the one installed. Callers hold peerMu.
func (s *Session) installMemberLocked(m wire.ViewMember) bool {
	if m.Node < 0 || m.Node >= len(s.peerAddrs) || m.Incarnation < s.peerInc[m.Node] {
		return false
	}
	if m.Incarnation > s.peerInc[m.Node] || (s.peerAddrs[m.Node] == "" && m.Addr != "") {
		s.unreachableLocked(m.Node) // hang up on the previous occupant
		delete(s.peerBad, m.Node)
		s.peerInc[m.Node] = m.Incarnation
		s.peerAddrs[m.Node] = m.Addr
	}
	return true
}

// servePeer serves one connection to the data listener: a peer's lazily
// dialed send path, validated by a peer hello and then drained into
// Handlers.Data until the peer closes it.
func (s *Session) servePeer(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.inbound[conn] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inbound, conn)
		s.mu.Unlock()
	}()
	conn.SetReadDeadline(time.Now().Add(s.env.joinTimeout()))
	ServePair(conn, func(body []byte) bool {
		if len(body) < 1 || body[0] != framePeerHello {
			return false
		}
		h, err := wire.DecodeClusterHello(body[1:])
		if err != nil || h.Cookie != s.env.Cookie || h.PeerAddr == "" ||
			h.Procs != s.env.Procs || h.ProcsPerNode != s.env.ProcsPerNode {
			return false
		}
		// A respawned worker gets its view, and may dial, before the
		// coordinator refreshes this worker's: install the dialer from its
		// hello, ahead of its first frame, so the answer to that frame has a
		// route whichever arrives first. A superseded incarnation is refused.
		s.peerMu.Lock()
		current := s.installMemberLocked(wire.ViewMember{Node: h.Node, Incarnation: h.Incarnation, Addr: h.PeerAddr})
		s.peerMu.Unlock()
		conn.SetReadDeadline(time.Time{})
		return current
	}, s.h.Data, s.h.Corrupt)
}

// SendViewAck answers a membership change with this node's committed
// sync epoch.
func (s *Session) SendViewAck(a wire.ViewAck) error {
	return s.cc.writeFrame(frameViewAck, wire.EncodeViewAck(a))
}

// UserDone tells the coordinator this node's user ranks all finished.
func (s *Session) UserDone() error { return s.cc.writeFrame(frameUserDone, nil) }

// Drained is closed when the coordinator broadcasts the drain: every
// node's users finished, servers may stop.
func (s *Session) Drained() <-chan struct{} { return s.drainCh }

// Err returns the cluster fault, if one was surfaced.
func (s *Session) Err() *pipeline.FaultError {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close tears the session down and returns how many writes its peer
// connections made and the bytes they carried. A close after the drain is
// the normal end of a worker's life; the coordinator treats the connection
// loss as benign.
func (s *Session) Close() (writes, written int) {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		inbound := slices.Collect(maps.Keys(s.inbound))
		s.mu.Unlock()
		close(s.pingDone)
		s.cc.c.Close()
		s.peerLn.Close()
		for _, c := range inbound { // each waits for its reader's callback
			c.Close()
		}
	})
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	for node := range s.peerAddrs { // no send dials again
		s.unreachableLocked(node)
	}
	return s.writes, s.written
}

func (s *Session) drained() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// fail surfaces a cluster fault exactly once.
func (s *Session) fail(fe *pipeline.FaultError) {
	s.fOnce.Do(func() {
		s.mu.Lock()
		s.err = fe
		s.mu.Unlock()
		if s.h.Fault != nil {
			s.h.Fault(fe)
		}
	})
}

// readLoop drains coordinator frames: drain to the drain channel, views
// and resumes to their handlers, fault broadcasts (and unexpected
// connection loss) to the fault handler.
func (s *Session) readLoop() {
	for {
		body, err := wire.ReadFrame(s.cc.c)
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || s.drained() {
				return // normal teardown
			}
			s.fail(&pipeline.FaultError{
				Rank: s.env.FirstRank(),
				Op:   fmt.Sprintf("cluster: node %d lost the coordinator (%v)", s.env.Node, err),
				Kind: pipeline.FaultPeerLost,
			})
			return
		}
		if len(body) == 0 {
			continue
		}
		switch body[0] {
		case frameDrain:
			s.drainOnce.Do(func() { close(s.drainCh) })
		case frameFault:
			rank, reason := parseFault(body[1:])
			s.fail(&pipeline.FaultError{Rank: rank, Op: reason, Kind: pipeline.FaultPeerLost})
			return
		case frameView:
			v, derr := wire.DecodeView(body[1:])
			if derr != nil {
				continue
			}
			s.installView(v)
			if s.h.View != nil {
				s.h.View(v)
			}
		case frameResume:
			r, derr := wire.DecodeEpochReport(body[1:])
			if derr == nil && s.h.Resume != nil {
				s.h.Resume(r)
			}
		case framePing, frameRoster:
			// Harmless repeats.
		}
	}
}

// pingLoop keeps the coordinator's liveness deadline fed.
func (s *Session) pingLoop() {
	t := time.NewTicker(s.env.hbInterval())
	defer t.Stop()
	for {
		select {
		case <-s.pingDone:
			return
		case <-t.C:
			if err := s.cc.writeFrame(framePing, nil); err != nil {
				return // read loop diagnoses the loss
			}
		}
	}
}
