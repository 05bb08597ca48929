package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"armci/internal/pipeline"
	"armci/internal/wire"
)

// Config describes one coordinator — the rendezvous point and control
// plane of a multi-process launch.
type Config struct {
	// Procs is the total user-process (rank) count of the launch.
	Procs int
	// ProcsPerNode is how many consecutive ranks one worker process
	// hosts. Defaults to 1.
	ProcsPerNode int
	// Cookie is the per-launch shared secret workers must present.
	Cookie uint64
	// Addr is the listen address. Defaults to an ephemeral loopback
	// port, "127.0.0.1:0".
	Addr string
	// JoinTimeout bounds the rendezvous: if not every node has joined
	// within it, the launch fails listing how many arrived. Defaults to
	// 30s.
	JoinTimeout time.Duration
	// HeartbeatTimeout is how long a worker connection may stay silent
	// (no pings, no control frames) before the worker is declared dead.
	// Defaults to 5s. Workers ping at a fraction of this (see WorkerEnv).
	HeartbeatTimeout time.Duration
	// Logf, if non-nil, receives diagnostic log lines (rejections,
	// fault declarations).
	Logf func(format string, args ...any)
	// Elastic turns worker loss from a fatal fault into a membership
	// change: the coordinator bumps the view epoch, respawns the dead
	// node's worker, and hands every node the resume epoch once all have
	// acked the new view, instead of failing the launch. One loss per
	// launch is repaired (maxRecoveries); a later one is a fault.
	Elastic bool
	// Respawn relaunches the worker process for a node slot at the given
	// incarnation (>= 1) and view epoch. Required when Elastic is set;
	// invoked from its own goroutine.
	Respawn func(node int, incarnation uint32, viewEpoch uint64) error
}

func (c *Config) normalize() error {
	if c.Procs <= 0 {
		return fmt.Errorf("cluster: config needs Procs >= 1, got %d", c.Procs)
	}
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = 1
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Elastic && c.Respawn == nil {
		return fmt.Errorf("cluster: elastic config needs a Respawn hook")
	}
	return nil
}

// maxRecoveries bounds how many worker losses one launch repairs; a later
// loss is declared a fault, as is one arriving while a repair is in flight.
// At one, no installed view is ever superseded: the waits that abort on a
// newer view (transport.ElasticEnv) cannot meet one.
const maxRecoveries = 1

func (c *Config) numNodes() int { return (c.Procs + c.ProcsPerNode - 1) / c.ProcsPerNode }

// Coordinator accepts worker connections, admits them through the hello
// handshake, broadcasts the roster and the membership views, runs the
// drain and the recovery hand-off, and watches each worker's
// liveness. It carries no data: every frame it writes it originated.
// One Coordinator serves one launch.
type Coordinator struct {
	cfg Config
	ln  net.Listener

	mu         sync.Mutex
	conns      map[int]*clusterConn // node → admitted connection
	joined     int
	rosterSent bool
	clockStart int64 // Unix ns of the roster broadcast: every worker's fabric time 0
	usersDone  map[int]bool
	drainSent  bool
	finished   int                  // conns closed normally after drain
	fault      *pipeline.FaultError // first declared fault
	err        error                // final result, set by finish

	// Elastic membership state.
	inc        []uint32             // per-node incarnation (spawn count)
	peerAddrs  []string             // per-node direct data-listener address
	viewEpoch  uint64               // bumped on every membership change
	recoveries int                  // membership changes performed so far
	recovering bool                 // a view change is awaiting acks
	deadNode   int                  // slot being replaced (valid while recovering)
	acks       map[int]wire.ViewAck // node → ack at the current view epoch

	done     chan struct{}
	doneOnce sync.Once
}

// NewCoordinator binds the rendezvous listener and starts accepting
// workers. The returned coordinator runs until Wait returns or Close is
// called.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ln, err := Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:       cfg,
		ln:        ln,
		conns:     make(map[int]*clusterConn),
		usersDone: make(map[int]bool),
		inc:       make([]uint32, cfg.numNodes()),
		peerAddrs: make([]string, cfg.numNodes()),
		deadNode:  -1,
		done:      make(chan struct{}),
	}
	go Accept(ln, co.serveConn)
	time.AfterFunc(cfg.JoinTimeout, co.joinDeadline)
	return co, nil
}

// Addr returns the address workers must dial.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Wait blocks until the launch completes and returns nil on a clean
// drain, a *pipeline.FaultError when a worker was declared dead, or a
// descriptive error when rendezvous timed out.
func (co *Coordinator) Wait() error {
	<-co.done
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.err
}

// Close tears the coordinator down. Safe to call at any time and after
// Wait; a Close racing a live run surfaces as a closed-coordinator
// error from Wait.
func (co *Coordinator) Close() {
	co.finish(fmt.Errorf("cluster: coordinator closed"))
}

// joinDeadline fails the launch if rendezvous did not complete in time.
func (co *Coordinator) joinDeadline() {
	co.mu.Lock()
	if co.rosterSent || co.err != nil {
		co.mu.Unlock()
		return
	}
	joined := co.joined
	co.mu.Unlock()
	co.finish(fmt.Errorf("cluster: rendezvous timeout: only %d of %d workers joined %s within %v",
		joined, co.cfg.numNodes(), co.Addr(), co.cfg.JoinTimeout))
}

// finish settles the launch outcome exactly once and tears everything
// down. The first caller's error wins.
func (co *Coordinator) finish(err error) {
	co.doneOnce.Do(func() {
		co.mu.Lock()
		co.err = err
		conns := co.connsLocked(-1)
		co.mu.Unlock()
		co.ln.Close()
		for _, cc := range conns {
			cc.c.Close()
		}
		close(co.done)
	})
}

// serveConn runs one worker connection: handshake, then the read loop
// with per-read liveness deadlines. The socket is closed here on every
// exit: connFinished and elasticRecover unregister it, so finish cannot.
func (co *Coordinator) serveConn(c net.Conn) {
	defer c.Close()
	cc := &clusterConn{c: c}
	c.SetReadDeadline(time.Now().Add(co.cfg.JoinTimeout))
	body, err := wire.ReadFrame(c)
	if err != nil {
		return
	}
	node, rerr := co.admit(cc, body)
	if rerr != nil {
		cc.writeFrame(frameReject, []byte(rerr.Error()))
		co.cfg.Logf("cluster: rejected %v: %v", c.RemoteAddr(), rerr)
		return
	}

	for {
		// Until the roster is out, workers sit quiet waiting for
		// stragglers, so liveness can only be judged against the join
		// window; afterwards pings arrive every heartbeat interval.
		co.mu.Lock()
		dl := co.cfg.HeartbeatTimeout
		if !co.rosterSent {
			dl += co.cfg.JoinTimeout
		}
		parked := time.Now()
		c.SetReadDeadline(parked.Add(dl))
		co.mu.Unlock()

		body, err := wire.ReadFrame(c)
		if err != nil {
			co.mu.Lock()
			benign := co.drainSent || co.fault != nil || co.err != nil
			stale := co.conns[node] != cc // already deposed by a newer incarnation
			co.mu.Unlock()
			if benign || stale {
				co.connFinished(node, cc)
				return
			}
			reason := fmt.Sprintf("connection to worker node %d lost (%v)", node, err)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				reason = fmt.Sprintf("worker node %d went silent: no heartbeat for %v", node, time.Since(parked).Round(time.Millisecond))
			}
			if co.elasticRecover(node, reason) {
				return
			}
			co.declareFault(node, reason)
			return
		}
		if len(body) == 0 {
			continue
		}
		switch body[0] {
		case framePing:
		case frameUserDone:
			co.userDone(node)
		case frameViewAck:
			a, derr := wire.DecodeViewAck(body[1:])
			if derr != nil {
				co.declareFault(node, fmt.Sprintf("worker node %d sent a corrupt view ack: %v", node, derr))
				return
			}
			co.onViewAck(node, a)
		default:
			co.declareFault(node, fmt.Sprintf("worker node %d sent unknown frame type %#x", node, body[0]))
			return
		}
	}
}

// admit validates a hello frame and registers the connection; when the
// last node arrives it broadcasts the roster. Returns the node index or
// the rejection reason.
func (co *Coordinator) admit(cc *clusterConn, body []byte) (int, error) {
	if len(body) < 1 || body[0] != frameHello {
		return 0, fmt.Errorf("first frame is not a cluster hello")
	}
	h, err := wire.DecodeClusterHello(body[1:])
	if err != nil {
		return 0, err
	}
	if h.Cookie != co.cfg.Cookie {
		return 0, fmt.Errorf("cookie mismatch: worker is not from this launch")
	}
	if h.Procs != co.cfg.Procs || h.ProcsPerNode != co.cfg.ProcsPerNode {
		return 0, fmt.Errorf("cluster shape mismatch: worker built for %d procs × %d/node, launch is %d × %d",
			h.Procs, h.ProcsPerNode, co.cfg.Procs, co.cfg.ProcsPerNode)
	}
	if h.Node < 0 || h.Node >= co.cfg.numNodes() {
		return 0, fmt.Errorf("node claim %d out of range [0,%d)", h.Node, co.cfg.numNodes())
	}

	co.mu.Lock()
	if co.conns[h.Node] != nil {
		co.mu.Unlock()
		return 0, fmt.Errorf("node %d already joined: duplicate worker", h.Node)
	}
	if h.Incarnation != co.inc[h.Node] {
		cur := co.inc[h.Node]
		co.mu.Unlock()
		return 0, fmt.Errorf("node %d presented incarnation %d, current view admits %d", h.Node, h.Incarnation, cur)
	}
	co.conns[h.Node] = cc
	co.peerAddrs[h.Node] = h.PeerAddr
	if co.rosterSent {
		// A respawned incarnation rejoining mid-run: hand it the roster
		// and current view directly, and refresh everyone else's view so
		// survivors learn its new peer address.
		view := co.viewLocked()
		others := co.connsLocked(h.Node)
		co.mu.Unlock()
		cc.writeFrame(frameRoster, rosterPayload(co.cfg.Procs, co.cfg.ProcsPerNode, co.cfg.numNodes(), co.clockStart))
		payload := wire.EncodeView(view)
		cc.writeFrame(frameView, payload)
		for _, other := range others {
			other.writeFrame(frameView, payload)
		}
		co.cfg.Logf("cluster: node %d rejoined as incarnation %d", h.Node, h.Incarnation)
		return h.Node, nil
	}
	co.joined++
	complete := co.joined == co.cfg.numNodes()
	if complete {
		co.rosterSent = true
		co.clockStart = time.Now().UnixNano()
	}
	var conns []*clusterConn
	var view wire.View
	if complete {
		conns, view = co.connsLocked(-1), co.viewLocked()
		for _, other := range conns {
			// A reader parked since before the roster holds a deadline
			// sized for the join window; heartbeats are due from now on.
			other.c.SetReadDeadline(time.Now().Add(co.cfg.HeartbeatTimeout))
		}
	}
	co.mu.Unlock()

	if complete {
		payload := rosterPayload(co.cfg.Procs, co.cfg.ProcsPerNode, co.cfg.numNodes(), co.clockStart)
		viewPayload := wire.EncodeView(view)
		for _, other := range conns {
			other.writeFrame(frameRoster, payload)
			other.writeFrame(frameView, viewPayload)
		}
	}
	return h.Node, nil
}

// connsLocked snapshots the admitted connections, all but node except's
// (-1 for none), so that frames are written to them outside co.mu.
// Callers hold co.mu.
func (co *Coordinator) connsLocked(except int) []*clusterConn {
	conns := make([]*clusterConn, 0, len(co.conns))
	for n, cc := range co.conns {
		if n != except {
			conns = append(conns, cc)
		}
	}
	return conns
}

// viewLocked renders the current membership view. Callers hold co.mu.
func (co *Coordinator) viewLocked() wire.View {
	v := wire.View{Epoch: co.viewEpoch, Dead: co.deadNode}
	if !co.recovering {
		v.Dead = -1
	}
	for n := 0; n < co.cfg.numNodes(); n++ {
		v.Members = append(v.Members, wire.ViewMember{Node: n, Incarnation: co.inc[n], Addr: co.peerAddrs[n]})
	}
	return v
}

// userDone records one node's user ranks finishing; when every node has
// reported, the drain broadcast tells workers to stop their servers.
func (co *Coordinator) userDone(node int) {
	co.mu.Lock()
	co.usersDone[node] = true
	if len(co.usersDone) < co.cfg.numNodes() || co.drainSent {
		co.mu.Unlock()
		return
	}
	co.drainSent = true
	conns := co.connsLocked(-1)
	co.mu.Unlock()
	for _, cc := range conns {
		cc.writeFrame(frameDrain, nil)
	}
}

// connFinished records a post-drain connection close; when the last one
// goes, the launch completed cleanly. Only the connection currently
// registered for the node counts — a deposed incarnation's close must
// not unregister its successor.
func (co *Coordinator) connFinished(node int, cc *clusterConn) {
	co.mu.Lock()
	if co.conns[node] == cc {
		delete(co.conns, node)
		co.finished++
	}
	clean := co.drainSent && co.finished == co.cfg.numNodes()
	co.mu.Unlock()
	if clean {
		co.finish(nil)
	}
}

// declareFault attributes a lost worker to its first rank, broadcasts
// the fault to survivors (so every blocked peer aborts with the dead
// worker's rank, not its own), and fails the launch.
func (co *Coordinator) declareFault(node int, reason string) {
	fe := &pipeline.FaultError{
		Rank: node * co.cfg.ProcsPerNode,
		Op:   reason,
		Kind: pipeline.FaultPeerLost,
	}
	co.mu.Lock()
	if co.fault != nil || co.err != nil {
		co.mu.Unlock()
		return
	}
	co.fault = fe
	conns := co.connsLocked(node)
	co.mu.Unlock()

	co.cfg.Logf("cluster: fault: %v", fe)
	payload := faultPayload(fe.Rank, reason)
	for _, cc := range conns {
		cc.writeFrame(frameFault, payload)
	}
	co.finish(fe)
}

// elasticRecover turns a lost worker into a membership change: bump the
// view epoch and the slot's incarnation, broadcast the new view to
// survivors, and respawn the dead worker. Returns false when the loss
// cannot be repaired (elastic off, recovery budget spent, rendezvous not
// complete, or a recovery already in flight) — the caller then falls
// back to declareFault.
func (co *Coordinator) elasticRecover(node int, reason string) bool {
	co.mu.Lock()
	if !co.cfg.Elastic || !co.rosterSent || co.recovering ||
		co.recoveries >= maxRecoveries || co.fault != nil || co.err != nil {
		co.mu.Unlock()
		return false
	}
	co.recoveries++
	co.recovering = true
	co.deadNode = node
	co.viewEpoch++
	co.inc[node]++
	co.peerAddrs[node] = ""
	delete(co.conns, node)
	delete(co.usersDone, node)
	co.acks = make(map[int]wire.ViewAck)
	epoch := co.viewEpoch
	incarnation := co.inc[node]
	view := co.viewLocked()
	survivors := co.connsLocked(-1)
	co.mu.Unlock()

	co.cfg.Logf("cluster: view %d: node %d lost (%s), respawning incarnation %d", epoch, node, reason, incarnation)
	payload := wire.EncodeView(view)
	for _, cc := range survivors {
		cc.writeFrame(frameView, payload)
	}
	go func() {
		if err := co.cfg.Respawn(node, incarnation, epoch); err != nil {
			co.declareFault(node, fmt.Sprintf("respawn of node %d failed: %v", node, err))
		}
	}()
	// The respawned worker must rejoin within the join window or the
	// recovery is abandoned.
	time.AfterFunc(co.cfg.JoinTimeout, func() {
		co.mu.Lock()
		stuck := co.recovering && co.viewEpoch == epoch
		co.mu.Unlock()
		if stuck {
			co.declareFault(node, fmt.Sprintf("respawned node %d did not rejoin within %v", node, co.cfg.JoinTimeout))
		}
	})
	return true
}

// onViewAck collects view acknowledgments; once every node of the new
// view (survivors plus the respawned worker) has acked, the resume
// epoch — the newest sync epoch any survivor committed — is broadcast
// and the recovery hand-off completes.
func (co *Coordinator) onViewAck(node int, a wire.ViewAck) {
	co.mu.Lock()
	if !co.recovering || a.Epoch != co.viewEpoch {
		co.mu.Unlock()
		return
	}
	co.acks[node] = a
	if len(co.acks) < co.cfg.numNodes() {
		co.mu.Unlock()
		return
	}
	var resume uint64
	for n, ack := range co.acks {
		if n != co.deadNode && ack.Committed > resume {
			resume = ack.Committed
		}
	}
	dead := co.deadNode
	co.recovering = false
	conns := co.connsLocked(-1)
	co.mu.Unlock()

	co.cfg.Logf("cluster: view %d acked by all nodes, resuming from sync epoch %d", a.Epoch, resume)
	payload := wire.EncodeEpochReport(wire.EpochReport{Node: dead, Epoch: resume})
	for _, cc := range conns {
		cc.writeFrame(frameResume, payload)
	}
}
