package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

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

// Coordinator is the control plane of one launch, a thin driver around
// its session state: it accepts worker connections, turns their frames,
// read errors and the launch's timers into state events, and carries out
// the frames, respawns and teardown the state decides on. It carries no
// data: every frame it writes it originated. One Coordinator serves one
// launch.
type Coordinator struct {
	ln   net.Listener
	done chan struct{} // closed by the finish action

	mu    sync.Mutex // guards state; taken by step and the read-deadline choice
	state            // cfg is read-only after NewCoordinator
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
	cfg.Addr = ln.Addr().String()
	co := &Coordinator{ln: ln, done: make(chan struct{}), state: newState(cfg)}
	go Accept(ln, co.serveConn)
	time.AfterFunc(cfg.JoinTimeout, func() { co.step((*state).joinDeadline) })
	return co, nil
}

// Addr returns the address workers must dial.
func (co *Coordinator) Addr() string { return co.cfg.Addr }

// Wait blocks until the launch completes and returns nil on a clean
// drain, a *pipeline.FaultError when a worker was declared dead, or a
// descriptive error when rendezvous timed out.
func (co *Coordinator) Wait() error {
	<-co.done // closed after err is settled, and err never changes again
	return co.err
}

// Close tears the coordinator down. Safe to call at any time and after
// Wait; a Close racing a live run surfaces as a closed-coordinator
// error from Wait.
func (co *Coordinator) Close() {
	co.step(func(s *state) { s.finish(fmt.Errorf("cluster: coordinator closed")) })
}

// step runs one event on the state under co.mu, then carries out the
// actions it decided on after the unlock, in order: no frame is written
// and no socket closed while co.mu is held.
func (co *Coordinator) step(ev func(*state)) {
	co.mu.Lock()
	ev(&co.state)
	acts := co.out
	co.out = nil
	co.mu.Unlock()
	for _, a := range acts {
		switch a.kind {
		case actFrame:
			if a.typ == frameRoster {
				// A reader parked since before the roster holds a deadline
				// sized for the join window; heartbeats are due from now on.
				a.to.c.SetReadDeadline(time.Now().Add(co.cfg.HeartbeatTimeout))
			}
			a.to.writeFrame(a.typ, a.payload)
		case actRespawn:
			go func() {
				if err := co.cfg.Respawn(a.node, a.inc, a.epoch); err != nil {
					co.step(func(s *state) { s.fault(a.node, fmt.Sprintf("respawn of node %d failed: %v", a.node, err)) })
				}
			}()
			// The respawned worker must rejoin, and the view be acked,
			// within the join window or the recovery is abandoned.
			time.AfterFunc(co.cfg.JoinTimeout, func() { co.step(func(s *state) { s.rejoinDeadline(a.epoch) }) })
		case actFinish:
			co.ln.Close()
			for _, cc := range a.conns {
				cc.c.Close()
			}
			close(co.done)
		}
	}
}

// serveConn runs one worker connection: handshake, then the read loop
// with per-read liveness deadlines. The socket is closed here on every
// exit: a lost connection is unregistered by the state, so finish cannot.
func (co *Coordinator) serveConn(c net.Conn) {
	defer c.Close()
	cc := &clusterConn{c: c}
	c.SetReadDeadline(time.Now().Add(co.cfg.JoinTimeout))
	body, err := wire.ReadFrame(c)
	if err != nil {
		return
	}
	var h wire.ClusterHello
	if len(body) < 1 || body[0] != frameHello {
		err = fmt.Errorf("first frame is not a cluster hello")
	} else if h, err = wire.DecodeClusterHello(body[1:]); err == nil {
		co.step(func(s *state) { err = s.hello(cc, h, time.Now()) })
	}
	if err != nil {
		cc.writeFrame(frameReject, []byte(err.Error()))
		co.cfg.Logf("cluster: rejected %v: %v", c.RemoteAddr(), err)
		return
	}
	node := h.Node

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
			reason := fmt.Sprintf("connection to worker node %d lost (%v)", node, err)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				reason = fmt.Sprintf("worker node %d went silent: no heartbeat for %v", node, time.Since(parked).Round(time.Millisecond))
			}
			co.step(func(s *state) { s.lost(node, cc, reason) })
			return
		}
		if len(body) == 0 {
			continue
		}
		switch body[0] {
		case framePing:
		case frameUserDone:
			co.step(func(s *state) { s.userDone(node) })
		case frameViewAck:
			a, derr := wire.DecodeViewAck(body[1:])
			if derr != nil {
				co.step(func(s *state) { s.fault(node, fmt.Sprintf("worker node %d sent a corrupt view ack: %v", node, derr)) })
				return
			}
			co.step(func(s *state) { s.ack(node, a) })
		default:
			reason := fmt.Sprintf("worker node %d sent unknown frame type %#x", node, body[0])
			co.step(func(s *state) { s.fault(node, reason) })
			return
		}
	}
}
