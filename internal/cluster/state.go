package cluster

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"armci/internal/pipeline"
	"armci/internal/wire"
)

// state is the coordinator's session: everything a control decision reads,
// and one method per event that can change it. A method decides and
// appends the I/O its decision needs to out; it touches no socket, timer
// or process, so a test can drive it in any order with no launch
// (FuzzCoordinator does). Connections are opaque handles here: state
// compares them and names them in actions, and the driver (Coordinator)
// writes and closes them.
type state struct {
	cfg Config // normalized; Addr is the bound listener address

	conns      map[int]*clusterConn // node → admitted connection
	rosterSent bool
	clockStart int64 // Unix ns of the roster broadcast: every worker's fabric time 0
	usersDone  map[int]bool
	drainSent  bool
	done       bool  // finish ran; nothing is sent after it
	err        error // final result, set by finish

	// Elastic membership state.
	inc        []uint32             // per-node incarnation (spawn count)
	peerAddrs  []string             // per-node direct data-listener address
	viewEpoch  uint64               // bumped on every membership change
	recoveries int                  // membership changes performed so far
	recovering bool                 // a view change is awaiting acks
	deadNode   int                  // slot being replaced (valid while recovering)
	acks       map[int]wire.ViewAck // node → ack at the current view epoch
	out        []action             // what the current event asks the driver to do, in order
}

// An action is one piece of I/O a transition hands the driver.
type action struct {
	kind    uint8          // actFrame, actRespawn or actFinish
	node    int            // actFrame: the addressee; actRespawn: the slot
	to      *clusterConn   // actFrame: node's connection
	typ     byte           // actFrame: frame type
	payload []byte         // actFrame: frame payload
	inc     uint32         // actRespawn: the incarnation to launch
	epoch   uint64         // actRespawn: the view it joins, and its rejoin deadline's
	conns   []*clusterConn // actFinish: every admitted connection, to close
}

const (
	actFrame   = iota // write one frame to a connection
	actRespawn        // relaunch a node's worker and arm its rejoin deadline
	actFinish         // settle the launch: close the listener and every connection
)

func newState(cfg Config) state {
	n := cfg.numNodes()
	return state{cfg: cfg, conns: make(map[int]*clusterConn), usersDone: make(map[int]bool),
		inc: make([]uint32, n), peerAddrs: make([]string, n), deadNode: -1}
}

// send writes one frame to node's connection, if it has one and the
// launch is not over.
func (s *state) send(node int, typ byte, payload []byte) {
	if cc := s.conns[node]; cc != nil && !s.done {
		s.out = append(s.out, action{kind: actFrame, node: node, to: cc, typ: typ, payload: payload})
	}
}

// broadcast sends one frame to every node but except (-1 for none).
func (s *state) broadcast(except int, typ byte, payload []byte) {
	for n := range s.cfg.numNodes() {
		if n != except {
			s.send(n, typ, payload)
		}
	}
}

// view renders the current membership view.
func (s *state) view() []byte {
	v := wire.View{Epoch: s.viewEpoch, Dead: s.deadNode}
	if !s.recovering {
		v.Dead = -1
	}
	for n := range s.cfg.numNodes() {
		v.Members = append(v.Members, wire.ViewMember{Node: n, Incarnation: s.inc[n], Addr: s.peerAddrs[n]})
	}
	return wire.EncodeView(v)
}

// hello admits a worker's connection from, or returns the reason it is
// rejected. The last node of the rendezvous gets everyone the roster;
// after it, the only newcomer admitted is the respawn of the slot under
// recovery. now is the roster's clock start if this hello completes it.
func (s *state) hello(from *clusterConn, h wire.ClusterHello, now time.Time) error {
	switch {
	case s.done:
		return fmt.Errorf("the launch is over")
	case h.Cookie != s.cfg.Cookie:
		return fmt.Errorf("cookie mismatch: worker is not from this launch")
	case h.Procs != s.cfg.Procs || h.ProcsPerNode != s.cfg.ProcsPerNode:
		return fmt.Errorf("cluster shape mismatch: worker built for %d procs × %d/node, launch is %d × %d",
			h.Procs, h.ProcsPerNode, s.cfg.Procs, s.cfg.ProcsPerNode)
	case h.Node < 0 || h.Node >= s.cfg.numNodes():
		return fmt.Errorf("node claim %d out of range [0,%d)", h.Node, s.cfg.numNodes())
	case s.rosterSent && (!s.recovering || s.drainSent):
		// After the roster the one newcomer is the respawn of the slot
		// under recovery, before the drain. Any other hello — a second
		// worker for a node whose connection closed after the drain, say —
		// would be announced to the survivors in a view as a rejoin.
		return fmt.Errorf("node %d: the launch admits no new worker after the roster", h.Node)
	case s.rosterSent && h.Node != s.deadNode:
		return fmt.Errorf("node %d: the launch admits no new worker after the roster except the respawn of node %d", h.Node, s.deadNode)
	case s.conns[h.Node] != nil:
		return fmt.Errorf("node %d already joined: duplicate worker", h.Node)
	case h.Incarnation != s.inc[h.Node]:
		return fmt.Errorf("node %d presented incarnation %d, current view admits %d", h.Node, h.Incarnation, s.inc[h.Node])
	}
	s.conns[h.Node] = from
	s.peerAddrs[h.Node] = h.PeerAddr
	if s.rosterSent {
		// A respawned incarnation rejoining mid-run: hand it the roster
		// and current view directly, and refresh everyone else's view so
		// survivors learn its new peer address.
		view := s.view()
		s.send(h.Node, frameRoster, rosterPayload(s.cfg.Procs, s.cfg.ProcsPerNode, s.cfg.numNodes(), s.clockStart))
		s.send(h.Node, frameView, view)
		s.broadcast(h.Node, frameView, view)
		s.cfg.Logf("cluster: node %d rejoined as incarnation %d", h.Node, h.Incarnation)
		return nil
	}
	if len(s.conns) == s.cfg.numNodes() {
		s.rosterSent = true
		s.clockStart = now.UnixNano()
		roster, view := rosterPayload(s.cfg.Procs, s.cfg.ProcsPerNode, s.cfg.numNodes(), s.clockStart), s.view()
		for n := range s.cfg.numNodes() {
			s.send(n, frameRoster, roster)
			s.send(n, frameView, view)
		}
	}
	return nil
}

// userDone records one node's user ranks finishing; when every node has
// reported, the drain broadcast tells workers to stop their servers.
func (s *state) userDone(node int) {
	s.usersDone[node] = true
	if len(s.usersDone) == s.cfg.numNodes() && !s.drainSent {
		s.drainSent = true
		s.broadcast(-1, frameDrain, nil)
	}
}

// ack collects view acknowledgments; once every node of the new view
// (survivors plus the respawned worker) has acked, the resume epoch — the
// newest sync epoch any survivor committed — is broadcast and the
// recovery hand-off completes.
func (s *state) ack(node int, a wire.ViewAck) {
	if !s.recovering || a.Epoch != s.viewEpoch {
		return
	}
	s.acks[node] = a
	if len(s.acks) < s.cfg.numNodes() {
		return
	}
	var resume uint64
	for n, ack := range s.acks {
		if n != s.deadNode && ack.Committed > resume {
			resume = ack.Committed
		}
	}
	s.recovering = false
	s.cfg.Logf("cluster: view %d acked by all nodes, resuming from sync epoch %d", a.Epoch, resume)
	s.broadcast(-1, frameResume, wire.EncodeEpochReport(wire.EpochReport{Node: s.deadNode, Epoch: resume}))
}

// lost handles the end of connection from, node's. After the drain or the
// verdict, or for a connection already deposed, it is a normal close: only
// the connection registered for the node is removed, so a deposed
// incarnation's close cannot unregister its successor, and the launch is
// clean once the drain is out and no connection is left. Otherwise the
// worker died, and the loss is a fault unless it can be repaired: elastic
// on, rendezvous complete, the recovery budget not spent and no recovery
// already in flight.
func (s *state) lost(node int, from *clusterConn, reason string) {
	switch {
	case s.drainSent || s.done || s.conns[node] != from:
		if s.conns[node] == from {
			delete(s.conns, node)
		}
		if s.drainSent && len(s.conns) == 0 {
			s.finish(nil)
		}
	case !s.cfg.Elastic || !s.rosterSent || s.recovering || s.recoveries >= maxRecoveries:
		s.fault(node, reason)
	default:
		// A membership change: a new view epoch and incarnation for the
		// slot, the view to the survivors, and a respawn.
		s.recoveries++
		s.recovering = true
		s.deadNode = node
		s.viewEpoch++
		s.inc[node]++
		s.peerAddrs[node] = ""
		delete(s.conns, node)
		delete(s.usersDone, node)
		s.acks = make(map[int]wire.ViewAck)
		s.cfg.Logf("cluster: view %d: node %d lost (%s), respawning incarnation %d", s.viewEpoch, node, reason, s.inc[node])
		s.broadcast(-1, frameView, s.view())
		s.out = append(s.out, action{kind: actRespawn, node: node, inc: s.inc[node], epoch: s.viewEpoch})
	}
}

// fault attributes a lost worker to its first rank, broadcasts the fault
// to survivors (so every blocked peer aborts with the dead worker's rank,
// not its own), and fails the launch.
func (s *state) fault(node int, reason string) {
	if s.done {
		return
	}
	fe := &pipeline.FaultError{Rank: node * s.cfg.ProcsPerNode, Op: reason, Kind: pipeline.FaultPeerLost}
	s.cfg.Logf("cluster: fault: %v", fe)
	s.broadcast(node, frameFault, faultPayload(fe.Rank, reason))
	s.finish(fe)
}

// joinDeadline fails the launch if rendezvous did not complete in time.
func (s *state) joinDeadline() {
	if !s.rosterSent && !s.done {
		s.finish(fmt.Errorf("cluster: rendezvous timeout: only %d of %d workers joined %s within %v",
			len(s.conns), s.cfg.numNodes(), s.cfg.Addr, s.cfg.JoinTimeout))
	}
}

// rejoinDeadline abandons the recovery to view epoch if it is still open
// a join window after the respawn, blaming whoever holds it up: the
// respawned node if it never rejoined, else the lowest node that has not
// acked the view.
func (s *state) rejoinDeadline(epoch uint64) {
	if !s.recovering || s.viewEpoch != epoch {
		return
	}
	if s.conns[s.deadNode] == nil {
		s.fault(s.deadNode, fmt.Sprintf("respawned node %d did not rejoin within %v", s.deadNode, s.cfg.JoinTimeout))
		return
	}
	for n := range s.cfg.numNodes() {
		if _, ok := s.acks[n]; !ok {
			s.fault(n, fmt.Sprintf("node %d did not ack view %d within %v", n, epoch, s.cfg.JoinTimeout))
			return
		}
	}
}

// finish settles the launch outcome exactly once and asks the driver to
// tear everything down. The first caller's error wins.
func (s *state) finish(err error) {
	if s.done {
		return
	}
	s.done, s.err = true, err
	s.out = append(s.out, action{kind: actFinish, conns: slices.Collect(maps.Values(s.conns))})
}
