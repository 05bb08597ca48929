package cluster

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"armci/internal/pipeline"
	"armci/internal/wire"
)

// testState is a coordinator session for procs ranks, ppn to a node, with
// no listener, socket or process behind it.
func testState(procs, ppn int, elastic bool) state {
	cfg := Config{Procs: procs, ProcsPerNode: ppn, Cookie: 7, Elastic: elastic,
		Respawn: func(int, uint32, uint64) error { return nil }}
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	return newState(cfg)
}

// testHello sends the hello of node's worker at incarnation inc.
func (s *state) testHello(node int, inc uint32) (*clusterConn, error) {
	cc := &clusterConn{}
	h := wire.ClusterHello{Node: node, Procs: s.cfg.Procs, ProcsPerNode: s.cfg.ProcsPerNode, Cookie: s.cfg.Cookie, Incarnation: inc}
	return cc, s.hello(cc, h, time.Unix(1, 0))
}

// joinAll admits every node's first worker and returns their connections.
func (s *state) joinAll(t *testing.T) []*clusterConn {
	t.Helper()
	conns := make([]*clusterConn, s.cfg.numNodes())
	for n := range conns {
		var err error
		if conns[n], err = s.testHello(n, 0); err != nil {
			t.Fatalf("hello of node %d: %v", n, err)
		}
	}
	return conns
}

// TestRejoinDeadlineBlamesWhoHoldsTheViewUp: a recovery still open when
// its deadline fires names the respawned node only if it never rejoined.
// If it did, the survivor that never acked the view is the one at fault.
func TestRejoinDeadlineBlamesWhoHoldsTheViewUp(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rejoin  bool
		rank    int
		because string
	}{
		{"respawn rejoined, node 2 silent", true, 4, "node 2 did not ack view 1"},
		{"respawn never rejoined", false, 2, "respawned node 1 did not rejoin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testState(8, 2, true)
			conns := s.joinAll(t)
			s.lost(1, conns[1], "killed")
			if tc.rejoin {
				if _, err := s.testHello(1, 1); err != nil {
					t.Fatalf("respawn's hello: %v", err)
				}
			}
			for _, n := range []int{0, 1, 3} {
				s.ack(n, wire.ViewAck{Epoch: 1})
			}
			s.rejoinDeadline(1)
			var fe *pipeline.FaultError
			if !s.done || !errors.As(s.err, &fe) || fe.Kind != pipeline.FaultPeerLost || fe.Rank != tc.rank || !strings.Contains(fe.Op, tc.because) {
				t.Fatalf("verdict = %v, want FaultPeerLost on rank %d because %q", s.err, tc.rank, tc.because)
			}
		})
	}
}

// TestHelloAfterRosterIsOnlyTheRespawn: after the roster a hello is
// admitted only as the respawn of the slot under recovery. A second worker
// for a node whose connection closed after the drain is refused by name:
// it is not announced to the others as a rejoin, and the launch is settled
// clean once the real workers have left.
func TestHelloAfterRosterIsOnlyTheRespawn(t *testing.T) {
	s := testState(2, 1, false)
	conns := s.joinAll(t)
	s.userDone(0)
	s.userDone(1)
	s.lost(0, conns[0], "closed")
	if _, err := s.testHello(0, 0); err == nil || !strings.Contains(err.Error(), "admits no new worker after the roster") {
		t.Fatalf("second worker for node 0 after the drain: %v, want it refused by name", err)
	}
	if s.done {
		t.Fatalf("launch settled (%v) while node 1 is still connected", s.err)
	}
	s.lost(1, conns[1], "closed")
	if !s.done || s.err != nil {
		t.Fatalf("after every worker left: done=%v err=%v, want a clean verdict", s.done, s.err)
	}

	s = testState(3, 1, true)
	conns = s.joinAll(t)
	s.lost(1, conns[1], "killed")
	if _, err := s.testHello(2, 0); err == nil || !strings.Contains(err.Error(), "except the respawn of node 1") {
		t.Fatalf("hello of node 2 while node 1 is respawned: %v, want it refused naming node 1", err)
	}
	respawn, err := s.testHello(1, 1)
	if err != nil {
		t.Fatalf("respawn of node 1: %v", err)
	}
	for n := range 3 {
		s.userDone(n)
	}
	s.lost(1, respawn, "closed")
	if _, err := s.testHello(1, 1); err == nil || !strings.Contains(err.Error(), "admits no new worker after the roster") {
		t.Fatalf("second respawn of node 1 after the drain: %v, want it refused by name", err)
	}
}

// Events of a FuzzCoordinator script: each is an opcode byte and an
// argument byte. The argument's low nibble picks the node; its high one
// the incarnation (hello) or the view epoch (ack, rejoin deadline).
const (
	evHello = iota
	evUserDone
	evAck
	evLost
	evFault
	evJoinDeadline
	evRejoinDeadline
	evClose
	numEvents
)

// fuzzRun drives a state through a script and holds the model the
// invariants are checked against: which connections are live (their
// reader is running) and which views each node acked.
type fuzzRun struct {
	t          *testing.T
	s          state
	live       map[int]*clusterConn // node → connection the driver still reads
	acked      map[[2]uint64]bool   // (node, epoch) acked since the last respawn
	rostered   bool                 // the roster went out
	recovering bool                 // a respawn went out; its resume has not
	finishes   int
}

// FuzzCoordinator drives the session state directly, in adversarial
// orders: hellos at any incarnation, acks at any epoch, losses, faults
// and deadlines at any time, from any live connection. After every event
// it checks that no frame is addressed to a node with no connection, that
// a resume goes out only once every node has acked the view's epoch,
// that at most one recovery is in flight, that after the roster a view
// goes out only for a recovery, that a clean verdict comes only once
// every worker has left, and — with the closing Close — that the launch
// finishes exactly once, with nothing sent after it.
//
// A script's first byte is the shape: 1 + b%4 nodes, elastic if b&4, and
// 1 + (b>>3)&1 ranks a node.
func FuzzCoordinator(f *testing.F) {
	fourElastic := byte(3 | 4) // four nodes, one rank each, elastic
	for _, seed := range [][]byte{
		// A clean launch: rendezvous, users done, drain, every worker leaves.
		{1, evHello, 0, evHello, 1, evUserDone, 0, evUserDone, 1, evLost, 0, evLost, 1},
		// An elastic recovery: node 1 dies, its respawn rejoins, the view is
		// acked by all, the run drains.
		{fourElastic, evHello, 0, evHello, 1, evHello, 2, evHello, 3, evLost, 1, evHello, 0x11,
			evAck, 0x10, evAck, 0x11, evAck, 0x12, evAck, 0x13,
			evUserDone, 0, evUserDone, 1, evUserDone, 2, evUserDone, 3,
			evLost, 0, evLost, 1, evLost, 2, evLost, 3},
		// The respawn rejoined but node 2 never acks: the deadline blames it.
		{fourElastic, evHello, 0, evHello, 1, evHello, 2, evHello, 3, evLost, 1, evHello, 0x11,
			evAck, 0x10, evAck, 0x11, evAck, 0x13, evRejoinDeadline, 0x10},
		// A second worker for node 0 after its connection closed post-drain.
		{1, evHello, 0, evHello, 1, evUserDone, 0, evUserDone, 1, evLost, 0, evHello, 0, evLost, 0, evLost, 1},
		// The same for the respawned slot, drained before its view was acked.
		{2 | 4, evHello, 0, evHello, 1, evHello, 2, evLost, 1, evHello, 0x11,
			evUserDone, 0, evUserDone, 1, evUserDone, 2, evLost, 1, evHello, 0x11, evLost, 1, evLost, 0},
		// A stale ack from before the recovery, the rule the resume leans on.
		{fourElastic, evHello, 0, evHello, 1, evHello, 2, evHello, 3, evLost, 1, evHello, 0x11,
			evAck, 0x00, evAck, 0x11, evAck, 0x02, evAck, 0x13},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		shape := script[0]
		nodes, ppn := 1+int(shape%4), 1+int(shape>>3&1)
		r := &fuzzRun{t: t, s: testState(nodes*ppn, ppn, shape&4 != 0),
			live: make(map[int]*clusterConn), acked: make(map[[2]uint64]bool)}
		for i := 1; i+1 < len(script); i += 2 {
			r.event(script[i]%numEvents, script[i+1])
			r.check()
		}
		r.s.finish(errors.New("closed"))
		r.check()
		if r.finishes != 1 {
			t.Fatalf("the launch finished %d times, want exactly once", r.finishes)
		}
	})
}

// event delivers one scripted event, as the driver would: events from a
// connection come only while its reader runs.
func (r *fuzzRun) event(op, arg byte) {
	s := &r.s
	node, hi := int(arg&0xf)%s.cfg.numNodes(), arg>>4
	from := r.live[node]
	switch op {
	case evHello:
		if cc, err := s.testHello(node, uint32(hi%3)); err == nil {
			r.live[node] = cc
		}
	case evUserDone:
		if from != nil {
			s.userDone(node)
		}
	case evAck:
		if from != nil {
			r.acked[[2]uint64{uint64(node), uint64(hi % 3)}] = true
			s.ack(node, wire.ViewAck{Epoch: uint64(hi % 3), Committed: uint64(arg)})
		}
	case evLost:
		if from != nil {
			delete(r.live, node)
			s.lost(node, from, "lost")
		}
	case evFault:
		s.fault(node, "fault")
	case evJoinDeadline:
		s.joinDeadline()
	case evRejoinDeadline:
		s.rejoinDeadline(uint64(hi % 3))
	case evClose:
		s.finish(errors.New("closed"))
	}
}

// check holds the actions of the last event against the invariants, then
// clears the state's out, as the driver's step does.
func (r *fuzzRun) check() {
	t, s := r.t, &r.s
	resumed, rostered := false, r.rostered
	respawning := slices.ContainsFunc(s.out, func(a action) bool { return a.kind == actRespawn })
	for _, a := range s.out {
		if r.finishes > 0 {
			t.Fatalf("action %+v after the finish", a)
		}
		switch a.kind {
		case actFrame:
			if a.to == nil || r.live[a.node] != a.to {
				t.Fatalf("frame %#x addressed to node %d, which has no connection", a.typ, a.node)
			}
			if a.typ == frameView && r.rostered && !r.recovering && !respawning {
				t.Fatalf("view pushed to node %d after the roster with no recovery in flight", a.node)
			}
			rostered = rostered || a.typ == frameRoster
			if a.typ != frameResume {
				break
			}
			if !r.recovering {
				t.Fatalf("resume to node %d with no recovery in flight", a.node)
			}
			for n := range s.cfg.numNodes() {
				if !r.acked[[2]uint64{uint64(n), s.viewEpoch}] {
					t.Fatalf("resume of view %d before node %d acked it", s.viewEpoch, n)
				}
			}
			resumed = true
		case actRespawn:
			if r.recovering {
				t.Fatalf("respawn of node %d while another recovery is in flight", a.node)
			}
			r.recovering = true
			clear(r.acked)
		case actFinish:
			r.finishes++
			if s.err == nil && len(r.live) > 0 {
				t.Fatalf("clean verdict while %d workers are still connected", len(r.live))
			}
		}
	}
	if resumed {
		r.recovering = false
	}
	r.rostered = rostered
	s.out = nil
}
