package cluster

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/wire"
)

// joinAsync starts a Join in the background; Join blocks until the
// whole roster assembles, so concurrent joins are the normal shape.
func joinAsync(env WorkerEnv, h Handlers) chan joinResult {
	ch := make(chan joinResult, 1)
	go func() {
		s, err := Join(env, h)
		ch <- joinResult{s, err}
	}()
	return ch
}

type joinResult struct {
	s   *Session
	err error
}

func testEnv(co *Coordinator, node int) WorkerEnv {
	return WorkerEnv{
		Addr:         co.Addr(),
		Node:         node,
		Procs:        co.cfg.Procs,
		ProcsPerNode: co.cfg.ProcsPerNode,
		Cookie:       co.cfg.Cookie,
		JoinTimeout:  5 * time.Second,
	}
}

// startCluster brings up a coordinator for cfg and joins one Session per
// node, with the handlers h returns for it. Everything is closed again
// when the test ends.
func startCluster(t testing.TB, cfg Config, h func(node int) Handlers) (*Coordinator, []*Session) {
	t.Helper()
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(co.Close)
	joins := make([]chan joinResult, co.cfg.numNodes())
	for node := range joins {
		joins[node] = joinAsync(testEnv(co, node), h(node))
	}
	sess := make([]*Session, len(joins))
	var failed error
	for node, ch := range joins {
		r := <-ch
		if r.err != nil {
			failed = r.err
			continue
		}
		sess[node] = r.s
		t.Cleanup(func() { r.s.Close() })
	}
	if failed != nil {
		t.Fatalf("join: %v", failed)
	}
	return co, sess
}

// runLaunch is one whole in-process launch of 4 ranks on 2 nodes:
// rendezvous, one message from each node to every rank — its own two
// included, the second frame to each node held for the sender's flush —
// drain, teardown, and a clean coordinator verdict. The coordinator faults
// on a data frame, so that verdict also proves every message, same-node
// ones too, took a worker-to-worker socket.
func runLaunch(t *testing.T) {
	t.Helper()
	const procs, ppn = 4, 2
	got := make(chan *msg.Message, procs*procs/ppn) // every send of the launch
	co, sess := startCluster(t, Config{Procs: procs, ProcsPerNode: ppn, Cookie: 7}, func(int) Handlers {
		return Handlers{Data: func(m *msg.Message) { got <- m }}
	})
	for node, s := range sess {
		var from Sender
		for rank := 0; rank < procs; rank++ {
			m := &msg.Message{Kind: msg.KindPut, Src: msg.User(node * ppn), Dst: msg.User(rank), Seq: 1, Tag: 42, Data: []byte("ring token")}
			s.SendMsg(&from, 0, rank/ppn, m)
		}
		from.Flush()
	}
	arrived := make(map[[2]int]bool) // (source rank, destination rank)
	for len(arrived) < cap(got) {
		select {
		case m := <-got:
			if m.Kind != msg.KindPut || m.Tag != 42 || string(m.Data) != "ring token" || arrived[[2]int{m.Src.ID(), m.Dst.ID()}] {
				t.Fatalf("message mutated or duplicated on the way: got %+v", m)
			}
			arrived[[2]int{m.Src.ID(), m.Dst.ID()}] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d messages arrived: %v", len(arrived), cap(got), arrived)
		}
	}

	// Drain protocol: every node reports users done, every node observes
	// the drain broadcast, and the coordinator settles cleanly.
	for node, s := range sess {
		if err := s.UserDone(); err != nil {
			t.Fatalf("UserDone(%d): %v", node, err)
		}
	}
	for node, s := range sess {
		select {
		case <-s.Drained():
		case <-time.After(5 * time.Second):
			t.Fatalf("node %d never saw the drain broadcast", node)
		}
		s.Close()
	}
	if err := co.Wait(); err != nil {
		t.Errorf("clean run: coordinator verdict = %v, want nil", err)
	}
}

func TestRendezvousDirectSendAndDrain(t *testing.T) { runLaunch(t) }

// TestRosterHandsOutOneClock: every worker of a launch gets the same clock
// start from the roster before Join returns — the instant their message
// stamps are measured from — and it is the moment the roster went out.
func TestRosterHandsOutOneClock(t *testing.T) {
	starts := make([]time.Time, 2)
	before := time.Now()
	startCluster(t, Config{Procs: 2, Cookie: 7}, func(node int) Handlers {
		return Handlers{ClockStart: func(start time.Time) { starts[node] = start }}
	})
	after := time.Now()
	if starts[0].UnixNano() != starts[1].UnixNano() {
		t.Fatalf("clock starts %v and %v differ", starts[0], starts[1])
	}
	for node, s := range starts {
		if s.Before(before.Add(-time.Millisecond)) || s.After(after) {
			t.Fatalf("node %d clock start %v outside the launch [%v, %v]", node, s, before, after)
		}
	}
}

// runLaunchFailsWhileCorked holds two frames for node 1 on node 0's
// connection to it, then takes the route away under them: a newer view that
// replaces node 1, or with closeSession node 0's Close. The sender's next
// flush drops them without a panic; node 1 gets only the first frame, which
// left at once.
func runLaunchFailsWhileCorked(t *testing.T, closeSession bool) {
	t.Helper()
	got := make(chan *msg.Message, 3)
	co, sess := startCluster(t, Config{Procs: 2, Cookie: 7}, func(int) Handlers {
		return Handlers{Data: func(m *msg.Message) { got <- m }}
	})
	var from Sender
	for i := 0; i < cap(got); i++ {
		m := &msg.Message{Kind: msg.KindPut, Src: msg.User(0), Dst: msg.User(1), Seq: uint64(i + 1)}
		if held := sess[0].SendMsg(&from, 0, 1, m); held != (i > 0) {
			t.Fatalf("frame %d held = %v", i, held)
		}
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("the first frame never arrived")
	}
	if closeSession {
		sess[0].Close()
	} else {
		sess[0].installView(wire.View{Epoch: 1, Dead: 1, Members: []wire.ViewMember{
			{Node: 0, Addr: sess[0].peerLn.Addr().String()}, {Node: 1, Incarnation: 1}}})
	}
	from.Flush()
	for _, s := range sess {
		s.Close()
	}
	co.Close()
	if len(got) != 0 {
		t.Fatalf("%d frames held for a closed connection were delivered", len(got))
	}
}

// TestClusterRunLeavesNoFDs: every socket a launch opens — the
// coordinator's listener and its end of each worker connection, each
// worker's listener, both ends of every peer connection — is closed once
// the launch is over, and every goroutine behind them exits: after a clean
// launch and after one whose connection closed with frames held for it.
func TestClusterRunLeavesNoFDs(t *testing.T) {
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no fd table to count: %v", err)
		}
		return len(ents)
	}
	// settled polls count until it is back at or below want, for up to
	// 2 s: readers exit moments after their socket closes.
	settled := func(count func() int, want int) int {
		n := count()
		for wait := time.Now(); n > want && time.Since(wait) < 2*time.Second; n = count() {
			time.Sleep(10 * time.Millisecond)
		}
		return n
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // finalizers must not hide a leak
	beforeG := runtime.NumGoroutine()
	runLaunch(t) // the runtime's own descriptors (netpoller) exist from here on
	settled(runtime.NumGoroutine, beforeG)
	before := countFDs()
	for i := 0; i < 8; i++ {
		runLaunch(t)
		runLaunchFailsWhileCorked(t, i%2 == 0)
	}
	if after := settled(countFDs, before); after > before {
		t.Fatalf("16 launches leaked %d descriptors (%d -> %d)", after-before, before, after)
	}
	if afterG := settled(runtime.NumGoroutine, beforeG); afterG > beforeG {
		t.Fatalf("17 launches leaked %d goroutines (%d -> %d)", afterG-beforeG, beforeG, afterG)
	}
}

// rawHello dials addr and writes a hello of the given frame type.
func rawHello(t *testing.T, addr string, typ byte, h wire.ClusterHello) *clusterConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	cc := &clusterConn{c: conn}
	if err := cc.writeFrame(typ, wire.EncodeClusterHello(h)[4:]); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	return cc
}

// TestCoordinatorFaultsOnDataFrame: the coordinator is control-only. A
// worker that passes the handshake and then sends it what used to be a
// forwarded data frame (type 4, frameData, up to ClusterVersion 2) is
// declared dead with a reason naming the frame type, like any other
// sender of an unknown frame.
func TestCoordinatorFaultsOnDataFrame(t *testing.T) {
	const frameData = 4
	co, err := NewCoordinator(Config{Procs: 2, Cookie: 7})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer co.Close()
	faultCh := make(chan *pipeline.FaultError, 1)
	ch0 := joinAsync(testEnv(co, 0), Handlers{Fault: func(fe *pipeline.FaultError) { faultCh <- fe }})
	cc := rawHello(t, co.Addr(), frameHello, wire.ClusterHello{Node: 1, Procs: 2, ProcsPerNode: 1, Cookie: 7})
	r0 := <-ch0
	if r0.err != nil {
		t.Fatalf("join node 0: %v", r0.err)
	}
	defer r0.s.Close()

	m := &msg.Message{Kind: msg.KindPut, Src: msg.User(1), Dst: msg.User(0), Seq: 1}
	if err := cc.writeFrame(frameData, wire.AppendEncode(nil, m)); err != nil {
		t.Fatalf("write data frame: %v", err)
	}
	werr := co.Wait()
	var fe *pipeline.FaultError
	if !errors.As(werr, &fe) || fe.Rank != 1 || fe.Kind != pipeline.FaultPeerLost || !strings.Contains(fe.Op, "unknown frame type 0x4") {
		t.Fatalf("coordinator verdict = %v, want rank 1 lost over unknown frame type 0x4", werr)
	}
	select {
	case sfe := <-faultCh:
		if sfe.Rank != 1 || !strings.Contains(sfe.Op, "unknown frame type 0x4") {
			t.Errorf("survivor's fault = %+v, want rank 1 and the frame type", sfe)
		}
	case <-time.After(5 * time.Second):
		t.Error("surviving worker never heard the fault broadcast")
	}
}

// TestPeerHelloInstallsRejoinerRoute covers the rejoin window: the
// coordinator hands a respawned worker its view before it refreshes the
// survivors', so a survivor can be asked something by a node whose
// address its own view still has blank. The peer hello carries the
// dialer's listener and incarnation, and the survivor installs it before
// it delivers the connection's first frame — an answer sent from inside
// the Data callback already has a route. A superseded incarnation and a
// foreign cookie install nothing and are hung up on.
func TestPeerHelloInstallsRejoinerRoute(t *testing.T) {
	delivered := make(chan struct{}, 1)
	var s0 *Session
	_, sess := startCluster(t, Config{Procs: 2, Cookie: 7}, func(node int) Handlers {
		if node != 0 {
			return Handlers{}
		}
		return Handlers{Data: func(*msg.Message) {
			s0.SendMsg(new(Sender), 0, 1, &msg.Message{Kind: msg.KindGetResp, Src: msg.ServerOf(0), Dst: msg.User(1), Seq: 1, Tag: 9})
			delivered <- struct{}{}
		}}
	})
	s0 = sess[0]
	addr0 := s0.peerLn.Addr().String()

	// The view a survivor holds while node 1's slot waits for its respawn.
	s0.installView(wire.View{Epoch: 1, Dead: 1, Members: []wire.ViewMember{{Node: 0, Addr: addr0}, {Node: 1, Incarnation: 1}}})
	s0.SendMsg(new(Sender), 0, 1, &msg.Message{Kind: msg.KindPut, Src: msg.User(0), Dst: msg.User(1), Seq: 1}) // unreachable: dropped

	rejoiner, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rejoiner.Close()
	hello := wire.ClusterHello{Node: 1, Procs: 2, ProcsPerNode: 1, Cookie: 7, Incarnation: 1, PeerAddr: rejoiner.Addr().String()}
	cc := rawHello(t, addr0, framePeerHello, hello)
	if _, err := cc.c.Write(wire.AppendEncode(nil, &msg.Message{Kind: msg.KindGet, Src: msg.User(1), Dst: msg.ServerOf(0), Seq: 1})); err != nil {
		t.Fatalf("write restore read: %v", err)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("the rejoiner's frame was never delivered")
	}
	// The answer arrives on a connection node 0 dialed to the address
	// from the hello: its own peer hello first, then the bare frame.
	rejoiner.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	back, err := rejoiner.Accept()
	if err != nil {
		t.Fatalf("node 0 never dialed the rejoiner: %v", err)
	}
	defer back.Close()
	back.SetDeadline(time.Now().Add(5 * time.Second))
	if body, err := wire.ReadFrame(back); err != nil || len(body) < 1 || body[0] != framePeerHello {
		t.Fatalf("first frame from node 0 = %x, %v, want a peer hello", body, err)
	}
	body, err := wire.ReadFrame(back)
	if err != nil {
		t.Fatalf("read answer: %v", err)
	}
	if m, derr := wire.Decode(body); derr != nil || m.Kind != msg.KindGetResp || m.Tag != 9 {
		t.Fatalf("answer = %+v, %v, want the tagged get response", m, derr)
	}

	for name, bad := range map[string]wire.ClusterHello{
		"stale incarnation": {Node: 1, Procs: 2, ProcsPerNode: 1, Cookie: 7, Incarnation: 0, PeerAddr: "127.0.0.1:1"},
		"wrong cookie":      {Node: 1, Procs: 2, ProcsPerNode: 1, Cookie: 8, Incarnation: 2, PeerAddr: "127.0.0.1:1"},
	} {
		cc := rawHello(t, addr0, framePeerHello, bad)
		cc.c.Write(wire.AppendEncode(nil, &msg.Message{Kind: msg.KindGet, Src: msg.User(1), Dst: msg.ServerOf(0), Seq: 2}))
		if _, err := wire.ReadFrame(cc.c); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
			t.Errorf("%s: connection still open (%v), want it dropped", name, err)
		}
		s0.peerMu.Lock()
		inc, addr := s0.peerInc[1], s0.peerAddrs[1]
		s0.peerMu.Unlock()
		if inc != 1 || addr != hello.PeerAddr {
			t.Errorf("%s: installed incarnation %d at %s, want the route left at incarnation 1 at %s", name, inc, addr, hello.PeerAddr)
		}
	}
	select {
	case <-delivered:
		t.Error("a frame behind a refused hello was delivered")
	default:
	}
}

// TestCoordinatorDeathIsAttributed is the worker-side bound for losing
// the coordinator, the launch's single point of failure: every session's
// Fault handler fires exactly once, within 2 s, naming that worker's own
// first rank and the lost coordinator, and no SendMsg blocks afterwards.
func TestCoordinatorDeathIsAttributed(t *testing.T) {
	const procs, ppn = 4, 2
	faults := make([]chan *pipeline.FaultError, procs/ppn)
	co, sess := startCluster(t, Config{Procs: procs, ProcsPerNode: ppn, Cookie: 7}, func(node int) Handlers {
		faults[node] = make(chan *pipeline.FaultError, 2) // room to catch a second firing
		return Handlers{Fault: func(fe *pipeline.FaultError) { faults[node] <- fe }}
	})
	co.Close()
	for node, s := range sess {
		select {
		case fe := <-faults[node]:
			if fe.Kind != pipeline.FaultPeerLost || fe.Rank != node*ppn || !strings.Contains(fe.Op, "lost the coordinator") {
				t.Errorf("node %d fault = %+v, want FaultPeerLost on rank %d naming the lost coordinator", node, fe, node*ppn)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("node %d never noticed the coordinator die", node)
		}
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			var from Sender
			for rank := 0; rank < procs; rank++ {
				s.SendMsg(&from, uint64(rank), rank/ppn, &msg.Message{Kind: msg.KindPut, Src: msg.User(node * ppn), Dst: msg.User(rank), Seq: 1})
			}
		}()
		select {
		case <-sent:
		case <-time.After(2 * time.Second):
			t.Fatalf("node %d: SendMsg blocked after the coordinator died", node)
		}
	}
	for node := range sess {
		if extra := len(faults[node]); extra != 0 {
			t.Errorf("node %d: Fault handler fired %d more times", node, extra)
		}
	}
}

func TestJoinRejectsWrongCookie(t *testing.T) {
	co, err := NewCoordinator(Config{Procs: 1, Cookie: 7, JoinTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer co.Close()

	env := testEnv(co, 0)
	env.Cookie = 8
	if _, err := Join(env, Handlers{}); err == nil || !strings.Contains(err.Error(), "cookie") {
		t.Errorf("wrong-cookie join error = %v, want a cookie rejection", err)
	}
}

// TestRejectsVersionSkew drives the strict negotiation end to end: a
// hello with a foreign magic is turned away with the decoder's
// diagnosis, not a silent desync.
func TestRejectsVersionSkew(t *testing.T) {
	co, err := NewCoordinator(Config{Procs: 1, Cookie: 7, JoinTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer co.Close()

	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	hello := wire.EncodeClusterHello(wire.ClusterHello{Procs: 1, ProcsPerNode: 1, Cookie: 7})[4:]
	hello[0] ^= 0xff // corrupt the magic
	cc := &clusterConn{c: conn}
	if err := cc.writeFrame(frameHello, hello); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	body, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read reject: %v", err)
	}
	if len(body) < 1 || body[0] != frameReject {
		t.Fatalf("coordinator reply %#x, want a reject frame", body)
	}
	if reason := string(body[1:]); !strings.Contains(reason, "magic") {
		t.Errorf("reject reason %q does not name the magic mismatch", reason)
	}
}

func TestRejectsDuplicateNode(t *testing.T) {
	co, err := NewCoordinator(Config{Procs: 2, Cookie: 7, JoinTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer co.Close()

	first := joinAsync(testEnv(co, 0), Handlers{}) // parks waiting for the roster
	time.Sleep(50 * time.Millisecond)
	if _, err := Join(testEnv(co, 0), Handlers{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate-node join error = %v, want a duplicate rejection", err)
	}
	co.Close()
	<-first
}

func TestRendezvousTimeout(t *testing.T) {
	co, err := NewCoordinator(Config{Procs: 2, Cookie: 7, JoinTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer co.Close()

	ch := joinAsync(testEnv(co, 0), Handlers{}) // the only worker to show up
	werr := co.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "1 of 2") {
		t.Errorf("rendezvous timeout verdict = %v, want it to count 1 of 2 workers", werr)
	}
	<-ch
}

// TestConnLossFault kills a worker's connection mid-run and checks both
// sides of the failure contract: the coordinator's verdict and the
// surviving worker's fault callback attribute the loss to the dead
// worker's rank.
func TestConnLossFault(t *testing.T) {
	faultCh := make(chan *pipeline.FaultError, 1)
	co, sess := startCluster(t, Config{Procs: 2, Cookie: 7}, func(node int) Handlers {
		if node != 0 {
			return Handlers{}
		}
		return Handlers{Fault: func(fe *pipeline.FaultError) { faultCh <- fe }}
	})

	sess[1].cc.c.Close() // node 1 dies abruptly, without the drain protocol

	werr := co.Wait()
	fe, ok := werr.(*pipeline.FaultError)
	if !ok {
		t.Fatalf("coordinator verdict = %v (%T), want *pipeline.FaultError", werr, werr)
	}
	if fe.Rank != 1 || fe.Kind != pipeline.FaultPeerLost {
		t.Errorf("verdict = %+v, want Rank 1, FaultPeerLost", fe)
	}
	select {
	case sfe := <-faultCh:
		if sfe.Rank != 1 || sfe.Kind != pipeline.FaultPeerLost {
			t.Errorf("survivor's fault = %+v, want Rank 1, FaultPeerLost", sfe)
		}
	case <-time.After(5 * time.Second):
		t.Error("surviving worker never heard the fault broadcast")
	}
}

// TestHeartbeatTimeout wedges one worker (its pings stop, but the
// connection stays open) and checks the coordinator declares it dead by
// staleness, attributed to its first rank.
func TestHeartbeatTimeout(t *testing.T) {
	co, err := NewCoordinator(Config{Procs: 2, Cookie: 7, HeartbeatTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer co.Close()

	healthy := testEnv(co, 0)
	healthy.HeartbeatInterval = 50 * time.Millisecond
	wedged := testEnv(co, 1)
	wedged.HeartbeatInterval = time.Hour // joins, then never pings

	ch0 := joinAsync(healthy, Handlers{})
	ch1 := joinAsync(wedged, Handlers{})
	r0, r1 := <-ch0, <-ch1
	if r0.err != nil || r1.err != nil {
		t.Fatalf("join: node0=%v node1=%v", r0.err, r1.err)
	}
	defer r0.s.Close()
	defer r1.s.Close()

	joined := time.Now()
	werr := co.Wait()
	fe, ok := werr.(*pipeline.FaultError)
	if !ok {
		t.Fatalf("coordinator verdict = %v (%T), want *pipeline.FaultError", werr, werr)
	}
	if fe.Rank != 1 || fe.Kind != pipeline.FaultPeerLost {
		t.Errorf("verdict = %+v, want Rank 1, FaultPeerLost", fe)
	}
	// Whichever worker joined first: the join window must not stretch the
	// first heartbeat deadline.
	if took := time.Since(joined); took > 5*time.Second {
		t.Errorf("silence took %v to notice at a 300ms heartbeat timeout", took)
	}
	if !strings.Contains(fe.Op, "silent") {
		t.Errorf("verdict op %q does not describe the silence", fe.Op)
	}
}

// TestListenReportsAddress pins the listener hygiene contract: a bind
// failure names the address it tried, and an address-in-use race is
// retried until the port frees up.
func TestListenReportsAddress(t *testing.T) {
	const bad = "203.0.113.1:0" // TEST-NET-3: never bindable locally
	if _, err := Listen(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("Listen(%s) error = %v, want it to name the address", bad, err)
	}
}

func TestListenRetriesBindRace(t *testing.T) {
	blocker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("blocker listen: %v", err)
	}
	addr := blocker.Addr().String()
	time.AfterFunc(25*time.Millisecond, func() { blocker.Close() })
	ln, err := Listen(addr)
	if err != nil {
		t.Fatalf("Listen did not ride out the bind race on %s: %v", addr, err)
	}
	ln.Close()
}

func TestWorkerEnvRoundTrip(t *testing.T) {
	want := WorkerEnv{
		Addr:              "127.0.0.1:9999",
		Node:              2,
		Procs:             8,
		ProcsPerNode:      2,
		Cookie:            0xfeedface,
		HeartbeatInterval: 250 * time.Millisecond,
		JoinTimeout:       9 * time.Second,
	}
	for _, kv := range want.Environ() {
		k, v, _ := strings.Cut(kv, "=")
		t.Setenv(k, v)
	}
	got, ok, err := FromEnv()
	if err != nil || !ok {
		t.Fatalf("FromEnv: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Errorf("worker env mutated through the environment: sent %+v got %+v", want, got)
	}
}

func TestFromEnvAbsent(t *testing.T) {
	t.Setenv(EnvAddr, "")
	if _, ok, err := FromEnv(); ok || err != nil {
		t.Errorf("FromEnv with no cluster env: ok=%v err=%v, want absent and nil", ok, err)
	}
}

func TestFromEnvMalformed(t *testing.T) {
	t.Setenv(EnvAddr, "127.0.0.1:1")
	t.Setenv(EnvNode, "zero")
	if _, ok, err := FromEnv(); !ok || err == nil || !strings.Contains(err.Error(), EnvNode) {
		t.Errorf("FromEnv with a bad node: ok=%v err=%v, want an error naming %s", ok, err, EnvNode)
	}
}

// TestSendMsgConcurrent is the pair write rule on the connection all of a
// node's senders share to another node. Senders interleaving bursts on it
// deliver every frame exactly once and each sender's in its order, under the
// race detector; a burst in one generation takes fewer writes than frames,
// and a ping-pong exactly one write per frame.
func TestSendMsgConcurrent(t *testing.T) {
	put := func(sender, i int) *msg.Message {
		return &msg.Message{Kind: msg.KindPut, Src: msg.User(0), Dst: msg.User(1), Tag: sender, Seq: uint64(i + 1), Data: []byte("payload")}
	}
	frameLen := len(wire.AppendEncode(nil, put(0, 0)))
	// launch joins two nodes whose messages go to got, and returns node 0.
	launch := func(t *testing.T, got chan *msg.Message) *Session {
		_, sess := startCluster(t, Config{Procs: 2, Cookie: 7}, func(int) Handlers {
			return Handlers{Data: func(m *msg.Message) { got <- m }}
		})
		return sess[0]
	}
	// receive takes n messages from got and checks each sender's arrive in
	// its order, each once.
	receive := func(t *testing.T, got chan *msg.Message, n int) {
		next := make(map[int]uint64)
		for i := 0; i < n; i++ {
			select {
			case m := <-got:
				if next[m.Tag]++; m.Seq != next[m.Tag] {
					t.Fatalf("sender %d: frame %d arrived where %d was due", m.Tag, m.Seq, next[m.Tag])
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d frames arrived", i, n)
			}
		}
	}
	// writes closes s and returns its writes, having checked they carried
	// the hello and frames frames, each once.
	writes := func(t *testing.T, s *Session, frames int) int {
		w, n := s.Close()
		if want := 4 + len(s.peerHello) + frames*frameLen; n != want {
			t.Fatalf("%d frames wrote %d bytes, want %d", frames, n, want)
		}
		return w
	}

	t.Run("interleaved", func(t *testing.T) {
		const senders, msgs, burst = 4, 64, 8
		got := make(chan *msg.Message, senders*msgs)
		s := launch(t, got)
		var wg sync.WaitGroup
		for w := 0; w < senders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var from Sender
				for i := 0; i < msgs; i++ {
					if i%burst == 0 {
						from.Flush() // a listen: the next burst is a new generation
					}
					s.SendMsg(&from, uint64(i/burst), 1, put(w, i))
				}
				from.Flush()
			}(w)
		}
		wg.Wait()
		receive(t, got, senders*msgs)
		if w := writes(t, s, senders*msgs); w > senders*msgs {
			t.Fatalf("%d frames took %d writes", senders*msgs, w)
		}
	})

	t.Run("burst", func(t *testing.T) {
		const msgs = 64
		got := make(chan *msg.Message, msgs)
		s := launch(t, got)
		var from Sender
		for i := 0; i < msgs; i++ {
			s.SendMsg(&from, 0, 1, put(0, i))
		}
		from.Flush()
		receive(t, got, msgs)
		if w := writes(t, s, msgs); w != 2 {
			t.Fatalf("a burst of %d frames took %d writes, want 2: the first, then the rest at the flush", msgs, w)
		}
	})

	t.Run("another sender", func(t *testing.T) {
		got := make(chan *msg.Message, 3)
		s := launch(t, got)
		var a, b Sender
		s.SendMsg(&a, 0, 1, put(0, 0))
		if !s.SendMsg(&a, 0, 1, put(0, 1)) {
			t.Fatal("a second frame in one generation was not held")
		}
		// Neither sender flushes: b's frame leaves at once and takes a's along.
		if s.SendMsg(&b, 0, 1, put(1, 0)) {
			t.Fatal("a frame behind another sender's was held")
		}
		receive(t, got, 3)
		if w := writes(t, s, 3); w != 2 {
			t.Fatalf("3 frames took %d writes, want 2", w)
		}
	})

	t.Run("ping-pong", func(t *testing.T) {
		const rounds = 50
		got := [2]chan *msg.Message{make(chan *msg.Message), make(chan *msg.Message)}
		_, sess := startCluster(t, Config{Procs: 2, Cookie: 7}, func(node int) Handlers {
			return Handlers{Data: func(m *msg.Message) { got[node] <- m }}
		})
		var from [2]Sender
		for i := 0; i < rounds; i++ {
			for node, s := range sess { // node 0 asks, node 1 answers: each a new generation
				m := put(node, i)
				m.Src, m.Dst = msg.User(node), msg.User(1-node)
				s.SendMsg(&from[node], uint64(i+1), 1-node, m)
				select {
				case m := <-got[1-node]:
					if m.Seq != uint64(i+1) {
						t.Fatalf("round %d: node %d got frame %d", i+1, 1-node, m.Seq)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: node %d's frame never arrived", i+1, node)
				}
			}
		}
		for node, s := range sess {
			if w := writes(t, s, rounds); w != rounds {
				t.Fatalf("node %d: a ping-pong of %d rounds took %d writes", node, rounds, w)
			}
		}
	})
}
