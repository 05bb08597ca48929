package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"armci/internal/cluster"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/wire"
)

// TestWakeupIsAddressed holds the two data-path wake-up rules: a rank
// parked in WaitUntil is not disturbed by deliveries to other boxes or by
// writes to other nodes' memory — its predicate runs a handful of times,
// not once per event elsewhere — while a write to a co-located rank's
// memory does wake it.
func TestWakeupIsAddressed(t *testing.T) {
	t.Run("other nodes", func(t *testing.T) {
		const traffic = 10000
		f, err := NewChan(Config{Procs: 4, OpDeadline: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		cell := f.Space().AllocWords(0, 1)
		var evals atomic.Int64
		f.SpawnUser(0, func(env Env) {
			env.WaitUntil("quiet", shmem.Cell(cell), func() bool {
				evals.Add(1)
				return env.Space().Load(cell) != 0
			})
		})
		var busy sync.WaitGroup
		busy.Add(3)
		for r := 1; r <= 3; r++ {
			mine := f.Space().AllocWords(r, 1)
			next := msg.User(r%3 + 1)
			f.SpawnUser(r, func(env Env) {
				for i := 0; i < traffic; i++ {
					env.Send(next, &msg.Message{Kind: msg.KindColl})
					env.Space().Store(mine, int64(i))
					env.Recv(msg.MatchAny)
				}
				busy.Done()
				if env.Rank() == 1 {
					busy.Wait()
					env.Space().Store(cell, 1)
				}
			})
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		// The look before the mark, the one after it, the one the final
		// write causes, and slack for a stale token or two.
		if n := evals.Load(); n > 8 {
			t.Fatalf("predicate of a rank nobody addressed ran %d times during %d deliveries and writes elsewhere", n, 3*traffic)
		}
	})
	t.Run("same node", func(t *testing.T) {
		f, err := NewChan(Config{Procs: 4, ProcsPerNode: 2, OpDeadline: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		theirs := f.Space().AllocWords(1, 1)
		f.SpawnUser(0, func(env Env) {
			env.WaitUntil("neighbour", shmem.Cell(theirs), func() bool { return env.Space().Load(theirs) != 0 })
		})
		f.SpawnUser(1, func(env Env) {
			for f.boxes[msg.User(0)].watchKey.Load() == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			env.Space().Store(theirs, 1)
		})
		if err := f.Run(); err != nil {
			t.Fatalf("a write to a co-located rank's memory did not wake the waiter: %v", err)
		}
	})
}

// TestNoLostWakeup races everything that can ready a box — a memory write,
// a delivery, the box timer and shutdown — against its owner parking, in
// every order the scheduler produces over 1000 rounds. A signal that falls
// between a failed look and the park and is lost shows as an op timeout
// (or, for the server, a run deadline); a shutdown that overtakes the frame
// sent before it shows as a server that served nothing.
func TestNoLostWakeup(t *testing.T) {
	for round := 0; round < 1000; round++ {
		f, err := NewChan(Config{Procs: 2, ProcsPerNode: 2, OpDeadline: 5 * time.Second, Deadline: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		cell := f.Space().AllocWords(0, 1)
		written := func() bool { return f.Space().Load(cell) != 0 }
		bound := time.Duration(1+round%5*20) * time.Microsecond
		served := 0
		spawnServerBody(f, 0, func(env Env) {
			for env.Recv(msg.MatchAny) != nil { // parks again as stop() comes
				served++
			}
		})
		f.SpawnUser(0, func(env Env) {
			if !env.WaitUntilFor("bounded", shmem.Cell(cell), written, bound) {
				env.WaitUntil("unbounded", shmem.Cell(cell), written)
			}
			env.Recv(msg.MatchAny)
		})
		f.SpawnUser(1, func(env Env) {
			if round%2 == 0 {
				env.Space().Store(cell, 1)
				env.Send(msg.User(0), &msg.Message{Kind: msg.KindColl})
			} else {
				env.Send(msg.User(0), &msg.Message{Kind: msg.KindColl})
				env.Space().Store(cell, 1)
			}
			env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindColl})
		})
		if err := f.Run(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if served != 1 {
			t.Fatalf("round %d: server saw %d frames, want 1", round, served)
		}
	}
}

// TestShutdownAndCrashReachEveryBox: control events are not addressed —
// shutdown releases every parked server, and a crash notice wakes every
// user wait, so crash-aware predicates see it and a wedged Recv is cut off
// at the grace.
func TestShutdownAndCrashReachEveryBox(t *testing.T) {
	const grace = 50 * time.Millisecond
	f, err := NewChan(Config{Procs: 4, CrashGrace: grace})
	if err != nil {
		t.Fatal(err)
	}
	var released, noticed atomic.Int64
	for s := 0; s < 8; s++ { // data servers and NIC agents alike
		spawnServerBody(f, s, func(env Env) {
			if env.Recv(msg.MatchAny) == nil {
				released.Add(1)
			}
		})
	}
	for r := 0; r < 2; r++ {
		f.SpawnUser(r, func(env Env) {
			env.WaitUntil("crash on record", shmem.Cells{}, func() bool { return env.CrashedRank() == 3 })
			noticed.Add(1)
		})
	}
	f.SpawnUser(2, func(env Env) { env.Recv(msg.MatchNone) })
	f.SpawnUser(3, func(env Env) { env.FailStop("test") })
	fe := wantFault(t, f, pipeline.FaultCrash)
	if fe.Rank != 3 || fe.Op != "recv@"+msg.User(2).String() {
		t.Fatalf("crash attributed to %+v, want rank 3 at rank 2's recv", fe)
	}
	if noticed.Load() != 2 {
		t.Fatalf("%d of 2 crash-aware waits saw the crash", noticed.Load())
	}
	// Run returned on rank 2's abort; the shutdown behind it is what
	// releases the servers.
	for t0 := time.Now(); released.Load() != 8; time.Sleep(time.Millisecond) {
		if time.Since(t0) > 5*time.Second {
			t.Fatalf("shutdown released %d of 8 parked servers", released.Load())
		}
	}
}

// procNode0 builds the proc fabric of node 0 of a 2-rank, 2-per-node
// launch — it hosts both ranks and the data server — without a session.
func procNode0(t *testing.T) *ProcFabric {
	t.Helper()
	f, err := NewProc(Config{Procs: 2, ProcsPerNode: 2},
		cluster.WorkerEnv{Node: 0, Procs: 2, ProcsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// startActors runs f's actors the way Run does but brings no link up, so a
// proc fabric needs no coordinator; the caller ends the servers with stop.
// A clock start the test already set (what proc's link would) is kept.
func startActors(f *wallFabric) *sync.WaitGroup {
	if f.start.IsZero() {
		f.start = time.Now()
	}
	var wg sync.WaitGroup
	for _, b := range f.boxes {
		wg.Add(1)
		go f.runActor(b, &wg)
	}
	return &wg
}

// eventually polls cond, which must come true within 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for t0 := time.Now(); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Since(t0) > 5*time.Second {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (b *box) isParked() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.parked
}

// TestProcInterruptsReachRecvAndWaitUntil: proc's two control events abort
// a parked Recv and a parked WaitUntil alike — a view change the user
// actors only, a cluster fault the server too.
func TestProcInterruptsReachRecvAndWaitUntil(t *testing.T) {
	lost := &pipeline.FaultError{Rank: 1, Kind: pipeline.FaultPeerLost}
	for name, tc := range map[string]struct {
		fire      func(f *ProcFabric)
		serverToo bool
		want      int // errors handed to Run: one per aborted actor, plus onFault's own report
	}{
		"view":  {func(f *ProcFabric) { f.proc.onView(wire.View{Epoch: 1, Dead: 1}) }, false, 2},
		"fault": {func(f *ProcFabric) { f.proc.onFault(lost) }, true, 4},
	} {
		t.Run(name, func(t *testing.T) {
			f := procNode0(t)
			serverReleased := false
			cell := f.Space().AllocWords(1, 1)
			spawnServerBody(f, 0, func(env Env) { serverReleased = env.Recv(msg.MatchAny) == nil })
			f.SpawnUser(0, func(env Env) { env.Recv(msg.MatchAny) })
			f.SpawnUser(1, func(env Env) { env.WaitUntil("wedged", shmem.Cell(cell), never) })
			wg := startActors(f.wallFabric)
			eventually(t, "all three actors to park", func() bool {
				return f.boxes[msg.ServerOf(0)].isParked() && f.boxes[msg.User(0)].isParked() &&
					f.boxes[msg.User(1)].watchKey.Load() != 0
			})
			tc.fire(f)
			wg.Wait() // an aborted actor shuts the fabric down, which releases a server left parked
			if serverReleased == tc.serverToo {
				t.Fatalf("server released by shutdown = %v, want %v", serverReleased, !tc.serverToo)
			}
			if len(f.panics) != tc.want {
				t.Fatalf("%d errors reported, want %d", len(f.panics), tc.want)
			}
			for len(f.panics) > 0 {
				err := <-f.panics
				var vi *ViewInterrupt
				if tc.serverToo && err != error(lost) || !tc.serverToo && !(errors.As(err, &vi) && vi.Epoch == 1) {
					t.Fatalf("unexpected abort %v", err)
				}
			}
		})
	}
}

// TestViewFenceClosesTheEpochWhereOpsAreApplied is the elastic epoch-fence
// race made deterministic: a server has popped a frame of the old epoch
// and stalls before applying it while a view is installed and fenced. The
// fence must not return until that frame is applied — after it returns the
// caller rolls memory back, and a later apply would resurrect the aborted
// epoch's write — and a frame of the old epoch arriving after it is
// dropped at the box even though it needs no pipeline sequencing.
func TestViewFenceClosesTheEpochWhereOpsAreApplied(t *testing.T) {
	f := procNode0(t)
	cell := f.Space().AllocWords(0, 1)
	popped, release := make(chan struct{}), make(chan struct{})
	var applied atomic.Int64
	f.SpawnServer(0, func(env Env) Handler {
		return func(m *msg.Message) {
			if applied.Load() == 0 {
				close(popped)
				<-release // descheduled between Recv and apply
			}
			env.Space().Store(cell, m.Operands[0])
			applied.Add(1)
		}
	})
	fence := make(chan struct{})
	var fenced uint64
	var sawAtFence int64
	var returned atomic.Bool
	f.SpawnUser(0, func(env Env) {
		<-fence
		fenced = env.(*procEnv).fenceView()
		sawAtFence = env.Space().Load(cell)
		returned.Store(true)
	})
	f.SpawnUser(1, func(Env) {})
	wg := startActors(f.wallFabric)
	server := f.boxes[msg.ServerOf(0)]
	frame := func(epoch uint64, v int64) *msg.Message {
		return &msg.Message{Kind: msg.KindRmw, Src: msg.User(1), Dst: msg.ServerOf(0), Epoch: epoch, Operands: [4]int64{v}}
	}

	f.arrive(server, frame(0, 7), nil)
	<-popped
	f.arrive(server, frame(0, 8), nil) // queued behind the one in service: purged
	f.proc.onView(wire.View{Epoch: 1, Dead: 1})
	close(fence)
	eventually(t, "the fence to wait on the server in service", func() bool {
		server.mu.Lock()
		defer server.mu.Unlock()
		return server.draining
	})
	close(release)
	eventually(t, "the fence to return", returned.Load)

	f.arrive(server, frame(0, 9), nil) // the old epoch, late: refused at the box
	f.arrive(server, frame(1, 10), nil)
	eventually(t, "the new epoch's frame to be applied", func() bool { return applied.Load() == 2 })
	f.stop()
	wg.Wait()

	if fenced != 1 || sawAtFence != 7 {
		t.Fatalf("fence returned epoch %d with the cell at %d: the frame in service was not applied before it (want epoch 1, cell 7)", fenced, sawAtFence)
	}
	if got := f.Space().Load(cell); got != 10 {
		t.Fatalf("cell = %d after the fence, want 10: an old-epoch frame got past it", got)
	}
	if stale := f.cfg.Trace.Faults().StaleEpochs; stale != 1 {
		t.Fatalf("%d frames refused at the box, want 1", stale)
	}
}

// procNodeInLaunch builds node 0 of a live 2-node launch, one rank per
// node, with its session up: the launch's node 1 is a bare session that
// never takes part.
func procNodeInLaunch(t *testing.T, opDeadline time.Duration) *ProcFabric {
	t.Helper()
	co, err := cluster.NewCoordinator(cluster.Config{Procs: 2, Cookie: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	env := func(node int) cluster.WorkerEnv {
		return cluster.WorkerEnv{Addr: co.Addr(), Node: node, Procs: 2, ProcsPerNode: 1, Cookie: 7}
	}
	peer := make(chan *cluster.Session, 1)
	go func() {
		s, err := cluster.Join(env(1), cluster.Handlers{})
		if err != nil {
			t.Errorf("node 1 join: %v", err)
		}
		peer <- s
	}()
	f, err := NewProc(Config{Procs: 2, OpDeadline: opDeadline}, env(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.proc.up(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.proc.down)
	if s := <-peer; s != nil {
		t.Cleanup(func() { s.Close() })
	}
	return f
}

// TestControlWaitsAreInterruptibleAndBounded: proc's control waits are
// block calls like every other wait. A cluster fault aborts each with that
// fault. Under OpDeadline the view fence (on a server that never finishes
// its frame) aborts with a FaultOpTimeout naming its tag, while
// AwaitResume — bounded by the coordinator's rejoin watchdog instead —
// waits on until the fault.
func TestControlWaitsAreInterruptibleAndBounded(t *testing.T) {
	const deadline = 20 * time.Millisecond
	lost := &pipeline.FaultError{Rank: 1, Kind: pipeline.FaultPeerLost}
	for _, w := range []struct {
		name, tag string // tag "" marks a wait exempt from OpDeadline
		wait      func(e *procEnv)
	}{
		{"fence", "view-fence", func(e *procEnv) { e.fenceView() }},
		{"resume", "", func(e *procEnv) { e.AwaitResume() }},
	} {
		for _, bounded := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/deadline=%v", w.name, bounded), func(t *testing.T) {
				var d time.Duration
				if bounded {
					d = deadline
				}
				f := procNodeInLaunch(t, d)
				release := make(chan struct{})
				f.spawn(msg.ServerOf(0), func(Env) { <-release })
				server := f.boxes[msg.ServerOf(0)]
				server.inService = true // a frame popped and never applied: the fence waits on it
				got := make(chan error, 1)
				f.SpawnUser(0, func(env Env) {
					defer func() { a, _ := recover().(abort); got <- a.err }() // nil: the wait returned
					w.wait(env.(*procEnv))
				})
				wg := startActors(f.wallFabric)
				defer wg.Wait()
				defer close(release)

				want := *lost
				if bounded && w.tag != "" {
					want = pipeline.FaultError{Rank: 0, Op: w.tag, Kind: pipeline.FaultOpTimeout}
				} else {
					select {
					case err := <-got:
						t.Fatalf("the wait ended with %v before any fault", err)
					case <-time.After(10 * deadline): // a fault on entry aborts the same way
					}
					f.proc.onFault(lost)
				}
				select {
				case err := <-got:
					if fe, ok := err.(*pipeline.FaultError); !ok || *fe != want {
						t.Fatalf("the wait aborted with %#v, want %#v", err, want)
					}
				case <-time.After(5 * time.Second):
					f.proc.onFault(lost) // let the deferred wg.Wait return
					t.Fatalf("the wait was not aborted (want %#v)", want)
				}
			})
		}
	}
}

// TestBoundedWaitsAllocateNothing holds the one-timer-per-actor rule where
// it shows: with an op deadline in force, a user Recv that finds its
// message arms nothing, and a bounded wait that parks re-arms the box's
// own timer — neither allocates. A match is a value, so a Recv by token
// allocates nothing either.
func TestBoundedWaitsAllocateNothing(t *testing.T) {
	const runs = 50
	f, err := NewChan(Config{Procs: 1, OpDeadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var recvAllocs, waitAllocs, tokenAllocs float64
	f.SpawnUser(0, func(env Env) {
		for i := 0; i <= runs; i++ { // AllocsPerRun warms up with one extra call
			env.Send(msg.User(0), &msg.Message{Kind: msg.KindColl})
		}
		recvAllocs = testing.AllocsPerRun(runs, func() { env.Recv(msg.MatchAny) })
		waitAllocs = testing.AllocsPerRun(runs, func() { env.WaitUntilFor("bounded", shmem.Cells{}, never, 100*time.Microsecond) })
		for i := 0; i <= runs; i++ {
			env.Send(msg.User(0), &msg.Message{Kind: msg.KindRmwResp, Token: uint64(i)})
		}
		tok := uint64(runs) // the last first: each Recv skips the ones before it
		tokenAllocs = testing.AllocsPerRun(runs, func() {
			if env.Recv(msg.MatchToken(msg.KindRmwResp, tok)) == nil {
				t.Error("no response for a sent token")
			}
			tok--
		})
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAllocs != 0 || waitAllocs != 0 || tokenAllocs != 0 {
		t.Fatalf("allocations per call: Recv of a queued message %v, WaitUntilFor that parks once %v, Recv by token %v; want 0, 0 and 0",
			recvAllocs, waitAllocs, tokenAllocs)
	}
}

// TestProcStampsShareTheLaunchClock: stamps travel between worker
// processes, so every worker measures them from the launch's clock start
// (onClockStart, which up wires to the roster), not from its own start. A
// frame stamped by a worker that started 200 ms before this one is received
// without a wait; a frame whose stamps carry a fault delay still waits that
// delay out.
func TestProcStampsShareTheLaunchClock(t *testing.T) {
	const skew, delay = 200 * time.Millisecond, 30 * time.Millisecond
	// A fault plan: stamps are on and the receiver enforces them.
	cfg := Config{Procs: 2, Faults: pipeline.Faults{Jitter: time.Microsecond}}
	node := func(n int) *ProcFabric {
		f, err := NewProc(cfg, cluster.WorkerEnv{Node: n, Procs: 2, ProcsPerNode: 1})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	peer, f := node(1), node(0)
	peer.start, f.start = time.Now().Add(-skew), time.Now() // each worker's own Run start
	launch := time.Now()
	peer.proc.onClockStart(launch)
	f.proc.onClockStart(launch)

	got := make(chan time.Time, 2)
	f.SpawnUser(0, func(env Env) {
		for i := 0; i < 2; i++ {
			env.Recv(msg.MatchKind(msg.KindSend))
			got <- time.Now()
		}
	})
	wg := startActors(f.wallFabric)
	// What the peer's pipeline stamps: its clock at the send, and the
	// arrival behind the injected delay.
	took := func(seq uint64, fault time.Duration) time.Duration {
		sent := time.Since(peer.start)
		t0 := time.Now()
		f.proc.onData(&msg.Message{Kind: msg.KindSend, Src: msg.User(1), Dst: msg.User(0),
			Seq: seq, Sent: sent, Arrival: sent + fault})
		return (<-got).Sub(t0)
	}
	if d := took(1, 0); d > skew/2 {
		t.Fatalf("a frame with no delay from a worker started %v earlier was held %v", skew, d)
	}
	if d := took(2, delay); d < delay-time.Millisecond || d > delay+skew/2 {
		t.Fatalf("a frame with a %v fault delay was held %v, want about the delay", delay, d)
	}
	wg.Wait()
}
