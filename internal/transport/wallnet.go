package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/trace"
)

// link is the medium under a wall-clock fabric — everything chan, tcp and
// proc do not share. The runtime above it (wallFabric) owns the mailboxes,
// the waits, the deadlines and the actor life cycle; a link only moves
// frames and brackets the run.
type link interface {
	// up brings the medium up. It runs once, after the mailboxes and the
	// clock epoch exist and before any actor starts; frames may reach
	// wallFabric.arrive from the moment it returns (or earlier).
	up() error
	// carry takes one stamped frame (m.Src and m.Dst are set) towards its
	// destination, which files it with wallFabric.arrive. It is called on
	// the sender's goroutine outside every fabric lock, and aborts the
	// sender by panicking when the medium refuses the frame.
	carry(m *msg.Message)
	// usersDone runs between the last local user finishing and the local
	// servers being shut down: the place for a cluster-wide drain.
	usersDone(deadline time.Duration) error
	// down releases whatever up acquired. It runs on every exit path of
	// Run, including a failed or partial up.
	down()
}

// wallFabric is the one wall-clock runtime behind the chan, tcp and proc
// fabrics: real goroutines as actors, one mailbox per endpoint, and a
// single condition variable that every memory write, delivery, timer and
// shutdown broadcasts on. What the three fabrics do differently is the
// link plus the three fields below it.
type wallFabric struct {
	name  string // error-message prefix: "channet", "tcpnet", "procnet node N"
	cfg   Config
	space *shmem.Space
	pipe  *pipeline.Pipeline
	link  link

	// charge runs the cost model in wall time (Charge and the modeled
	// arrival sleep): chan under latency injection only — the socket
	// fabrics measure real costs. It is the bool given to newPipeline.
	charge bool
	// crashFatal makes an injected crash abort the job instead of letting
	// the actor vanish: proc's crash registry is process-local, so remote
	// waiters could never tell the fail-stop from a wedged peer.
	crashFatal bool
	// intr, when set, is consulted (f.mu held) in every wait and before
	// every send; a non-nil error aborts the actor with it. Only proc has
	// one: the cluster fault and the membership-view interrupt.
	intr func(server bool) error

	mu        sync.Mutex
	cond      *sync.Cond // broadcast on memory writes, deliveries, timers, shutdown
	wake      func()     // lock, broadcast, unlock: the timer and write callback
	mailboxes map[msg.Addr]*msg.Queue
	shutdown  bool
	crashAt   time.Time // wall time of the first fail-stop (zero: none)

	users   []actorSpec
	servers []actorSpec

	start time.Time

	panics chan error
}

func newWallFabric(name string, cfg Config, charge bool) *wallFabric {
	f := &wallFabric{
		name:      name,
		cfg:       cfg,
		space:     shmem.NewSpace(cfg.nodeMap()),
		charge:    charge,
		mailboxes: make(map[msg.Addr]*msg.Queue),
		// Room for every actor (users, servers, NIC agents) plus the
		// link's own reader to report without blocking after Run returned.
		panics: make(chan error, cfg.Procs+2*cfg.numNodes()+1),
	}
	f.pipe = cfg.newPipeline(f.space, charge)
	f.cond = sync.NewCond(&f.mu)
	f.wake = func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	}
	f.space.SetOnWrite(f.wake)
	return f
}

// Space returns the cluster's shared memory.
func (f *wallFabric) Space() *shmem.Space { return f.space }

// Config returns the cluster configuration.
func (f *wallFabric) Config() *Config { return &f.cfg }

// SpawnUser registers the body of rank's user process.
func (f *wallFabric) SpawnUser(rank int, body func(Env)) {
	f.users = append(f.users, actorSpec{addr: msg.User(rank), body: body})
}

// SpawnServer registers the body of node's data server.
func (f *wallFabric) SpawnServer(node int, body func(Env)) {
	f.servers = append(f.servers, actorSpec{addr: msg.ServerOf(node), body: body})
}

// endpoints lists every registered actor, users first.
func (f *wallFabric) endpoints() []actorSpec {
	return append(append([]actorSpec(nil), f.users...), f.servers...)
}

// Run brings the link up, starts every actor goroutine, waits for all
// user processes, lets the link drain, then shuts the servers down (their
// pending Recv returns nil) and waits for them too. It returns the first
// actor panic or link failure, or an error if the deadline (default 120 s
// wall time) elapses.
func (f *wallFabric) Run() error {
	// Mailboxes and the clock epoch must exist before the link comes up:
	// it can deliver the instant it is up, and arrive stamps arrivals
	// against f.start.
	for _, a := range f.endpoints() {
		f.mailboxes[a.addr] = &msg.Queue{}
	}
	f.start = time.Now()
	if !f.crashFatal {
		// A fail-stop wakes every blocked wait (crash-aware spins re-check
		// the registry) and arms the grace timer that unwedges waits with
		// no recovery path — see Config.CrashGrace.
		f.pipe.SetCrashNotify(func() {
			f.mu.Lock()
			if f.crashAt.IsZero() {
				f.crashAt = time.Now()
				time.AfterFunc(f.cfg.CrashGrace+10*time.Millisecond, f.wake)
			}
			f.cond.Broadcast()
			f.mu.Unlock()
		})
	}
	defer f.link.down()
	if err := f.link.up(); err != nil {
		return err
	}

	var userWG, serverWG sync.WaitGroup
	for _, a := range f.servers {
		serverWG.Add(1)
		go f.runActor(a, &serverWG)
	}
	for _, a := range f.users {
		userWG.Add(1)
		go f.runActor(a, &userWG)
	}

	deadline := f.cfg.Deadline
	if deadline == 0 {
		deadline = 120 * time.Second
	}
	if err := f.await(waitChan(&userWG), deadline, "user processes"); err != nil {
		return err
	}
	if err := f.link.usersDone(deadline); err != nil {
		return err
	}
	f.stop()
	if err := f.await(waitChan(&serverWG), deadline, "servers to drain"); err != nil {
		return err
	}
	select {
	case err := <-f.panics:
		return err
	default:
	}
	return nil
}

// runActor runs one actor body and turns its panics into Run's error.
func (f *wallFabric) runActor(spec actorSpec, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(failStop); ok {
				return // injected fail-stop: the actor vanishes, the run continues
			}
			if a, ok := r.(abort); ok && a.err != nil {
				f.panics <- a.err // structured fault, propagate verbatim
			} else {
				f.panics <- fmt.Errorf("%s: actor %v panicked: %v", f.name, spec.addr, r)
			}
			f.stop() // unwedge everyone else
		}
	}()
	spec.body(&wallEnv{f: f, addr: spec.addr, q: f.mailboxes[spec.addr], recvTag: "recv@" + spec.addr.String()})
}

// report hands a link-side failure to Run without ever blocking: several
// readers can fail at once and Run may already be gone, so a full
// channel drops the report — the first one is the one Run returns.
func (f *wallFabric) report(err error) {
	select {
	case f.panics <- err:
	default:
	}
}

// stop releases every server from its serve loop.
func (f *wallFabric) stop() {
	f.mu.Lock()
	f.shutdown = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// await blocks for done, the first reported failure, or the deadline.
func (f *wallFabric) await(done <-chan struct{}, deadline time.Duration, what string) error {
	select {
	case <-done:
		return nil
	case err := <-f.panics:
		return err
	case <-time.After(deadline):
		return fmt.Errorf("%s: deadline %v exceeded waiting for %s", f.name, deadline, what)
	}
}

func waitChan(wg *sync.WaitGroup) <-chan struct{} {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	return done
}

// arrive is the receive side of every link: it runs the inbound pipeline
// stages on a frame that reached its destination's process (duplicate
// suppression, arrival stamping — the actual arrival, or the modeled or
// fault-injected future one the frame carries — trace back-annotation,
// metrics) and files it in q, the destination's mailbox, which the link
// resolved — nil, an endpoint this process does not host, drops the frame.
func (f *wallFabric) arrive(q *msg.Queue, m *msg.Message) {
	if !f.pipe.Inbound(m, time.Since(f.start)) || q == nil {
		return
	}
	f.mu.Lock()
	q.Put(m)
	f.cond.Broadcast()
	f.mu.Unlock()
}

// abortLocked fails the calling actor with err; the caller holds f.mu.
func (f *wallFabric) abortLocked(err error) {
	f.mu.Unlock()
	panic(abort{err})
}

// interruptLocked aborts the calling actor when the fabric's intr hook
// says so; the caller holds f.mu.
func (e *wallEnv) interruptLocked() {
	if e.f.intr != nil {
		if err := e.f.intr(e.addr.Server); err != nil {
			e.f.abortLocked(err)
		}
	}
}

// wallEnv is the Env of one actor on a wall-clock fabric.
type wallEnv struct {
	f       *wallFabric
	addr    msg.Addr
	q       *msg.Queue // the actor's own mailbox
	recvTag string     // diagnostic tag of its Recvs, "recv@<addr>"
}

var _ Env = (*wallEnv)(nil)

func (e *wallEnv) Self() msg.Addr          { return e.addr }
func (e *wallEnv) Rank() int               { return e.addr.ID }
func (e *wallEnv) Size() int               { return e.f.cfg.Procs }
func (e *wallEnv) NumNodes() int           { return e.f.cfg.numNodes() }
func (e *wallEnv) Node(rank int) int       { return e.f.space.Node(rank) }
func (e *wallEnv) Space() *shmem.Space     { return e.f.space }
func (e *wallEnv) Params() model.Params    { return e.f.cfg.Model }
func (e *wallEnv) Trace() *trace.Stats     { return e.f.cfg.Trace }
func (e *wallEnv) Clock() Clock            { return wallClock{e.f.start} }
func (e *wallEnv) Faults() pipeline.Faults { return e.f.pipe.Faults() }

// CrashedRank consults the process-local registry. On proc that never
// holds a rank fail-stopped on another worker — the cluster layer reports
// those as FaultPeerLost — so lease-lock waiters there rely purely on TTL
// timing, which needs no registry at all.
func (e *wallEnv) CrashedRank() int { return e.f.pipe.FirstCrashed() }

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }
func (c wallClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func (e *wallEnv) Charge(d time.Duration) {
	if d > 0 && e.f.charge {
		time.Sleep(d)
	}
}

func (e *wallEnv) Send(to msg.Addr, m *msg.Message) {
	f := e.f
	if f.intr != nil { // keeps f.mu off the chan and tcp send path
		f.mu.Lock()
		e.interruptLocked()
		f.mu.Unlock()
	}
	// Frames reach the destination mailbox in send order (an injected
	// duplicate trails its original, where dedup drops it); the stamped
	// arrival time is enforced on the receive side. carry runs outside the
	// pipeline lock, so arrive's own pipeline locking cannot deadlock.
	err := f.pipe.SendTo(e.addr, to, m,
		func() time.Duration { return time.Since(f.start) }, e.Charge,
		func(d pipeline.Delivery) { f.link.carry(d.Msg) })
	if err != nil {
		var fe *pipeline.FaultError
		if !f.crashFatal && !e.addr.Server && errors.As(err, &fe) && fe.Kind == pipeline.FaultCrash {
			// Injected crash: fail-stop this actor only; survivors learn of
			// it through the crash registry (and the grace timer).
			f.pipe.NoteCrash(e.addr.ID)
			panic(failStop{})
		}
		panic(abort{err}) // retry exhaustion, or any fault where crashes are job-fatal
	}
}

func (e *wallEnv) Recv(match msg.Match) *msg.Message {
	var m *msg.Message
	// Servers are exempt from the per-op deadline: idling in the serve
	// loop is their job.
	if !e.block(e.recvTag, func() bool { m = e.q.TryPop(match); return m != nil }, 0, !e.addr.Server) {
		return nil // a server released by shutdown
	}
	// Enforce the stamped arrival in wall time: the modeled latency, a
	// fault-injected delay, or nothing — a plain socket arrival is
	// already in the past.
	if wait := m.Arrival - time.Since(e.f.start); wait > 0 {
		time.Sleep(wait)
	}
	e.f.pipe.RecvCharge(e.Charge)
	return m
}

func (e *wallEnv) TryRecv(match msg.Match) *msg.Message {
	f := e.f
	// Only messages whose stamped arrival time has passed are eligible:
	// polling must never observe a message earlier than Recv (which
	// sleeps out the remaining latency) would deliver it. Per-pair
	// arrival times are monotone, so gating on arrival keeps FIFO.
	now := time.Since(f.start)
	f.mu.Lock()
	e.interruptLocked()
	m := e.q.TryPop(func(m *msg.Message) bool { return m.Arrival <= now && match(m) })
	f.mu.Unlock()
	if m != nil {
		f.pipe.RecvCharge(e.Charge)
	}
	return m
}

func (e *wallEnv) WaitUntil(tag string, pred func() bool) {
	e.block(tag, pred, 0, true)
}

func (e *wallEnv) WaitUntilFor(tag string, pred func() bool, d time.Duration) bool {
	if d <= 0 {
		e.WaitUntil(tag, pred)
		return true
	}
	return e.block(tag, pred, d, false)
}

// block is the one bounded wait of the wall-clock fabrics. It re-evaluates
// done (with f.mu held) on every broadcast and returns true once it holds.
//
// With limit > 0 the caller owns the bound: block returns false at limit
// and never aborts on its own account. Otherwise the wait is the fabric's
// to police: a server is released (false) by shutdown; a user actor that a
// registered crash has outlived by CrashGrace, having itself been blocked
// at least that long, aborts with a FaultCrash attributed to the dead rank
// — a per-wait bound, so a run that keeps making progress after lease
// repair is never aborted retroactively, while any single operation wedged
// on the dead rank is; and with opBound, exceeding Config.OpDeadline
// aborts with a FaultOpTimeout. Every bound arms a timer that broadcasts
// when it falls due, so the loop is guaranteed to re-check.
func (e *wallEnv) block(tag string, done func() bool, limit time.Duration, opBound bool) bool {
	f := e.f
	began := time.Now()
	callerBound := limit > 0
	if !callerBound && opBound {
		limit = f.cfg.OpDeadline
	}
	var until time.Time
	if limit > 0 {
		until = began.Add(limit)
		defer time.AfterFunc(limit, f.wake).Stop()
	}
	var graceWake *time.Timer
	defer func() {
		if graceWake != nil {
			graceWake.Stop()
		}
	}()
	f.mu.Lock()
	for !done() {
		e.interruptLocked()
		if callerBound {
			if !time.Now().Before(until) {
				f.mu.Unlock()
				return false
			}
			f.cond.Wait()
			continue
		}
		if e.addr.Server && f.shutdown {
			f.mu.Unlock()
			return false
		}
		if !e.addr.Server && !f.crashAt.IsZero() {
			grace := f.cfg.CrashGrace
			blocked, sinceCrash := time.Since(began), time.Since(f.crashAt)
			if blocked > grace && sinceCrash > grace {
				f.abortLocked(&pipeline.FaultError{Rank: f.pipe.FirstCrashed(), Op: tag, Kind: pipeline.FaultCrash})
			}
			if graceWake == nil {
				graceWake = time.AfterFunc(grace-min(blocked, sinceCrash)+10*time.Millisecond, f.wake)
			}
		}
		if limit > 0 && !time.Now().Before(until) {
			f.abortLocked(opTimeout(e.addr, tag))
		}
		f.cond.Wait()
	}
	f.mu.Unlock()
	return true
}

// FailStop terminates this actor as an injected fail-stop crash: it
// vanishes and survivors learn of it through the crash registry — or,
// where crashes are job-fatal, the run aborts with the rank-attributed
// FaultError instead of silently dropping the actor.
func (e *wallEnv) FailStop(op string) {
	fe := e.f.pipe.CrashNow(e.addr.ID, op)
	if e.f.crashFatal {
		panic(abort{fe})
	}
	panic(failStop{})
}

func (e *wallEnv) AbortFault(err *pipeline.FaultError) {
	panic(abort{err})
}
