package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"armci/internal/cluster"
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
	// carry takes one stamped frame (m.Src and m.Dst are set), lent by
	// its sender from until carry returns, towards its destination, which
	// files it with wallFabric.arrive. It is called on the sender's
	// goroutine outside every fabric lock, and aborts the sender by
	// panicking when the medium refuses the frame. A socket link encodes
	// the frame before it returns, and may hold the encoded frame back for
	// the sender's next listen (cluster.Pair.Send), and says so.
	carry(from *wallEnv, m *msg.Message) (held bool)
	// usersDone runs between the last local user finishing and the local
	// servers being shut down: the place for a cluster-wide drain.
	usersDone() error
	// down releases whatever up acquired. It runs on every exit path of
	// Run, including a failed or partial up.
	down()
}

// wallFabric is the one wall-clock runtime behind the chan, tcp and proc
// fabrics: real goroutines as actors, each parking in its own box. On the
// data path a wake-up disturbs only whom it addresses: a delivery signals
// its destination's box (arrive), and a write signals the boxes whose
// owner is in a WaitUntil/WaitUntilFor on cells it overlaps (the Space
// write hook) — a Recv never wakes for a memory write, a wait never for a
// write to a cell its predicate does not read. On chan, a request that
// finds its data server idle is served on its sender's goroutine, so a
// round trip to it wakes nobody (inline). f.mu guards control state only;
// an event changes it through control, which then signals every box, and
// a wait looks at it only while alert is set, so the steady-state wait
// takes no fabric-wide lock. Lock order: a box's mu, then f.mu. What the
// three fabrics do differently is the link plus the four fields below it.
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
	// model is the cost model in force, what Params hands out: cfg.Model
	// where charge is set, else the zero model — so a layer that reads the
	// clock only to work out a charge (the server's wake-up penalty) knows
	// there is none.
	model model.Params
	// crashFatal makes an injected crash abort the job instead of letting
	// the actor vanish: proc's crash registry is process-local, so remote
	// waiters could never tell the fail-stop from a wedged peer.
	crashFatal bool
	// intr, when set, is consulted (f.mu held) in every wait and before
	// every send while alert is set; a non-nil error aborts the actor. Only
	// proc has one: the cluster fault and the membership-view interrupt.
	intr func(server bool) error
	// inline has a data server's requests served on delivery (arrive), on
	// the sender's goroutine: chan, where the link delivers there, with
	// nothing to hold a frame back until its stamped arrival (no cost model,
	// no fault plan). NIC agents keep their serve loop: a fence waits.
	inline bool

	// Both fixed before any actor starts, read without a lock from then on.
	boxes  map[msg.Addr]*box
	byNode [][]*box // the boxes a write to one of the node's ranks may wake

	mu       sync.Mutex  // control state: the fields below and proc's (procLink)
	alert    atomic.Bool // some control state a wait or send must look at is set
	shutdown bool
	crashAt  time.Time // wall time of the first fail-stop (zero: none)

	start time.Time
	// Run's bound on each of its waits and the one timer that enforces it,
	// stopped when Run returns: a time.After per wait stayed pinned for the
	// whole bound after a run of a millisecond.
	deadline time.Duration
	timer    *time.Timer

	panics chan error
}

// box is one endpoint's share of the runtime: its actor, its mailbox, the
// slot that actor — the owner, the only goroutine that ever waits on it —
// parks in, and what the fabric knows about the owner's state.
type box struct {
	addr msg.Addr
	body func(Env)
	env  *wallEnv // the owner's Env, made with the box
	// serve is a data server's request handler where the fabric serves
	// requests on delivery (inline), else nil.
	serve Handler
	// ready is the park/ready slot, of one token: a signal never blocks,
	// one sent before the owner parks is not lost, and a stale one costs a
	// spurious re-check.
	ready chan struct{}
	timer *time.Timer // the owner's one deadline; its fire signals this box only
	// The cells of the owner's WaitUntil/WaitUntilFor in progress, which a
	// write must overlap to signal it: watchKey is the high word of the
	// first cell's Ptr.Pack, 0 while the owner watches nothing. They are
	// set before the predicate runs, so a write is seen by one or the
	// other. A write that reads them as the owner moves from one wait to
	// the next may miss the earlier wait, which is over, or signal the
	// later one spuriously, which costs a re-check.
	watchKey, watchOff, watchN atomic.Int64
	// parks counts the owner's parks, futile the wake-ups from them that
	// found its wait still unmet. Only the owner writes them; Run reports
	// them once every actor is done.
	parks, futile int

	mu     sync.Mutex
	q      msg.Queue
	parked bool // the owner's last look at q found nothing: a delivery signals it
	// A server is in service from the Recv that popped a frame to its next,
	// and while a request is served on its sender's goroutine (inline); a
	// request served so finds it in neither and its mailbox empty, so
	// frames of a pair are served in the order they arrived.
	inService, inline bool
	// The membership fence (proc): frames of an epoch below fence are
	// refused; a fence finding the server in service sets draining and is
	// woken at the end of it.
	fence    uint64
	draining bool
}

// signal readies the box's owner.
func (b *box) signal() {
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// watch sets the cells the owner's wait reads; the zero Cells clears them.
func (b *box) watch(c shmem.Cells) {
	if c.N <= 0 {
		b.watchKey.Store(0)
		return
	}
	key, off := c.P.Pack()
	b.watchOff.Store(off)
	b.watchN.Store(c.N)
	b.watchKey.Store(key)
}

// watches reports whether a write of n cells from p overlaps the cells of
// the owner's wait.
func (b *box) watches(p shmem.Ptr, n int64) bool {
	key := b.watchKey.Load()
	if key == 0 {
		return false
	}
	c := shmem.Cells{P: shmem.Unpack(key, b.watchOff.Load()), N: b.watchN.Load()}
	return c.Overlaps(p, n)
}

func newWallFabric(name string, cfg Config, charge bool) *wallFabric {
	f := &wallFabric{
		name:   name,
		cfg:    cfg,
		space:  shmem.NewSpace(cfg.nodeMap()),
		charge: charge,
		boxes:  make(map[msg.Addr]*box),
		byNode: make([][]*box, cfg.numNodes()),
		// Room for every actor (users, servers, NIC agents) plus the
		// link's own reader to report without blocking after Run returned.
		panics: make(chan error, cfg.Procs+2*cfg.numNodes()+1),
	}
	f.model = model.Zero()
	if charge {
		f.model = cfg.Model
	}
	f.pipe = cfg.newPipeline(f.space, charge)
	f.space.SetOnWrite(func(p shmem.Ptr, n int64) {
		for _, b := range f.byNode[f.space.Node(int(p.Rank))] {
			if b.watches(p, n) {
				b.signal()
			}
		}
	})
	return f
}

// spawn registers an actor: it makes its box and the Env its body gets.
func (f *wallFabric) spawn(addr msg.Addr, body func(Env)) *box {
	b := &box{addr: addr, body: body, ready: make(chan struct{}, 1)}
	b.env = &wallEnv{f: f, addr: addr, b: b, recvTag: "recv@" + addr.String()}
	b.timer = time.AfterFunc(time.Hour, b.signal)
	b.timer.Stop()
	f.boxes[addr] = b
	node := endpointNode(f.space, addr)
	f.byNode[node] = append(f.byNode[node], b)
	return b
}

// control changes control state: set runs under f.mu, then every box is
// signalled — after f.mu is released, so a woken actor never queues
// behind the event that woke it.
func (f *wallFabric) control(set func()) {
	f.mu.Lock()
	set()
	f.alert.Store(f.shutdown || !f.crashAt.IsZero() || f.intr != nil && f.intr(false) != nil)
	f.mu.Unlock()
	f.wakeAll()
}

func (f *wallFabric) wakeAll() {
	for _, b := range f.boxes {
		b.signal()
	}
}

// Space returns the cluster's shared memory.
func (f *wallFabric) Space() *shmem.Space { return f.space }

// Config returns the cluster configuration.
func (f *wallFabric) Config() *Config { return &f.cfg }

// SpawnUser registers the body of rank's user process.
func (f *wallFabric) SpawnUser(rank int, body func(Env)) {
	f.spawn(msg.User(rank), body)
}

// SpawnServer registers node's data server: start builds it on its Env
// and returns its handler, which the server's actor serves its mailbox
// with and, where requests are served on delivery, arrive runs.
func (f *wallFabric) SpawnServer(node int, start func(Env) Handler) {
	b := f.spawn(msg.ServerOf(node), nil)
	h := start(b.env)
	b.body = func(e Env) { serve(e, h) }
	if f.inline && !b.addr.IsNIC(f.cfg.numNodes()) {
		b.serve = h
	}
}

// Run brings the link up, starts every actor goroutine, waits for all
// user processes, lets the link drain, then shuts the servers down (their
// pending Recv returns nil) and waits for them too. It returns the first
// actor panic or link failure, or an error if the deadline (default 120 s
// wall time) elapses.
func (f *wallFabric) Run() error {
	// The clock epoch must exist before the link comes up (the boxes have
	// since Spawn): it can deliver the instant it is up, and arrive stamps
	// arrivals against f.start. proc's link moves it to the launch's clock
	// start as it comes up, before it delivers anything.
	f.start = time.Now()
	f.deadline = f.cfg.Deadline
	if f.deadline == 0 {
		f.deadline = 120 * time.Second
	}
	f.timer = time.NewTimer(f.deadline)
	defer f.timer.Stop()
	if !f.crashFatal {
		// A fail-stop wakes every blocked wait: crash-aware spins re-check
		// the registry, the others set their box timer to the grace that
		// unwedges waits with no recovery path — see Config.CrashGrace.
		f.pipe.SetCrashNotify(func() {
			f.control(func() {
				if f.crashAt.IsZero() {
					f.crashAt = time.Now()
				}
			})
		})
	}
	defer f.link.down()
	if err := f.link.up(); err != nil {
		return err
	}

	var userWG, serverWG sync.WaitGroup
	for _, b := range f.boxes {
		wg := &userWG
		if b.addr.Server() {
			wg = &serverWG
		}
		wg.Add(1)
		go f.runActor(b, wg)
	}

	if err := f.await(waitChan(&userWG), "user processes"); err != nil {
		return err
	}
	if err := f.link.usersDone(); err != nil {
		return err
	}
	f.stop()
	if err := f.await(waitChan(&serverWG), "servers to drain"); err != nil {
		return err
	}
	var parks, futile int
	for _, b := range f.boxes {
		parks += b.parks
		futile += b.futile
	}
	f.cfg.Trace.RecordParks(parks, futile)
	select {
	case err := <-f.panics:
		return err
	default:
	}
	return nil
}

// runActor runs one actor body and turns its panics into Run's error.
func (f *wallFabric) runActor(b *box, wg *sync.WaitGroup) {
	e := b.env
	defer wg.Done()
	defer func() {
		e.pop(msg.MatchNone) // an actor that is gone serves nothing
		if r := recover(); r != nil {
			if _, ok := r.(failStop); ok {
				return // injected fail-stop: the actor vanishes, the run continues
			}
			if a, ok := r.(abort); ok && a.err != nil {
				f.panics <- a.err // structured fault, propagate verbatim
			} else {
				f.panics <- fmt.Errorf("%s: actor %v panicked: %v", f.name, b.addr, r)
			}
			f.stop() // unwedge everyone else
		}
	}()
	b.body(e)
	e.listen() // what the actor sent leaves with it
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
	f.control(func() { f.shutdown = true })
}

// await blocks for done, the first reported failure, or Run's deadline,
// counted from here.
func (f *wallFabric) await(done <-chan struct{}, what string) error {
	f.timer.Reset(f.deadline)
	select {
	case <-done:
		return nil
	case err := <-f.panics:
		return err
	case <-f.timer.C:
		return fmt.Errorf("%s: deadline %v exceeded waiting for %s", f.name, f.deadline, what)
	}
}

func waitChan(wg *sync.WaitGroup) <-chan struct{} {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	return done
}

// arrive is the receive side of every link: it runs the inbound pipeline
// stages on a frame m that reached its destination's process (duplicate
// suppression, arrival stamping — the actual arrival, or the modeled or
// fault-injected future one the frame carries — the recorder's admission
// record, metrics) and files it in b, the destination's box, which the link
// resolved — nil, an endpoint this process does not host, drops the frame.
// The clock is read only for a frame the pipeline stamps.
// Only that box is locked — it serializes the box's deliveries, as Inbound
// requires, so the dedup watermark is the box's own — and only its owner, if
// parked on it, is woken. The fence is checked under the lock of the Put, so
// a frame of a closed epoch cannot follow the purge.
//
// A user's request to a data server served on delivery (box.serve) that
// finds the server out of service and its mailbox empty is not filed: it
// is served here, on the sender's goroutine (serveInline), and its reply
// is in the sender's mailbox before the sender's Send returns. Any other
// frame queues behind what is there. A frame the link decoded is the
// box's to keep (keep == nil); one lent by its sender (Env.Send) is served
// from the loan, or queued as a copy in keep, the sender's arena.
func (f *wallFabric) arrive(b *box, m *msg.Message, keep *msg.Arena) {
	if b == nil {
		return
	}
	var now time.Duration
	if f.pipe.Stamps() {
		now = time.Since(f.start)
	}
	b.mu.Lock()
	if !f.pipe.Inbound(m, now) {
		b.mu.Unlock()
		return
	}
	if m.Epoch < b.fence {
		b.mu.Unlock()
		f.cfg.Trace.RecordFaults(trace.FaultCounts{StaleEpochs: 1})
		return
	}
	if b.serve != nil && !m.Src.Server() && !b.inService && !b.inline && b.q.Len() == 0 {
		b.inline = true
		b.mu.Unlock()
		f.serveInline(b, m)
		return
	}
	if keep != nil {
		m = keep.Keep(m)
	}
	b.q.Put(m)
	// A frame queued behind an inline service is the end of that
	// service's to wake the server for.
	wake := b.parked && !b.inline
	b.parked = b.parked && !wake
	b.mu.Unlock()
	if wake {
		b.signal()
	}
}

// serveInline runs b's handler on m on the calling goroutine. The server
// is in service (b.inline) until the handler returns or panics; then its
// owner is woken if frames queued meanwhile. No lock is held while the
// handler runs, its replies' deliveries included. A handler panic fails
// the run in the server's name, as in its own serve loop.
func (f *wallFabric) serveInline(b *box, m *msg.Message) {
	defer func() {
		b.mu.Lock()
		b.inline = false
		wake := b.parked && b.q.Len() > 0
		b.parked = b.parked && !wake
		b.mu.Unlock()
		if wake {
			b.signal()
		}
		if r := recover(); r != nil {
			switch r.(type) {
			case abort, failStop:
				panic(r)
			}
			panic(abort{fmt.Errorf("%s: actor %v panicked: %v", f.name, b.addr, r)})
		}
	}()
	b.serve(m)
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
		if err := e.f.intr(e.addr.Server()); err != nil {
			e.f.abortLocked(err)
		}
	}
}

// interrupt is interruptLocked for a send or a poll: one atomic load while
// no control state is set.
func (e *wallEnv) interrupt() {
	if f := e.f; f.alert.Load() && f.intr != nil {
		f.mu.Lock()
		e.interruptLocked()
		f.mu.Unlock()
	}
}

// wallEnv is the Env of one actor on a wall-clock fabric.
type wallEnv struct {
	f       *wallFabric
	addr    msg.Addr
	b       *box   // the actor's own box
	recvTag string // diagnostic tag of its Recvs, "recv@<addr>"
	// listens counts the actor's listens; held, that out holds frames of it
	// back for the next one. Only the actor's goroutine touches them.
	listens uint64
	held    bool
	out     cluster.Sender
	// arena keeps the copies of the actor's frames chan queues in a
	// mailbox (arrive); the socket links copy nothing. lendQueued is the
	// mutation hook that skips the copy (SetLendQueuedHazard).
	arena      msg.Arena
	lendQueued bool
}

var _ Env = (*wallEnv)(nil)

func (e *wallEnv) Self() msg.Addr          { return e.addr }
func (e *wallEnv) Rank() int               { return e.addr.ID() }
func (e *wallEnv) Size() int               { return e.f.cfg.Procs }
func (e *wallEnv) NumNodes() int           { return e.f.cfg.numNodes() }
func (e *wallEnv) Node(rank int) int       { return e.f.space.Node(rank) }
func (e *wallEnv) Space() *shmem.Space     { return e.f.space }
func (e *wallEnv) Params() model.Params    { return e.f.model }
func (e *wallEnv) Trace() *trace.Stats     { return e.f.cfg.Trace }
func (e *wallEnv) Clock() Clock            { return wallClock{e} }
func (e *wallEnv) Faults() pipeline.Faults { return e.f.pipe.Faults() }

// CrashedRank consults the process-local registry. On proc that never
// holds a rank fail-stopped on another worker — the cluster layer reports
// those as FaultPeerLost — so lease-lock waiters there rely purely on TTL
// timing, which needs no registry at all.
func (e *wallEnv) CrashedRank() int { return e.f.pipe.FirstCrashed() }

// wallClock is pointer-shaped, so handing it out as a Clock allocates
// nothing, however often the layers above ask for one. It is its actor's
// env because a Sleep is a listen.
type wallClock struct{ e *wallEnv }

func (c wallClock) Now() time.Duration { return time.Since(c.e.f.start) }
func (c wallClock) Sleep(d time.Duration) {
	c.e.listen()
	if d > 0 {
		time.Sleep(d)
	}
}

// listen is the top of every Env call but Send, and the actor's exit: the
// program points where the actor may come to wait for an answer to what it
// sent. It opens the actor's next generation of frames — of which the link
// sends each pair's first at once — and has the link send what it held
// back of the last. With nothing held it costs an increment: a sender's
// steps between its write and its park are on every round trip's path.
// Where requests are served on delivery it does nothing: chan holds no
// frame back, and a server's Sends may run on its requesters' goroutines.
func (e *wallEnv) listen() {
	if e.f.inline {
		return
	}
	e.listens++
	if e.held {
		e.held = false
		e.out.Flush()
	}
}

func (e *wallEnv) Charge(d time.Duration) {
	if d > 0 && e.f.charge {
		time.Sleep(d)
	}
}

func (e *wallEnv) Send(to msg.Addr, m *msg.Message) {
	f := e.f
	e.interrupt()
	// Frames reach the destination mailbox in send order (an injected
	// duplicate trails its original, where dedup drops it); the stamped
	// arrival time is enforced on the receive side.
	err := f.pipe.SendTo(e.addr, to, m,
		func() time.Duration { return time.Since(f.start) }, e.Charge,
		func(d pipeline.Delivery) {
			if f.link.carry(e, d.Msg) {
				e.held = true
			}
		})
	if err != nil {
		var fe *pipeline.FaultError
		if !f.crashFatal && !e.addr.Server() && errors.As(err, &fe) && fe.Kind == pipeline.FaultCrash {
			// Injected crash: fail-stop this actor only; survivors learn of
			// it through the crash registry (and the grace timer).
			f.pipe.NoteCrash(e.addr.ID())
			e.vanish()
		}
		panic(abort{err}) // retry exhaustion, or any fault where crashes are job-fatal
	}
}

func (e *wallEnv) Recv(match msg.Match) *msg.Message {
	var m *msg.Message
	// Servers are exempt from the per-op deadline: idling in the serve
	// loop is their job.
	if !e.block(e.recvTag, shmem.Cells{}, func() bool { m = e.pop(match); return m != nil }, 0, !e.addr.Server()) {
		return nil // a server released by shutdown
	}
	// Enforce the stamped arrival in wall time: the modeled latency or a
	// fault-injected delay. Without either the arrival is already past.
	if e.f.pipe.Delays() {
		if wait := m.Arrival - time.Since(e.f.start); wait > 0 {
			time.Sleep(wait)
		}
	}
	e.f.pipe.RecvCharge(e.Charge)
	return m
}

// pop is Recv's look at the mailbox. One critical section ends a server's
// service of its last frame and begins that of this one, so a fence never
// finds a busy server between frames. While a request is served inline the
// server takes nothing: the end of that service wakes it.
func (e *wallEnv) pop(match msg.Match) *msg.Message {
	b := e.b
	b.mu.Lock()
	drained := b.draining
	b.draining = false
	var m *msg.Message
	if !b.inline {
		m = b.q.TryPop(match)
	}
	b.inService = e.addr.Server() && m != nil
	b.parked = m == nil
	b.mu.Unlock()
	if drained {
		e.f.wakeAll()
	}
	return m
}

func (e *wallEnv) WaitUntil(tag string, cells shmem.Cells, pred func() bool) {
	e.block(tag, cells, pred, 0, true)
}

func (e *wallEnv) WaitUntilFor(tag string, cells shmem.Cells, pred func() bool, d time.Duration) bool {
	if d <= 0 {
		e.WaitUntil(tag, cells, pred)
		return true
	}
	return e.block(tag, cells, pred, d, false)
}

// block is the one wait of the wall-clock fabrics — Recv, WaitUntil and
// proc's control waits alike: it parks the actor in its box until done
// holds, re-evaluating done on every signal — a delivery, a write that
// overlaps cells (a memory wait's; Recv and the control waits name none),
// the box timer, a control event. done
// is called with no lock held, so it may take a box's mu or f.mu (proc's
// control waits do), in the fabric's lock order. The clock is read only
// for a bound: a caller's limit or the op deadline at the start, the
// crash grace once a crash is on record.
//
// With limit > 0 the caller owns the bound: block returns false at limit
// and never aborts on its own account. Otherwise the wait is the fabric's
// to police: a server is released (false) by shutdown; a user actor that a
// registered crash has outlived by CrashGrace, having itself been blocked
// at least that long, aborts with a FaultCrash attributed to the dead rank
// — a per-wait bound, so a run that keeps making progress after lease
// repair is never aborted retroactively, while any single operation wedged
// on the dead rank is; and with opBound, exceeding Config.OpDeadline
// aborts with a FaultOpTimeout. The grace counts from the later of the
// wait's start and the crash, which is all the rule depends on: a wait the
// crash found parked counts from crashAt, one that begins with the crash
// on record reads the clock. The box timer is kept at the earliest bound,
// so the loop re-checks when one falls due.
func (e *wallEnv) block(tag string, cells shmem.Cells, done func() bool, limit time.Duration, opBound bool) bool {
	f, b := e.f, e.b
	e.listen() // whether or not it parks
	if done() {
		return true
	}
	callerBound := limit > 0
	if !callerBound && opBound {
		limit = f.cfg.OpDeadline
	}
	var until, armed, graceFrom time.Time
	if limit > 0 {
		until = time.Now().Add(limit)
	}
	due := until // the earliest bound pending: where the box timer must be
	defer func() {
		if !armed.IsZero() {
			b.timer.Stop() // a fire already under way is a spurious re-check later
		}
	}()
	if cells.N > 0 {
		defer b.watch(shmem.Cells{})
		b.watch(cells)
		if done() { // a write may have landed before the cells were up
			return true
		}
	}
	for parked := false; ; parked = true {
		if f.alert.Load() {
			f.mu.Lock()
			e.interruptLocked()
			if !callerBound {
				if e.addr.Server() && f.shutdown {
					f.mu.Unlock()
					return done() // a frame filed before the shutdown is still served
				}
				if !e.addr.Server() && !f.crashAt.IsZero() {
					if graceFrom.IsZero() {
						graceFrom = f.crashAt
						if !parked {
							graceFrom = time.Now()
						}
					}
					grace := f.cfg.CrashGrace
					if time.Since(graceFrom) > grace {
						f.abortLocked(&pipeline.FaultError{Rank: f.pipe.FirstCrashed(), Op: tag, Kind: pipeline.FaultCrash})
					}
					if g := graceFrom.Add(grace + 10*time.Millisecond); due.IsZero() || g.Before(due) {
						due = g
					}
				}
			}
			f.mu.Unlock()
		}
		if limit > 0 && !time.Now().Before(until) {
			if callerBound {
				return false
			}
			panic(abort{opTimeout(e.addr, tag)})
		}
		if !due.Equal(armed) {
			b.timer.Reset(time.Until(due))
			armed = due
		}
		b.parks++
		<-b.ready
		if done() {
			return true
		}
		b.futile++
	}
}

// FailStop terminates this actor as an injected fail-stop crash: it
// vanishes and survivors learn of it through the crash registry — or,
// where crashes are job-fatal, the run aborts with the rank-attributed
// FaultError instead of silently dropping the actor.
func (e *wallEnv) FailStop(op string) {
	fe := e.f.pipe.CrashNow(e.addr.ID(), op)
	if e.f.crashFatal {
		panic(abort{fe})
	}
	e.vanish()
}

// vanish ends the actor as a fail-stop. The frames it sent before the crash
// still leave: a crash plan counts sends, and "crash=R@N" means N frames
// left R.
func (e *wallEnv) vanish() {
	e.listen()
	panic(failStop{})
}
