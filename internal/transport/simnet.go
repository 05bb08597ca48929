package transport

import (
	"errors"
	"fmt"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/sim"
	"armci/internal/trace"
)

// SimFabric runs the cluster on the discrete-event kernel. Execution is
// deterministic and all times are virtual, governed by the cost model; it
// is the fabric used to regenerate the paper's figures.
//
// A blocked actor is re-evaluated when it is poked, and the fabric pokes
// where the state its waits read changes: a delivery pokes the mailbox's
// owner, a Space write or a registered crash pokes every actor in a memory
// wait (a predicate may read any node's cells), a deadline timer pokes its
// own waiter, the last user's exit pokes the servers. A memory wait names
// the cells its predicate reads, which the wall-clock fabrics wake it for
// alone; pokes do not depend on them, so neither do wake order and virtual
// times, but a predicate that turns true when only writes outside its
// cells poked it fails the run as an undeclared read.
type SimFabric struct {
	cfg    Config
	kernel *sim.Kernel
	space  *shmem.Space
	pipe   *pipeline.Pipeline

	eps     []*simEnv // by endpoint index (msg.Addr.Index)
	users   []*simEnv
	servers []*simEnv
	// watchers are the actors inside WaitUntil/WaitUntilFor right now; a
	// wait joins on entry and leaves on return, so a write costs the
	// waits in progress, not a scan over every endpoint.
	watchers []*simEnv

	liveUsers int
	shutdown  bool

	// arena keeps the copy of every frame in flight (schedule): every
	// actor's, since they all run on the kernel's goroutine.
	arena msg.Arena

	// The kernel handlers and the pipeline's emit, bound once: a send
	// schedules its delivery as the event (deliver, message), and a
	// bounded wait its deadline as (expire, endpoint record).
	deliverH, expireH sim.Handler
	emit              func(pipeline.Delivery)
}

// NewSim builds a simulated fabric for the given configuration.
func NewSim(cfg Config) (*SimFabric, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	f := &SimFabric{
		cfg:    cfg,
		kernel: sim.New(),
		space:  shmem.NewSpace(cfg.nodeMap()),
	}
	f.deliverH, f.expireH, f.emit = f.deliver, f.expire, f.schedule
	f.pipe = cfg.newPipeline(f.space, true)
	f.space.SetOnWrite(f.pokeWrite)
	f.pipe.SetCrashNotify(func() {
		for _, e := range f.watchers {
			e.poke(pokeOther)
		}
	})
	if cfg.ScheduleSeed != 0 {
		f.kernel.SetShuffle(cfg.ScheduleSeed)
	}
	return f, nil
}

// Space returns the cluster's shared memory.
func (f *SimFabric) Space() *shmem.Space { return f.space }

// Config returns the cluster configuration.
func (f *SimFabric) Config() *Config { return &f.cfg }

// SimKernel returns the kernel a simulated actor runs on, or nil when env
// belongs to a wall-clock fabric.
func SimKernel(env Env) *sim.Kernel {
	if e, ok := env.(*simEnv); ok {
		return e.f.kernel
	}
	return nil
}

// SpawnUser registers the body of rank's user process.
func (f *SimFabric) SpawnUser(rank int, body func(Env)) {
	f.users = append(f.users, f.newEnv(msg.User(rank), body))
}

// SpawnServer registers node's data server: start builds it on its Env,
// and its actor serves its mailbox with the handler start returns.
func (f *SimFabric) SpawnServer(node int, start func(Env) Handler) {
	e := f.newEnv(msg.ServerOf(node), nil)
	h := start(e)
	e.body = func(Env) { serve(e, h) }
	f.servers = append(f.servers, e)
}

// newEnv makes addr's endpoint record: its mailbox, and what every Recv
// of it would otherwise build again.
func (f *SimFabric) newEnv(addr msg.Addr, body func(Env)) *simEnv {
	e := &simEnv{f: f, addr: addr, body: body, recvTag: "recv@" + addr.String()}
	e.recvReady = e.pollMailbox
	e.watchReady = e.pollWatch
	i := addr.Index()
	if i >= len(f.eps) {
		f.eps = append(f.eps, make([]*simEnv, i+1-len(f.eps))...)
	}
	f.eps[i] = e
	return e
}

// endpoint returns addr's endpoint record, or nil when it has none.
func (f *SimFabric) endpoint(addr msg.Addr) *simEnv {
	if i := addr.Index(); i < len(f.eps) {
		return f.eps[i]
	}
	return nil
}

// Run executes the simulation until every user process finishes. Servers
// are unblocked with a nil Recv result once the last user is done.
func (f *SimFabric) Run() error {
	f.liveUsers = len(f.users)
	for _, e := range f.users {
		e.p = f.kernel.Spawn(e.addr.String(), func(*sim.Proc) {
			defer f.userDone()
			e.body(e)
		})
	}
	for _, e := range f.servers {
		e.p = f.kernel.Spawn(e.addr.String(), func(*sim.Proc) { e.body(e) })
	}
	deadline := f.cfg.Deadline
	if deadline == 0 {
		deadline = time.Hour // virtual; generous default against runaways
	}
	err := f.kernel.Run(deadline)
	if errors.Is(err, sim.ErrDeadlock) {
		if f.shutdown {
			// A deadlock after the last user finished is the expected way an
			// idle simulation drains when a server has no poison support.
			return nil
		}
		if r := f.pipe.FirstCrashed(); r >= 0 {
			// Survivors wedged on a fail-stopped peer: the virtual-time
			// deadlock is that crash's fault, so attribute it to the dead
			// rank instead of reporting an anonymous deadlock.
			return &pipeline.FaultError{Rank: r, Op: "wait on crashed rank", Kind: pipeline.FaultCrash}
		}
	}
	return err
}

// pokeWrite has every actor in a memory wait re-evaluated after a write of
// n cells from p, noting for each whether the write touched its cells.
func (f *SimFabric) pokeWrite(p shmem.Ptr, n int64) {
	for _, e := range f.watchers {
		if e.cells.Overlaps(p, n) {
			e.poke(pokeOther)
		} else {
			e.poke(pokeStray)
		}
	}
}

// userDone counts a user that finished or fail-stopped; the last one
// releases the servers from their Recv. A user the kernel is unwinding
// because the run is over did neither, and must not turn a deadlock into
// a clean drain.
func (f *SimFabric) userDone() {
	if f.kernel.Stopping() {
		return
	}
	f.liveUsers--
	if f.liveUsers == 0 {
		f.shutdown = true
		for _, e := range f.servers {
			e.poke(pokeOther)
		}
	}
}

// Now returns the current virtual time (valid during and after Run).
func (f *SimFabric) Now() time.Duration { return f.kernel.Now() }

// simEnv is one simulated actor's endpoint record and its Env.
type simEnv struct {
	f    *SimFabric
	p    *sim.Proc
	addr msg.Addr
	body func(Env)
	q    msg.Queue // the mailbox

	// The Recv in progress: what it matches and what it got.
	recvTag   string
	recvReady func() bool // pollMailbox, bound once
	match     msg.Match
	got       *msg.Message

	// The bound of the wait in progress: when it ends (0: unbounded), and
	// whether it has.
	lateAt time.Duration
	late   bool

	// The memory wait in progress: its predicate and cells, whether the
	// predicate held at its last evaluation, and the pokes since then.
	watchAt    int         // index in f.watchers
	watchReady func() bool // pollWatch, bound once
	cond       func() bool
	cells      shmem.Cells
	held       bool
	pokes      pokeSet
	undeclared bool // the predicate turned true on stray pokes alone
}

// pokeSet is what poked a waiting actor since its predicate last ran: a
// write to none of its cells (stray), or anything else.
type pokeSet uint8

const (
	pokeStray pokeSet = 1 << iota
	pokeOther
)

// poke marks e's wait for re-evaluation, noting why.
func (e *simEnv) poke(why pokeSet) {
	e.pokes |= why
	e.p.Poke()
}

var _ Env = (*simEnv)(nil)

func (e *simEnv) Self() msg.Addr       { return e.addr }
func (e *simEnv) Rank() int            { return e.addr.ID() }
func (e *simEnv) Size() int            { return e.f.cfg.Procs }
func (e *simEnv) NumNodes() int        { return e.f.cfg.numNodes() }
func (e *simEnv) Node(rank int) int    { return e.f.space.Node(rank) }
func (e *simEnv) Space() *shmem.Space  { return e.f.space }
func (e *simEnv) Params() model.Params { return e.f.cfg.Model }
func (e *simEnv) Trace() *trace.Stats  { return e.f.cfg.Trace }
func (e *simEnv) Clock() Clock         { return simClock{e.p} }

type simClock struct{ p *sim.Proc }

func (c simClock) Now() time.Duration    { return c.p.Now() }
func (c simClock) Sleep(d time.Duration) { c.p.Sleep(d) }

func (e *simEnv) Charge(d time.Duration) {
	if d > 0 {
		e.p.Sleep(d)
	}
}

func (e *simEnv) Send(to msg.Addr, m *msg.Message) {
	if e.f.endpoint(to) == nil {
		panic(fmt.Sprintf("simnet: send to unknown endpoint %v", to))
	}
	err := e.f.pipe.SendTo(e.addr, to, m, e.p.Now, e.Charge, e.f.emit)
	if err != nil {
		var fe *pipeline.FaultError
		if errors.As(err, &fe) && fe.Kind == pipeline.FaultCrash && !e.addr.Server() {
			// An injected crash is a fail-stop of this actor only: register
			// the death so crash-aware waiters (and the lease lock's repair
			// path) can observe it, then vanish without failing the run.
			e.f.pipe.NoteCrash(e.addr.ID())
			panic(sim.Exit{})
		}
		// Retry exhaustion (or a server-side fault) fails the whole run
		// with the structured error, not a generic panic message.
		panic(sim.Abort{Err: err})
	}
}

// schedule is the pipeline's emit: a delivery is the event (deliver, m)
// at the message's arrival, m being a copy of the sender's loan (Env.Send)
// — its stride vectors included, which the sender may rewrite at once.
func (f *SimFabric) schedule(d pipeline.Delivery) {
	f.kernel.At(d.At, f.deliverH, f.arena.Keep(d.Msg))
}

// deliver is a delivery event's handler: the message, its argument, enters
// its destination's mailbox unless the pipeline's receive side suppresses
// it.
func (f *SimFabric) deliver(arg any) {
	m := arg.(*msg.Message)
	if f.pipe.Inbound(m, f.kernel.Now()) {
		dst := f.endpoint(m.Dst)
		dst.q.Put(m)
		dst.poke(pokeOther)
	}
}

// arm starts a wait bounded by d (none for d <= 0): a timer, the event
// (expire, e), fires d from now.
func (e *simEnv) arm(d time.Duration) {
	e.late, e.lateAt = false, 0
	if d > 0 {
		e.lateAt = e.f.kernel.Now() + d
		e.f.kernel.After(d, e.f.expireH, e)
	}
}

// expire is a deadline timer's handler: it pokes its endpoint, and makes
// the wait in progress late if the timer is that wait's own. A timer that
// outlived its wait fires at another time than the wait in progress ends
// (or at the same time, when both mean the same), so it never makes a
// later wait late early.
func (f *SimFabric) expire(arg any) {
	e := arg.(*simEnv)
	if e.lateAt != 0 && e.lateAt == f.kernel.Now() {
		e.late = true
	}
	e.poke(pokeOther)
}

// abortLate fails the run for a wait that outlived Config.OpDeadline.
func (e *simEnv) abortLate(tag string) {
	if r := e.f.pipe.FirstCrashed(); r >= 0 {
		// The wait outlived a fail-stopped peer: the timeout is the
		// crash's fault, so attribute it to the dead rank.
		panic(sim.Abort{Err: &pipeline.FaultError{Rank: r, Op: tag, Kind: pipeline.FaultCrash}})
	}
	panic(sim.Abort{Err: opTimeout(e.addr, tag)})
}

func (e *simEnv) Recv(match msg.Match) *msg.Message {
	// User-process Recvs are bounded by the per-op deadline. Servers are
	// exempt: idling in the serve loop is their normal state.
	var bound time.Duration
	if !e.addr.Server() {
		bound = e.f.cfg.OpDeadline
	}
	e.match, e.got = match, nil
	e.arm(bound)
	e.p.WaitUntil(e.recvTag, e.recvReady)
	if e.got == nil {
		if e.late {
			e.abortLate(e.recvTag)
		}
		return nil // a server, drained and released by shutdown
	}
	e.f.pipe.RecvCharge(e.Charge)
	return e.got
}

// pollMailbox is Recv's wait predicate.
func (e *simEnv) pollMailbox() bool {
	if e.addr.Server() && e.f.shutdown && e.q.Len() == 0 {
		return true // drained and cluster is shutting down
	}
	if m := e.q.TryPop(e.match); m != nil {
		e.got = m
		return true
	}
	return e.late
}

// watch is the one memory wait: it blocks until pred holds or bound
// passes (0 = never) and reports which. While it lasts the actor is on
// the fabric's watcher list, where every Space write pokes it. A
// predicate that turned true on writes outside cells alone fails the run:
// on a wall-clock fabric none of them would have woken it.
func (e *simEnv) watch(tag string, cells shmem.Cells, pred func() bool, bound time.Duration) bool {
	e.cond, e.cells, e.pokes = pred, cells, 0
	e.arm(bound)
	e.watchAt = len(e.f.watchers)
	e.f.watchers = append(e.f.watchers, e)
	e.p.WaitUntil(tag, e.watchReady)
	last := len(e.f.watchers) - 1
	moved := e.f.watchers[last]
	e.f.watchers[e.watchAt], moved.watchAt = moved, e.watchAt
	e.f.watchers = e.f.watchers[:last]
	e.cond = nil
	if e.undeclared {
		panic(sim.Abort{Err: fmt.Errorf("simnet: undeclared read at %v: %s(%s) turned true on writes outside its %d cells at %v only",
			e.p.Now(), e.addr, tag, e.cells.N, e.cells.P)})
	}
	return e.held
}

// pollWatch is a memory wait's predicate.
func (e *simEnv) pollWatch() bool {
	e.held = e.cond()
	e.undeclared = e.held && e.pokes == pokeStray
	e.pokes = 0
	return e.held || e.late
}

// pollGap models the detection delay between the memory write and the
// spinning process noticing it.
func (e *simEnv) pollGap() {
	if g := e.f.cfg.Model.PollGap; g > 0 {
		e.p.Sleep(g)
	}
}

func (e *simEnv) WaitUntil(tag string, cells shmem.Cells, pred func() bool) {
	if !e.watch(tag, cells, pred, e.f.cfg.OpDeadline) {
		e.abortLate(tag)
	}
	e.pollGap()
}

func (e *simEnv) WaitUntilFor(tag string, cells shmem.Cells, pred func() bool, d time.Duration) bool {
	if d <= 0 {
		e.WaitUntil(tag, cells, pred)
		return true
	}
	done := e.watch(tag, cells, pred, d)
	e.pollGap()
	return done
}

func (e *simEnv) Faults() pipeline.Faults { return e.f.pipe.Faults() }

func (e *simEnv) CrashedRank() int { return e.f.pipe.FirstCrashed() }

func (e *simEnv) FailStop(op string) {
	e.f.pipe.CrashNow(e.addr.ID(), op)
	panic(sim.Exit{})
}
