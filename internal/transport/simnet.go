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
type SimFabric struct {
	cfg    Config
	kernel *sim.Kernel
	space  *shmem.Space
	pipe   *pipeline.Pipeline

	mailboxes map[msg.Addr]*msg.Queue

	users     []actorSpec
	servers   []actorSpec
	liveUsers int
	shutdown  bool
}

type actorSpec struct {
	addr msg.Addr
	body func(Env)
}

// NewSim builds a simulated fabric for the given configuration.
func NewSim(cfg Config) (*SimFabric, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	f := &SimFabric{
		cfg:       cfg,
		kernel:    sim.New(),
		space:     shmem.NewSpace(cfg.nodeMap()),
		mailboxes: make(map[msg.Addr]*msg.Queue),
	}
	f.pipe = cfg.newPipeline(f.space, true)
	if cfg.ScheduleSeed != 0 {
		f.kernel.SetShuffle(cfg.ScheduleSeed)
	}
	if cfg.EventPoolHazard {
		f.kernel.SetEventPoolHazard(true)
	}
	return f, nil
}

// Space returns the cluster's shared memory.
func (f *SimFabric) Space() *shmem.Space { return f.space }

// Config returns the cluster configuration.
func (f *SimFabric) Config() *Config { return &f.cfg }

// Kernel exposes the underlying discrete-event kernel (for tests).
func (f *SimFabric) Kernel() *sim.Kernel { return f.kernel }

// SpawnUser registers the body of rank's user process.
func (f *SimFabric) SpawnUser(rank int, body func(Env)) {
	f.users = append(f.users, actorSpec{addr: msg.User(rank), body: body})
}

// SpawnServer registers the body of node's data server.
func (f *SimFabric) SpawnServer(node int, body func(Env)) {
	f.servers = append(f.servers, actorSpec{addr: msg.ServerOf(node), body: body})
}

// Run executes the simulation until every user process finishes. Servers
// are unblocked with a nil Recv result once the last user is done.
func (f *SimFabric) Run() error {
	for _, a := range f.users {
		f.mailboxes[a.addr] = &msg.Queue{}
	}
	for _, a := range f.servers {
		f.mailboxes[a.addr] = &msg.Queue{}
	}
	f.liveUsers = len(f.users)
	for _, a := range f.users {
		spec := a
		f.kernel.Spawn(spec.addr.String(), func(p *sim.Proc) {
			defer func() {
				f.liveUsers--
				if f.liveUsers == 0 {
					f.shutdown = true
				}
			}()
			spec.body(&simEnv{f: f, p: p, addr: spec.addr})
		})
	}
	for _, a := range f.servers {
		spec := a
		f.kernel.Spawn(spec.addr.String(), func(p *sim.Proc) {
			spec.body(&simEnv{f: f, p: p, addr: spec.addr})
		})
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

// Now returns the current virtual time (valid during and after Run).
func (f *SimFabric) Now() time.Duration { return f.kernel.Now() }

// simEnv is the Env of one simulated actor.
type simEnv struct {
	f    *SimFabric
	p    *sim.Proc
	addr msg.Addr
}

var _ Env = (*simEnv)(nil)

func (e *simEnv) Self() msg.Addr       { return e.addr }
func (e *simEnv) Rank() int            { return e.addr.ID }
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
	q, ok := e.f.mailboxes[to]
	if !ok {
		panic(fmt.Sprintf("simnet: send to unknown endpoint %v", to))
	}
	err := e.f.pipe.SendTo(e.addr, to, m, e.p.Now, e.Charge, func(d pipeline.Delivery) {
		dm := d.Msg
		e.p.Kernel().At(d.At, func() {
			if e.f.pipe.Inbound(dm, e.f.kernel.Now()) {
				q.Put(dm)
			}
		})
	})
	if err != nil {
		var fe *pipeline.FaultError
		if errors.As(err, &fe) && fe.Kind == pipeline.FaultCrash && !e.addr.Server {
			// An injected crash is a fail-stop of this actor only: register
			// the death so crash-aware waiters (and the lease lock's repair
			// path) can observe it, then vanish without failing the run.
			e.f.pipe.NoteCrash(e.addr.ID)
			panic(sim.Exit{})
		}
		// Retry exhaustion (or a server-side fault) fails the whole run
		// with the structured error, not a generic panic message.
		panic(sim.Abort{Err: err})
	}
}

func (e *simEnv) Recv(match msg.Match) *msg.Message {
	q := e.f.mailboxes[e.addr]
	var got *msg.Message
	// Bound user-process Recvs by the per-op deadline via a virtual-time
	// timer flag re-checked by the wait predicate. Servers are exempt:
	// idling in the serve loop is their normal state.
	timedOut := false
	if od := e.f.cfg.OpDeadline; od > 0 && !e.addr.Server {
		e.p.Kernel().After(od, func() { timedOut = true })
	}
	tag := "recv@" + e.addr.String()
	e.p.WaitUntil(tag, func() bool {
		if e.addr.Server && e.f.shutdown && q.Len() == 0 {
			return true // drained and cluster is shutting down
		}
		if m := q.TryPop(match); m != nil {
			got = m
			return true
		}
		return timedOut
	})
	if got == nil && timedOut {
		if r := e.f.pipe.FirstCrashed(); r >= 0 {
			// The wait outlived a fail-stopped peer: the timeout is the
			// crash's fault, so attribute it to the dead rank.
			panic(sim.Abort{Err: &pipeline.FaultError{Rank: r, Op: tag, Kind: pipeline.FaultCrash}})
		}
		panic(sim.Abort{Err: opTimeout(e.addr, tag)})
	}
	if got != nil {
		e.f.pipe.RecvCharge(e.Charge)
	}
	return got
}

func (e *simEnv) TryRecv(match msg.Match) *msg.Message {
	// Messages reach the mailbox only at their delivery instant (the
	// kernel's At callback), so anything queued has already arrived.
	m := e.f.mailboxes[e.addr].TryPop(match)
	if m != nil {
		e.f.pipe.RecvCharge(e.Charge)
	}
	return m
}

func (e *simEnv) WaitUntil(tag string, pred func() bool) {
	timedOut := false
	if od := e.f.cfg.OpDeadline; od > 0 {
		e.p.Kernel().After(od, func() { timedOut = true })
	}
	done := false
	e.p.WaitUntil(tag, func() bool {
		done = pred()
		return done || timedOut
	})
	if !done && timedOut {
		if r := e.f.pipe.FirstCrashed(); r >= 0 {
			panic(sim.Abort{Err: &pipeline.FaultError{Rank: r, Op: tag, Kind: pipeline.FaultCrash}})
		}
		panic(sim.Abort{Err: opTimeout(e.addr, tag)})
	}
	if g := e.f.cfg.Model.PollGap; g > 0 {
		// Model the detection delay between the memory write and the
		// spinning process noticing it.
		e.p.Sleep(g)
	}
}

func (e *simEnv) WaitUntilFor(tag string, pred func() bool, d time.Duration) bool {
	if d <= 0 {
		e.WaitUntil(tag, pred)
		return true
	}
	timedOut := false
	e.p.Kernel().After(d, func() { timedOut = true })
	done := false
	e.p.WaitUntil(tag, func() bool {
		done = pred()
		return done || timedOut
	})
	if g := e.f.cfg.Model.PollGap; g > 0 {
		e.p.Sleep(g)
	}
	return done
}

func (e *simEnv) Faults() pipeline.Faults { return e.f.pipe.Faults() }

func (e *simEnv) CrashedRank() int { return e.f.pipe.FirstCrashed() }

func (e *simEnv) FailStop(op string) {
	e.f.pipe.CrashNow(e.addr.ID, op)
	panic(sim.Exit{})
}

func (e *simEnv) AbortFault(err *pipeline.FaultError) {
	panic(sim.Abort{Err: err})
}
