package transport

import (
	"errors"
	"fmt"
	"time"

	"armci/internal/cluster"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/wire"
)

// ProcFabric runs one SMP node's slice of a multi-process cluster
// inside this OS process: the node's user ranks, data server and NIC
// agent as goroutines, with every message crossing a real TCP connection
// this worker dials straight to the destination's worker — its own, for
// a same-node message; the launch coordinator carries control only (see
// internal/cluster). It is the fourth fabric — the same protocol code
// that runs on simnet/channet/tcpnet runs here across genuine process
// boundaries, launched by cmd/armci-run.
//
// Each worker holds a full shmem.Space replica, but only its own node's
// memory is ever touched directly: the client-server model ships every
// remote operation as a message to the owning node's server, so replica
// divergence on remote segments is unobservable by construction.
// Messages still flow through the shared pipeline, so FIFO stamping,
// fault injection, dedup and metrics behave identically to the
// in-process fabrics — the sender's pipeline stamps the per-pair
// sequence, the receiver's suppresses duplicates, and the two never
// race because a directed pair's send state lives only at its source
// worker.
type ProcFabric struct {
	*wallFabric
	proc *procLink
}

// NewProc builds the fabric for the worker described by env. The config
// must agree with the launch shape — a worker built for a different
// cluster than the one that spawned it is a deployment bug worth
// failing loudly on.
func NewProc(cfg Config, env cluster.WorkerEnv) (*ProcFabric, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Procs != env.Procs || cfg.ProcsPerNode != env.ProcsPerNode {
		return nil, fmt.Errorf("procnet: config shape %d procs × %d/node does not match launch env %d × %d",
			cfg.Procs, cfg.ProcsPerNode, env.Procs, env.ProcsPerNode)
	}
	// Like tcpnet, procnet measures real socket costs: the cost-model
	// stage stays inactive; trace, fault injection and metrics run.
	f := newWallFabric(fmt.Sprintf("procnet node %d", env.Node), cfg, false)
	l := &procLink{
		f:         f,
		env:       env,
		viewEpoch: env.ViewEpoch,
		viewDead:  -1,
	}
	f.link, f.intr, f.crashFatal = l, l.interrupted, true
	// A respawned incarnation stamps its traffic into the view it was
	// spawned under from its first message.
	f.pipe.SetEpoch(env.ViewEpoch)
	return &ProcFabric{f, l}, nil
}

// SpawnUser registers the body of rank's user process. Ranks hosted by
// other workers are ignored — they run in their own OS processes. The
// body's Env additionally implements ElasticEnv.
func (f *ProcFabric) SpawnUser(rank int, body func(Env)) {
	if endpointNode(f.space, msg.User(rank)) == f.proc.env.Node {
		f.wallFabric.SpawnUser(rank, func(e Env) { body(&procEnv{e.(*wallEnv), f.proc}) })
	}
}

// SpawnServer registers node's data server (or NIC agent, for IDs at or
// beyond the node count). Non-local ones are ignored.
func (f *ProcFabric) SpawnServer(node int, start func(Env) Handler) {
	if endpointNode(f.space, msg.ServerOf(node)) == f.proc.env.Node {
		f.wallFabric.SpawnServer(node, start)
	}
}

// procLink is the cluster.Session link: frames cross worker-to-worker
// pair connections (cluster.Pair), one per destination node, whose
// addresses the launch rendezvous hands out. It also owns what only a
// multi-process run has — the cluster fault and the elastic membership
// view — all guarded by the fabric's f.mu so the one wait loop sees it.
type procLink struct {
	f    *wallFabric
	env  cluster.WorkerEnv
	sess *cluster.Session

	fault error // cluster fault; aborts every blocked local actor

	// Elastic membership state. A view change interrupts local user
	// actors (viewIntr) so the elastic runner can drive the recovery
	// protocol; servers keep running to serve restore reads.
	viewEpoch uint64            // installed membership view epoch
	viewDead  int               // node slot replaced by the pending view change
	viewIntr  bool              // user actors must abort into recovery
	resume    *wire.EpochReport // latest recovery hand-off, nil until broadcast
}

// up joins the launch rendezvous. A worker lost elsewhere in the launch
// surfaces as its rank-attributed *pipeline.FaultError.
func (l *procLink) up() error {
	sess, err := cluster.Join(l.env, cluster.Handlers{
		ClockStart: l.onClockStart,
		Data:       l.onData,
		Corrupt:    l.onCorrupt,
		Fault:      l.onFault,
		View:       l.onView,
		Resume:     l.onResume,
	})
	if err != nil {
		var fe *pipeline.FaultError
		if errors.As(err, &fe) {
			return fe // a peer died mid-rendezvous; keep the rank attribution
		}
		return fmt.Errorf("procnet: %w", err)
	}
	l.sess = sess
	return nil
}

// carry cannot fail: a frame the session cannot deliver is dropped, and
// the loss behind it arrives as a cluster fault or a view.
func (l *procLink) carry(from *wallEnv, m *msg.Message) (held bool) {
	return l.sess.SendMsg(&from.out, from.listens, endpointNode(l.f.space, m.Dst), m)
}

// usersDone is the cluster drain. Local users finished, but the servers
// must keep serving until every node's users have — remote ranks may
// still target this node's memory. The coordinator's drain broadcast is
// that barrier.
func (l *procLink) usersDone() error {
	if err := l.sess.UserDone(); err != nil {
		if fe := l.sess.Err(); fe != nil {
			return fe
		}
		return fmt.Errorf("procnet: reporting users done: %w", err)
	}
	return l.f.await(l.sess.Drained(), "the cluster drain")
}

func (l *procLink) down() {
	if l.sess != nil {
		l.f.cfg.Trace.RecordLinkWrites(l.sess.Close())
	}
}

// sessFail aborts the calling actor over a failed session write: with the
// cluster fault when one was surfaced (keeping its rank attribution),
// else as a plain panic naming what failed.
func (l *procLink) sessFail(what string, err error) {
	if fe := l.sess.Err(); fe != nil {
		panic(abort{fe})
	}
	panic(fmt.Sprintf("procnet: node %d %s: %v", l.env.Node, what, err))
}

// interrupted is the fabric's intr hook (f.mu held): a cluster fault
// aborts any local actor, a pending view change only user actors —
// servers must keep serving the restore reads of the recovery protocol.
func (l *procLink) interrupted(server bool) error {
	if l.fault != nil {
		return l.fault
	}
	if l.viewIntr && !server {
		return &ViewInterrupt{Epoch: l.viewEpoch, Dead: l.viewDead}
	}
	return nil
}

// onClockStart adopts the launch's clock start as this worker's fabric time
// 0. It runs inside up, before any frame is delivered and any actor starts,
// so every stamp a frame carries between workers is taken against the one
// launch clock: against each worker's own start, a receiver would hold every
// frame from a worker that started earlier for the difference.
func (l *procLink) onClockStart(t time.Time) { l.f.start = t }

// onData is the session's delivery callback.
func (l *procLink) onData(m *msg.Message) { l.f.arrive(l.f.boxes[m.Dst], m, nil) }

// onCorrupt reports a peer connection's corrupt frame, which ended it.
func (l *procLink) onCorrupt(err error) {
	l.f.report(fmt.Errorf("procnet: node %d received corrupt frame: %w", l.env.Node, err))
}

// onFault surfaces a cluster fault — a peer worker died or the
// coordinator vanished — to every blocked local actor and to Run.
func (l *procLink) onFault(fe *pipeline.FaultError) {
	l.f.control(func() { l.fault, l.f.shutdown = fe, true })
	l.f.report(fe)
}

// onView installs a membership view. A newer epoch is a membership
// change: local user actors are interrupted out of their blocking calls
// so the elastic runner can abort the current sync epoch and run
// recovery. The pipeline epoch is NOT advanced here — that happens in
// AckView, after the user actor has unwound, so every message this
// worker sent for the aborted epoch still carries the old view epoch
// and is fenced out at receivers that have already advanced.
func (l *procLink) onView(v wire.View) {
	l.f.control(func() {
		if v.Epoch > l.viewEpoch {
			l.viewEpoch = v.Epoch
			l.viewDead = v.Dead
			l.viewIntr = true
			l.resume = nil
		}
	})
}

// onResume records the coordinator's recovery hand-off.
func (l *procLink) onResume(r wire.EpochReport) {
	l.f.control(func() { l.resume = &r })
}

// ViewInterrupt is the abort thrown through a user actor's blocking
// calls when a membership change invalidates the sync epoch it is
// executing. The elastic runner recovers it (see transport.AsViewInterrupt)
// and drives the recovery protocol; a workload that does not handle it
// fails the worker, which is the right outcome for non-elastic bodies
// run under an elastic launch.
type ViewInterrupt struct {
	// Epoch is the new membership view epoch.
	Epoch uint64
	// Dead is the node slot being replaced.
	Dead int
}

func (v *ViewInterrupt) Error() string {
	return fmt.Sprintf("membership view changed to epoch %d (node %d replaced)", v.Epoch, v.Dead)
}

// AsViewInterrupt reports whether a recovered panic value is a view
// interrupt — the elastic runner's recovery entry point.
func AsViewInterrupt(r any) (*ViewInterrupt, bool) {
	a, ok := r.(abort)
	if !ok {
		return nil, false
	}
	var vi *ViewInterrupt
	if errors.As(a.err, &vi) {
		return vi, true
	}
	return nil, false
}

// ElasticEnv is the recovery interface of fabrics that support elastic
// membership (currently procnet). The elastic runner type-asserts its
// Env to reach it; on fabrics without it, crashes are emulated
// cooperatively in-process instead. A cluster fault or a newer view
// aborts each of its waits; OpDeadline bounds each but AwaitResume. (The
// coordinator repairs one loss per launch and refuses a second, so a newer
// view cannot arrive today.)
type ElasticEnv interface {
	// ElasticEnabled reports whether this run repairs worker loss.
	ElasticEnabled() bool
	// Incarnation is this worker's spawn count (0 = initial launch).
	Incarnation() uint32
	// ViewEpoch is the installed membership view epoch, from which every
	// rank rebases its collectives after a repair.
	ViewEpoch() uint64
	// AckView acknowledges the pending view change with this rank's
	// committed sync epoch. It clears the view
	// interrupt, fences the aborted epoch's traffic (mailbox purge,
	// pipeline epoch advance, dead-pair reset) and must be the first
	// env call on the recovery path.
	AckView(committed uint64)
	// AwaitResume blocks for the coordinator's recovery hand-off and
	// returns the replaced node slot and the sync epoch to resume from.
	// The coordinator bounds it: a respawn that does not rejoin within
	// the join timeout is a cluster fault.
	AwaitResume() (dead int, resume uint64)
}

// procEnv is the Env of a user actor on the proc fabric: the shared
// wall-clock Env plus the elastic recovery surface.
type procEnv struct {
	*wallEnv
	l *procLink
}

var _ ElasticEnv = (*procEnv)(nil)

func (e *procEnv) ElasticEnabled() bool { return e.l.env.Elastic }
func (e *procEnv) Incarnation() uint32  { return e.l.env.Incarnation }

func (e *procEnv) ViewEpoch() uint64 {
	e.f.mu.Lock()
	defer e.f.mu.Unlock()
	return e.l.viewEpoch
}

// AckView fences the aborted sync epoch and acknowledges the view. Like
// AwaitResume it waits, so it listens first.
func (e *procEnv) AckView(committed uint64) {
	e.listen()
	if err := e.l.sess.SendViewAck(wire.ViewAck{
		Node: e.l.env.Node, Epoch: e.fenceView(), Committed: committed,
	}); err != nil {
		e.l.sessFail("view ack", err)
	}
}

// fenceView closes every membership epoch below the installed view's on
// this worker and returns that view's epoch. Each local box, under its own
// lock, refuses older frames from here on (arrive) and drops the ones
// queued; then the caller waits ("view-fence") until the box's server has
// applied a frame it had already popped: that frame is in neither mailbox
// nor pipeline, and applied after the caller's rollback it would resurrect
// the aborted epoch. Only then does this worker stamp the new epoch and
// forget per-pair sequencing with the replaced node (its respawned
// incarnation restarts sequences at 1). The wait is an operation like any
// other: a cluster fault or a newer view aborts it, and so does OpDeadline.
func (e *procEnv) fenceView() uint64 {
	l, f := e.l, e.f
	var epoch uint64
	var dead int
	f.control(func() {
		epoch, dead = l.viewEpoch, l.viewDead
		l.viewIntr = false
	})
	for _, b := range f.boxes {
		b.mu.Lock()
		b.fence = epoch
		b.q.DropBelow(epoch)
		b.draining = b.inService
		b.mu.Unlock()
		e.block("view-fence", shmem.Cells{}, func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return !b.draining
		}, 0, true)
	}
	f.pipe.SetEpoch(epoch)
	f.pipe.ResetPeer(func(a msg.Addr) bool { return endpointNode(f.space, a) == dead })
	return epoch
}

// AwaitResume waits ("resume") for the recovery hand-off. It is exempt
// from OpDeadline: the window holds a process respawn, which the
// coordinator's rejoin watchdog bounds instead (see ElasticEnv).
func (e *procEnv) AwaitResume() (int, uint64) {
	l, f := e.l, e.f
	var r *wire.EpochReport
	e.block("resume", shmem.Cells{}, func() bool {
		f.mu.Lock()
		r = l.resume
		f.mu.Unlock()
		return r != nil
	}, 0, false)
	return r.Node, r.Epoch
}
