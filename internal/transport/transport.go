// Package transport provides the execution fabrics an emulated ARMCI
// cluster runs on. Protocol code (fences, barriers, locks, collectives,
// Global Arrays) is written once against the Env interface and runs
// unchanged on:
//
//   - simnet:  a deterministic discrete-event fabric with a virtual clock
//     and a calibrated cost model — the fabric that reproduces the paper's
//     figures as virtual-time measurements;
//   - channet: real goroutines exchanging messages through in-process
//     mailboxes — the fabric correctness tests use;
//   - tcpnet:  real goroutines whose every message crosses a loopback TCP
//     socket of its (source, destination) pair, dialed on the pair's
//     first frame — the "emulate over sockets" fabric;
//   - procnet: one OS process per SMP node, every inter-node message over
//     a real TCP connection set up by internal/cluster — the fabric
//     cmd/armci-run launches.
//
// The last three run in wall time and are one runtime (wallnet.go: one
// box per endpoint, the bounded wait, deadlines, crash grace, the actor
// life cycle) over three links that only move frames.
package transport

import (
	"fmt"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/trace"
)

// Clock abstracts virtual versus wall time. Now is the duration since the
// fabric started.
type Clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
}

// Env is the execution environment of one actor — a user process or a data
// server. All methods must be called from the actor's own goroutine, or,
// for a data server's, from its Handler, wherever the fabric runs it.
type Env interface {
	// Self returns this actor's endpoint address.
	Self() msg.Addr
	// Rank returns the actor's rank (user processes) or node (servers).
	Rank() int
	// Size returns the number of user processes in the cluster.
	Size() int
	// NumNodes returns the number of SMP nodes.
	NumNodes() int
	// Node returns the node index hosting the given rank.
	Node(rank int) int
	// Space returns the cluster's shared memory.
	Space() *shmem.Space
	// Clock returns the fabric clock.
	Clock() Clock
	// Params returns the cost model in force.
	Params() model.Params
	// Send transmits m to the given endpoint. Delivery is reliable and
	// FIFO per (source, destination) pair. Send charges the sender the
	// modeled send overhead and returns without waiting for delivery.
	//
	// Send borrows m — its fields, its payload and its stride descriptor's
	// vectors — only until it returns (it stamps the pipeline's fields on
	// it meanwhile); the caller may then rewrite or reuse all of it, as an
	// ARMCI put's caller may its buffer. A fabric that delivers m after
	// Send returns copies it first, once, into an arena (msg.Arena.Keep):
	// chan a frame it queues in a mailbox, in the sender's; sim every
	// frame it schedules, in the fabric's. tcp and proc have encoded the
	// frame by then and copy nothing. A frame chan serves on the sender's
	// goroutine is handled from the borrowed m, so a Handler keeps nothing
	// of its message past its return.
	Send(to msg.Addr, m *msg.Message)
	// Recv blocks until a message satisfying match is available, removes
	// it from the mailbox and returns it.
	Recv(match msg.Match) *msg.Message
	// Charge models d of CPU work by this actor.
	Charge(d time.Duration)
	// WaitUntil blocks until pred() is true. pred may read cells, which
	// lie in the memory of the caller's own node (its own and co-located
	// ranks' segments), and fabric control state (CrashedRank), nothing
	// else: the wall-clock fabrics re-evaluate it when a write overlaps
	// cells or a control event occurs — not on other writes, and not on
	// deliveries. (The simulated fabric re-evaluates it on every write and
	// on a registered crash; it fails the run when the predicate turns
	// true after a slice in which only writes outside cells poked it — a
	// read the wait did not declare — and names a predicate that turned
	// true on anything else as a missed wake-up when the run ends.) tag is
	// diagnostic.
	WaitUntil(tag string, cells shmem.Cells, pred func() bool)
	// WaitUntilFor is the bounded form of WaitUntil: it blocks until
	// pred() is true or d has elapsed (virtual time on the simulated
	// fabric, wall time on the concurrent ones), reporting whether the
	// predicate was satisfied. Unlike WaitUntil it never aborts on
	// timeout — the caller owns the recovery decision (the lease lock's
	// TTL spin is built on it). d <= 0 degrades to an unbounded wait.
	WaitUntilFor(tag string, cells shmem.Cells, pred func() bool, d time.Duration) bool
	// Faults returns the fault plan in force (zero value: no faults).
	// The lock layer consults it for the crash-while-holding knobs.
	Faults() pipeline.Faults
	// CrashedRank returns the first user rank recorded as fail-stopped,
	// or -1 while no rank has crashed. Crash-aware spins consult it to
	// fail fast (or repair) instead of waiting on a dead peer.
	CrashedRank() int
	// FailStop terminates this actor as an injected fail-stop crash: the
	// crash is counted once in the metrics, the rank enters the crash
	// registry (waking crash-aware waiters), and the actor's goroutine
	// unwinds — without failing the rest of the run, so survivors can
	// recover. op names the operation for attribution. FailStop never
	// returns. On the multi-process fabric a fail-stop is job-fatal:
	// the crash registry is process-local, so remote waiters cannot
	// learn of the crash and the run aborts with the FaultError instead.
	FailStop(op string)
	// Trace returns the statistics collector (never nil).
	Trace() *trace.Stats
}

// Config describes the emulated cluster.
type Config struct {
	// Procs is the number of user processes (ranks).
	Procs int
	// ProcsPerNode is how many consecutive ranks share one SMP node.
	// Defaults to 1 (each process on its own node, as in the paper's
	// 16-node runs).
	ProcsPerNode int
	// Model is the cost model. The zero value (model.Zero()) disables
	// all latency injection on the real fabrics.
	Model model.Params
	// Trace, if non-nil, is the run's recorder: message counters, fault
	// counters and, when switched on, captured events and latency
	// histograms.
	Trace *trace.Stats
	// Faults configures deterministic fault injection — uniform jitter,
	// per-pair latency spikes and bounded duplicate delivery — applied
	// identically on every fabric by the shared send/receive pipeline.
	// Per-pair FIFO delivery is preserved throughout, and duplicates
	// are suppressed at the receiver, so protocol code still observes
	// reliable exactly-once delivery. The zero value disables faults.
	Faults pipeline.Faults
	// ScheduleSeed, when non-zero, makes the simulated fabric pick among
	// simultaneously runnable processes pseudo-randomly (reproducibly for
	// a given seed) instead of FIFO — interleaving exploration for
	// protocol tests. Seed 0 is the FIFO baseline schedule. Must be >= 0;
	// ignored by the concurrent fabrics.
	ScheduleSeed int64
	// Deadline bounds a fabric run; 0 means the fabric default.
	Deadline time.Duration
	// OpDeadline bounds a single blocking operation — one user-process
	// Recv or one WaitUntil — as opposed to Deadline, which bounds the
	// whole run. An operation that exceeds it aborts the run with a
	// rank-attributed *pipeline.FaultError (FaultOpTimeout), so a rank
	// wedged by a crashed peer fails fast instead of hanging until the
	// run deadline. Virtual time on the simulated fabric, wall time on
	// the concurrent ones; 0 disables the bound. Server Recvs are
	// exempt: a data server idling in its serve loop is not an error.
	OpDeadline time.Duration
	// CrashGrace bounds, on the concurrent fabrics, how long a blocked
	// wait may outlive a fail-stopped peer: once a crash is in the
	// registry, any user-process Recv or WaitUntil still blocked
	// CrashGrace later aborts with a FaultCrash attributed to the
	// crashed rank. The default (1s wall time) is far above the default
	// lease TTL, so lease-lock waiters repair and continue well before
	// the grace fires — only waits with no recovery path (a plain queue
	// lock behind a dead holder, a barrier missing a crashed rank) hit
	// it. The simulated fabric needs no grace: a wedged survivor shows
	// up as a virtual-time deadlock, which is converted the same way.
	CrashGrace time.Duration
}

// defaultCrashGrace is the concurrent fabrics' crash-to-abort bound when
// Config.CrashGrace is zero.
const defaultCrashGrace = time.Second

func (c *Config) normalize() error {
	if c.Procs <= 0 {
		return fmt.Errorf("transport: config needs Procs >= 1, got %d", c.Procs)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("transport: config needs Deadline >= 0, got %v", c.Deadline)
	}
	if c.OpDeadline < 0 {
		return fmt.Errorf("transport: config needs OpDeadline >= 0, got %v", c.OpDeadline)
	}
	if c.ScheduleSeed < 0 {
		return fmt.Errorf("transport: config needs ScheduleSeed >= 0, got %d", c.ScheduleSeed)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("transport: bad fault plan: %w", err)
	}
	if c.Faults.CrashAfterSends > 0 && c.Faults.CrashRank >= c.Procs {
		return fmt.Errorf("transport: Faults.CrashRank %d out of range [0,%d)", c.Faults.CrashRank, c.Procs)
	}
	if c.Faults.CrashHeldAcquire > 0 && c.Faults.CrashHeldRank >= c.Procs {
		return fmt.Errorf("transport: Faults.CrashHeldRank %d out of range [0,%d)", c.Faults.CrashHeldRank, c.Procs)
	}
	if c.CrashGrace < 0 {
		return fmt.Errorf("transport: config needs CrashGrace >= 0, got %v", c.CrashGrace)
	}
	if c.CrashGrace == 0 {
		c.CrashGrace = defaultCrashGrace
	}
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = 1
	}
	if c.Trace == nil {
		c.Trace = trace.New()
	}
	return nil
}

// newPipeline builds the shared send/receive pipeline of one fabric
// instance. chargeModel selects whether the cost-model stage is active
// (send/recv overheads and wire latency): the simulated fabric always
// charges, the channel fabric only under latency injection, the TCP
// fabric never (it measures real socket costs).
func (c *Config) newPipeline(space *shmem.Space, chargeModel bool) *pipeline.Pipeline {
	return pipeline.New(pipeline.Config{
		Params:      c.Model,
		ChargeModel: chargeModel,
		Faults:      c.Faults,
		Stats:       c.Trace,
		Local: func(src, dst msg.Addr) bool {
			return endpointNode(space, src) == endpointNode(space, dst)
		},
	})
}

// nodeMap returns the rank→node assignment of the config.
func (c *Config) nodeMap() []int {
	nodes := make([]int, c.Procs)
	for r := range nodes {
		nodes[r] = r / c.ProcsPerNode
	}
	return nodes
}

// numNodes returns the node count of the config.
func (c *Config) numNodes() int {
	return (c.Procs + c.ProcsPerNode - 1) / c.ProcsPerNode
}

// Fabric builds and runs a cluster of actors.
type Fabric interface {
	// Space returns the cluster's shared memory.
	Space() *shmem.Space
	// Config returns the cluster configuration.
	Config() *Config
	// SpawnUser registers the body of rank's user process.
	SpawnUser(rank int, body func(Env))
	// SpawnServer registers node's data server (or NIC agent): start
	// builds it on its Env at once and returns its request handler. The
	// server's actor serves its mailbox with the handler until every user
	// process has finished (serve); on chan a request may instead be
	// served on delivery, on its sender's goroutine, never beside another.
	SpawnServer(node int, start func(Env) Handler)
	// Run executes all registered actors to completion of the user
	// processes and returns the first error (panic, deadlock, deadline).
	Run() error
}

// Handler serves one request of a data server. A server's handler runs
// once at a time, on the server's goroutine or, on chan, its requester's;
// in the latter case m is the requester's, lent for the call (Env.Send),
// so a handler keeps no part of m — its payload included — past its
// return.
type Handler func(m *msg.Message)

// serve is the serve loop of every data server: it hands each request its
// Recv takes to h until the fabric shuts the cluster down (Recv returns
// nil). Server Recvs are exempt from the per-op deadline: an idle server
// is the normal state, not a stuck one. A fault elsewhere in the cluster
// flags shutdown, so the loop drains its mailbox and ends instead of
// wedging in Recv; a fault of one of the handler's own reply sends aborts
// the server with the rank-attributed error, which Run returns.
func serve(e Env, h Handler) {
	for m := e.Recv(msg.MatchAny); m != nil; m = e.Recv(msg.MatchAny) {
		h(m)
	}
}

// abort is the panic value the wall-clock fabrics use to terminate an
// actor with a structured error: runActor recovery propagates err
// verbatim (the simulated fabric uses sim.Abort for the same purpose).
type abort struct{ err error }

// failStop is the panic value a concurrent-fabric actor raises to die
// as an injected fail-stop crash: actor recovery treats it as a normal
// completion — no error is recorded and no shutdown is triggered — so
// the rest of the cluster keeps running and may recover (the simulated
// fabric uses sim.Exit for the same purpose). The crash itself is
// visible to survivors only through the pipeline's crash registry.
type failStop struct{}

// opTimeout builds the fault raised when one operation of the actor at a
// exceeds Config.OpDeadline.
func opTimeout(a msg.Addr, op string) *pipeline.FaultError {
	return &pipeline.FaultError{Rank: a.ID(), Server: a.Server(), Op: op, Kind: pipeline.FaultOpTimeout}
}

// endpointNode returns the node an endpoint lives on. Server-class
// endpoints with IDs at or beyond the node count are NIC agents: agent i
// serves node i - NumNodes (see msg.NICOf).
func endpointNode(space *shmem.Space, a msg.Addr) int {
	if a.Server() {
		if a.ID() >= space.NumNodes() {
			return a.ID() - space.NumNodes()
		}
		return a.ID()
	}
	return space.Node(a.ID())
}
