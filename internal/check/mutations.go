package check

import (
	"fmt"
	"time"

	"armci"
	"armci/internal/collective"
	"armci/internal/core"
	"armci/internal/msg"
	"armci/internal/proc"
	"armci/internal/shmem"
	"armci/internal/trace"
	"armci/internal/workload"
)

// Mutation self-test: deliberately broken variants of the algorithms
// under test. Each reintroduces a bug class the oracles exist to catch —
// a release that races its late-linking successor, an off-by-one ticket
// gate, a barrier whose fence stage is skipped — and the harness proves
// itself by detecting every one of them under a seed sweep. A lock mutant
// is the real lock from internal/core, embedded, with exactly the buggy
// step overridden out of the same exported module steps the real lock
// composes (core.Queue, core.Lease, core.Gate, core.Holder); the sync
// mutants re-stage the barrier against the Proc surface. The bugs live
// here: internal/core carries no hazard flag, hook or broken path.

// Mutation names.
const (
	// MutQueueSkipLinkWait: an MCS release that skips the wait for a
	// late-linking successor — when the compare&swap fails (a requester
	// swapped in but has not linked yet) it reads the next pointer once
	// and gives up, orphaning the successor, which spins forever.
	// Detected as a liveness violation (deadlock). The swap→link window
	// is narrower than the calibrated network's round trip, so the
	// mutation's sweep runs under a latency-spike fault plan that can
	// delay the successor's link store past the releaser's re-read —
	// the preemption a real machine provides for free.
	MutQueueSkipLinkWait = "queue-skip-link-wait"
	// MutTicketOffByOne: a ticket lock whose wait admits ticket t when
	// the counter reads t-1, so the next waiter enters while the current
	// holder is still inside. Detected by the mutual-exclusion oracle.
	MutTicketOffByOne = "ticket-off-by-one"
	// MutBarrierSkipStage2: a combined barrier that distributes op_init
	// (stage i) and synchronizes (stage iii) but skips waiting for the
	// local server's op_done to catch up (stage ii). Outstanding puts
	// escape the fence. On the calibrated network every put lands well
	// inside the all-reduce, so the sweep runs under a latency-spike
	// plan that keeps some puts in flight past the broken exit.
	// Detected by the fence oracle (and the state-level read-back).
	MutBarrierSkipStage2 = "barrier-skip-stage2"
	// MutBarrierEmptyLocal: a combined barrier whose empty-epoch exit
	// reads the wrong number. Stage i sums op_init deltas correctly, but
	// a rank leaves after it when the summed delta to its OWN node is
	// zero, not when the whole vector is. A rank whose node nobody wrote
	// skips stages ii and iii while the ranks of a written node run them,
	// so it can exit before puts it issued elsewhere have landed, and the
	// ranks left in stage iii wait on a barrier nobody else joins. The
	// case runs the hybrid lock: its critical sections write rank 0's
	// node alone, so the first sync has written and unwritten nodes (the
	// queue lock's links write every node, and the put rounds write every
	// node or none, where the two rules agree). Detected by the liveness
	// oracle: the early ranks' next all-reduce meets the stage-iii
	// barrier of the others.
	MutBarrierEmptyLocal = "barrier-empty-local"
	// MutSyncOldSkipFence: a GA_Sync that performs only the MPI barrier,
	// skipping AllFence entirely. Detected by the fence oracle.
	MutSyncOldSkipFence = "sync-old-skip-fence"
	// MutEventPoolRecycle: the algorithms are untouched — the bug is in
	// the harness substrate itself. The simulated kernel's event pool
	// recycles an event that is still sitting in the pending heap
	// (sim.Kernel.SetEventPoolHazard), so its callback is overwritten and
	// the original firing is lost or replayed. Lost wakeups strand
	// waiters; detected as a liveness violation (deadlock/deadline) or,
	// when a delivery callback is the casualty, by the delivery/state
	// oracles. Proves the oracles catch pooling-induced corruption, not
	// just protocol bugs.
	MutEventPoolRecycle = "event-pool-recycle"
	// MutCoalesceReorder: the coalescer flushes each batch with its
	// entries reversed (pipeline.Coalescer.SetReorderHazard), so a
	// notify flag coalesced behind its data chunks is applied first and
	// the consumer's spin wakes while the chunks are still landing.
	// Detected by the state oracle: the notify/wait phase reads a stale
	// chunk byte-for-byte. Proves batching preserves within-batch order,
	// not just per-pair frame order.
	MutCoalesceReorder = "coalescer-reorder"
	// MutLeaseStaleRelease: a lease lock whose release skips the epoch
	// compare&swap — it frees the lock unconditionally instead of
	// presenting its epoch, so a holder that a repair deposed while it
	// was slow still gives the lock away underneath the repair's
	// beneficiary. The case runs a crashheld plan (arming recovery) with
	// a TTL far below the critical-section time, so live holders are
	// routinely deposed and their broken releases hand the lock to a
	// second rank mid-tenure. Detected by the lease oracle's
	// mutual-exclusion check (checkLease): a deposed holder's release of
	// its epoch with no stale release beside it, or an epoch claimed
	// twice.
	MutLeaseStaleRelease = "lease-stale-release"
	// MutLeaseDoubleClaim: a lease lock whose registration stores its
	// claim instead of compare&swapping it, so two ranks that find one
	// epoch free both take it. Configured as lease-stale-release is.
	// Detected by the lease oracle's mutual-exclusion check: an epoch
	// claimed twice.
	MutLeaseDoubleClaim = "lease-double-claim"
	// MutAccLostUpdate: the parameter-server workload's atomic
	// Accumulate replaced by a non-atomic Get/Put read-modify-write
	// (workload.Hazards.AccLostUpdate). With every rank hammering the
	// same hot cells, two ranks routinely interleave their read and
	// write and one of the updates vanishes — the classic lost update no
	// trace-level oracle can see, because every individual message is
	// delivered exactly once and fenced correctly. Only the workload's
	// accumulate-sum exactness oracle (state) catches it.
	MutAccLostUpdate = "acc-lost-update"
	// MutFlagBeforeData: the producer-consumer workload's PutFlag
	// replaced by a plain word store of the flag issued before the data
	// chunks (workload.Hazards.FlagBeforeData). The store rides the
	// control pipe while the puts ride the server pipe, so the flag
	// overtakes its data and the consumer's WaitFlag wakes over a stale
	// buffer. Per-pair delivery and fence oracles stay green — nothing
	// was lost or reordered within a pipe; only the workload's
	// no-stale-read byte verification (state) catches it. The case runs
	// one rank per node so every hop crosses the wire.
	MutFlagBeforeData = "flag-before-data"
	// MutKnomialSkipSubtree: a combined barrier whose stage-iii k-nomial
	// exchange releases early — the parent skips receiving its last
	// child's subtree report but still sends every release, so the
	// ranks outside that subtree exit while the skipped subtree may
	// still be in stage ii waiting for its node's op_done. Stages i and
	// ii are correct, so a rank's own node is always fenced; the bug is
	// only visible when a spike-delayed put TO the skipped subtree's
	// node is still in flight as the root exits. The sweep's spike plan
	// is large-and-rare (5ms at 5%) rather than the barrier mutations'
	// 1ms at 20%: frequent spikes also stagger the ranks' barrier
	// entries by more than the spike itself, closing the window — the
	// delayed put must outlive the whole exchange, not just one stage.
	// Detected by the fence oracle (a pre-entry operation completing
	// after some rank's exit).
	MutKnomialSkipSubtree = "knomial-skip-subtree"
	// MutReplStaleEpoch: an elastic-replication recovery in which the
	// survivors skip the rollback to the cluster resume epoch — state
	// from the aborted epoch (a deposed view of the computation, the
	// in-memory analogue of applying a deposed incarnation's frame)
	// survives into the re-execution, so the non-idempotent fetch-adds
	// of the interrupted epoch apply twice. Detected by the state
	// oracle: the post-recovery cluster fingerprint diverges from the
	// pure-replay oracle every correct run must converge to. The byte
	// puts are idempotent and would mask the bug; only the fetch-add
	// half of the workload exposes it.
	MutReplStaleEpoch = "repl-stale-epoch"
	// MutWaitWrongCell: a queue lock whose wake wait declares the wrong
	// cells — its node's next pointer instead of the flag its predicate
	// reads. On a wall-clock fabric the releaser's store to the flag
	// signals nobody, and the waiter sleeps through its hand-off (or
	// wakes late, by chance, on a successor's link). Detected by the
	// simulator's declaration check, which fails the run as a liveness
	// violation ("undeclared read") the first time a hand-off wakes the
	// waiter with no write to its declared cells.
	MutWaitWrongCell = "wait-wrong-cell"
	// MutChanLendQueued: the algorithms are untouched — the bug is in the
	// chan link (transport.SetLendQueuedHazard). A frame it queues in a
	// mailbox is the sender's message itself, not the copy a send owes a
	// frame delivered after it returns, so the sender's next send rewrites
	// a frame still waiting: a collective's next phase its last payload
	// and tag, the engine's next request its last. Detected as a liveness
	// violation (a receive that never matches, a barrier that never
	// completes) or by the state and fence oracles when a rewritten frame
	// still matches. Proves the oracles catch a fabric that keeps what it
	// was only lent.
	MutChanLendQueued = "chan-lend-queued"
	// MutPanicCase: not an algorithm bug — the workload panics outright
	// mid-case, simulating a harness defect. It exists to test that the
	// sweep runner recovers per case, attributes the panic to its
	// reproducer tuple, and exits non-zero instead of reporting a clean
	// sweep. Excluded from Mutations(): DetectMutation proves oracles,
	// not the runner.
	MutPanicCase = "panic-case"
)

// mutationSpec describes one broken variant: which real algorithm the
// base case names (for the reproducer), plus the broken factory for the
// component it replaces.
type mutationSpec struct {
	alg    string
	sync   string
	faults string // fault plan that widens the bug's race window
	lock   func(p *armci.Proc) armci.Mutex
	syncFn func(p *armci.Proc, epoch *int) func()
	// simHazard arms the simulated kernel's event-pool bug instead of
	// mutating an algorithm (sim fabric only; see armSubstrate).
	simHazard bool
	// chanHazard arms every user's chan link bug instead (chan fabric
	// only; see armSubstrate).
	chanHazard bool
	// opDeadline overrides the case's per-operation bound on a wall-clock
	// fabric, where the bug's usual symptom is a receive that never
	// matches.
	opDeadline time.Duration
	// coalesceHazard runs the case with coalescing enabled and each
	// rank's coalescer's within-batch reorder bug armed.
	coalesceHazard bool
	// harnessPanic makes RunCase panic mid-case (runner-recovery test).
	harnessPanic bool
	// leaseTTL overrides the lease TTL of the case (lease mutations use
	// a TTL below the critical-section time to force live deposals).
	leaseTTL time.Duration
	// csDelay stretches every critical section of the crash workload by
	// a virtual-time sleep, so a tenure reliably outlives the lease TTL
	// and waiters depose live holders mid-section.
	csDelay time.Duration
	// workload names the internal/workload spec the hazard lives in;
	// hazards are consulted only by named workload bodies.
	workload string
	hazards  workload.Hazards
	// ppn overrides the case's processes per node (0 = default).
	ppn int
	// elastic runs the elastic-replication recovery workload with the
	// skip-rollback hazard armed (the crash itself comes from the
	// case's crashrank fault plan).
	elastic bool
}

var mutationSpecs = map[string]mutationSpec{
	MutQueueSkipLinkWait: {alg: "queue", sync: "barrier", faults: "spike=1ms@0.2",
		lock: func(p *armci.Proc) armci.Mutex {
			return brokenQueueLock{p.Mutex(0, armci.LockQueue).(*core.QueueLock)}
		}},
	MutTicketOffByOne: {alg: "ticket", sync: "barrier",
		lock: func(p *armci.Proc) armci.Mutex {
			return brokenTicket{p.Mutex(0, armci.LockTicket).(*core.Ticket), p}
		}},
	MutBarrierSkipStage2: {alg: "queue", sync: "barrier", faults: "spike=1ms@0.2", syncFn: brokenBarrier},
	MutBarrierEmptyLocal: {alg: "hybrid", sync: "barrier", syncFn: brokenEmptyLocalBarrier},
	MutSyncOldSkipFence:  {alg: "queue", sync: "sync-old", syncFn: brokenSyncOld},
	MutEventPoolRecycle:  {alg: "queue", sync: "barrier", simHazard: true},
	MutCoalesceReorder:   {sync: "barrier", coalesceHazard: true},
	MutLeaseStaleRelease: {alg: "lease", sync: "barrier", faults: "crashheld=1@1",
		leaseTTL: mutLeaseTTL, csDelay: 300 * time.Microsecond,
		lock: func(p *armci.Proc) armci.Mutex {
			return brokenLeaseLock{p.Mutex(0, armci.LockLease).(*core.LeaseLock), p}
		}},
	MutLeaseDoubleClaim: {alg: "lease", sync: "barrier", faults: "crashheld=1@1",
		leaseTTL: mutLeaseTTL, csDelay: 300 * time.Microsecond,
		lock: func(p *armci.Proc) armci.Mutex {
			return brokenLeaseClaim{p.Mutex(0, armci.LockLease).(*core.LeaseLock), p}
		}},
	MutAccLostUpdate: {workload: "paramserver", sync: "barrier",
		hazards: workload.Hazards{AccLostUpdate: true}},
	MutFlagBeforeData: {workload: "prodcons", sync: "barrier", ppn: 1,
		hazards: workload.Hazards{FlagBeforeData: true}},
	MutKnomialSkipSubtree: {alg: "queue", sync: "barrier-knomial", faults: "spike=5ms@0.05",
		syncFn: brokenKnomialBarrier},
	MutReplStaleEpoch: {sync: "barrier", faults: "crashrank=1@2", elastic: true},
	MutWaitWrongCell: {alg: "queue", sync: "barrier",
		lock: func(p *armci.Proc) armci.Mutex {
			return brokenWaitCell{p.Mutex(0, armci.LockQueue).(*core.QueueLock), p}
		}},
	MutChanLendQueued: {alg: "queue", sync: "barrier", chanHazard: true, opDeadline: 2 * time.Second},
	MutPanicCase:      {alg: "queue", sync: "barrier", harnessPanic: true},
}

// Mutations returns the broken variant names, in a fixed order.
func Mutations() []string {
	return []string{MutQueueSkipLinkWait, MutTicketOffByOne, MutBarrierSkipStage2,
		MutSyncOldSkipFence, MutEventPoolRecycle, MutCoalesceReorder,
		MutLeaseStaleRelease, MutAccLostUpdate, MutFlagBeforeData,
		MutKnomialSkipSubtree, MutReplStaleEpoch, MutBarrierEmptyLocal, MutWaitWrongCell,
		MutChanLendQueued, MutLeaseDoubleClaim}
}

// mutLeaseTTL is the lease mutants' TTL, far below their critical
// sections, so live holders are routinely deposed.
const mutLeaseTTL = 10 * time.Microsecond

// MutationFabric reports the fabric a mutation's sweep runs on: chan for
// the chan link's bug, sim for every other.
func MutationFabric(name string) armci.FabricKind {
	if mutationSpecs[name].chanHazard {
		return armci.FabricChan
	}
	return armci.FabricSim
}

// MutationWorkload reports the workload spec a mutation targets (""
// for lock/sync/harness mutations) and its processes-per-node override
// (0 = none), so sweep drivers can default their case shape to the
// mutation's own scenario the same way MutationCase does.
func MutationWorkload(name string) (workloadSpec string, ppn int) {
	m := mutationSpecs[name]
	return m.workload, m.ppn
}

// MutationLock reports the lock algorithm a lock mutant replaces (""
// for every other mutation). The mutant stands in for whatever lock a
// case names, so a sweep driver runs it under that algorithm's name
// alone: under any other, the reproducer would name a lock that never
// ran.
func MutationLock(name string) string {
	if m := mutationSpecs[name]; m.lock != nil {
		return m.alg
	}
	return ""
}

// MutationIters is the per-rank critical-section count the mutation
// self-test sweeps at — deeper than the default case so narrow race
// windows get more chances per seed. Reproducer replays must use the
// same count (cmd/armci-check defaults -iters from it under -mutation).
const MutationIters = 6

// MutationCase builds the sweep template of one mutation at one seed.
func MutationCase(name string, seed int64) Case {
	m := mutationSpecs[name]
	return Case{
		Fabric:   MutationFabric(name),
		Alg:      m.alg,
		Workload: m.workload,
		Sync:     m.sync,
		Faults:   m.faults,
		PPN:      m.ppn,
		Coalesce: m.coalesceHazard,
		Seed:     seed,
		Iters:    MutationIters,
		Mutation: name,
		LeaseTTL: m.leaseTTL,
	}
}

// DetectMutation sweeps seeds until the mutation's bug is caught,
// returning the first violating result. ok is false when no seed in the
// range exposed the bug — a harness failure.
func DetectMutation(name string, seedLo, seedHi int64) (Result, bool) {
	for seed := seedLo; seed <= seedHi; seed++ {
		r := RunCase(MutationCase(name, seed))
		if len(r.Violations) > 0 {
			return r, true
		}
	}
	return Result{}, false
}

// --- lock mutants: the real lock, one step overridden ---

// brokenQueueLock is core.QueueLock except that its release skips the
// late-link wait: when the detach fails because a requester swapped
// itself in but has not linked yet, the correct release waits for the
// link; this one reads the next pointer once and gives up, orphaning the
// successor on its spin.
type brokenQueueLock struct{ *core.QueueLock }

func (q brokenQueueLock) Unlock() {
	q.Released()
	next := q.Successor()
	if next.IsNil() {
		if q.Detach() {
			return
		}
		// BUG: should be q.AwaitLink(); gives up instead.
		if next = q.Successor(); next.IsNil() {
			return // successor orphaned: it spins on its flag forever
		}
	}
	q.Wake(next)
}

// brokenLeaseLock is core.LeaseLock except that its release frees the
// lease WITHOUT the epoch compare&swap: a deposed holder should lose
// that CAS and have its release rejected as stale; this one stores the
// freed state unconditionally, handing the lock away from under whoever
// the repair gave it to.
type brokenLeaseLock struct {
	*core.LeaseLock
	p *armci.Proc
}

func (l brokenLeaseLock) Unlock() {
	l.Released()
	// BUG: should be l.Release(l.Epoch()), whose CAS a stale epoch loses.
	l.p.StorePair(l.p.Locks().LeaseState[0], shmem.Pair{Hi: l.Epoch() + 1, Lo: -int64(l.p.Rank() + 1)})
	l.Stamp(l.p.Env().Clock().Now())
	l.HandOff()
}

// brokenLeaseClaim is core.LeaseLock except that its registration stores
// the claim instead of compare&swapping it from the free state it read.
type brokenLeaseClaim struct {
	*core.LeaseLock
	p *armci.Proc
}

// Lock is LeaseLock.Lock with register replaced by claim.
func (l brokenLeaseClaim) Lock() {
	prev := l.Enqueue()
	useFlag := prev >= 0
	for {
		if useFlag {
			if l.AwaitWake() {
				useFlag = false
				if l.claim(prev) {
					return
				}
				continue
			}
			if l.repair() {
				return
			}
			continue
		}
		if l.claim(prev) {
			return
		}
		l.p.Env().WaitUntilFor("lease-backoff", shmem.Cells{}, func() bool { return false }, mutLeaseTTL)
		if l.repair() {
			return
		}
	}
}

func (l brokenLeaseClaim) claim(prev int) bool {
	state := l.p.Locks().LeaseState[0]
	st := l.p.Engine().LoadPair(state)
	if st.Lo > 0 {
		return false
	}
	// BUG: should be a compare&swap from st, which a concurrent claim fails.
	l.p.StorePair(state, shmem.Pair{Hi: st.Hi, Lo: int64(l.p.Rank()) + 1})
	l.Stamp(l.p.Now())
	l.Acquired(prev, -1, st.Hi)
	return true
}

func (l brokenLeaseClaim) repair() bool {
	epoch, ok := l.Recover(&l.Queue)
	if ok {
		l.Acquired(-1, -1, epoch)
	}
	return ok
}

// brokenWaitCell is core.QueueLock except that its wake wait declares the
// caller's next pointer, which its predicate never reads, instead of the
// flag, which it does.
type brokenWaitCell struct {
	*core.QueueLock
	p *armci.Proc
}

func (q brokenWaitCell) Lock() {
	prev := q.Enqueue()
	if prev >= 0 {
		env, node := q.p.Env(), q.Node()
		flag := node.Add(proc.QNodeLocked)
		// BUG: should be shmem.Cell(flag).
		next := shmem.Cells{P: node.Add(proc.QNodeNextHi), N: 2}
		env.WaitUntil("queue-wake", next, func() bool { return env.Space().Load(flag) == 0 })
	}
	q.Acquired(prev, -1, 0)
}

// brokenTicket is core.Ticket except that its poll admits one position
// early: counter >= ticket-1 instead of == ticket, so the next waiter
// overlaps the current holder.
type brokenTicket struct {
	*core.Ticket
	p *armci.Proc
}

func (l brokenTicket) Lock() {
	ticket := l.Take()
	counter := shmem.Cell(l.p.Locks().TicketCounter[0].Add(proc.CounterWord))
	l.p.Env().WaitUntil("broken-ticket-gate", counter, func() bool {
		return l.Counter() >= ticket-1 // BUG: off by one
	})
	l.Acquired(-1, ticket, 0)
}

// --- broken synchronization variants ---

// brokenBarrier distributes op_init and synchronizes but never waits for
// the local server's op_done (stage ii skipped), so puts still in flight
// at entry can land after some rank has already exited.
func brokenBarrier(p *armci.Proc, epoch *int) func() {
	return func() {
		*epoch++
		core.Record(p.Env(), trace.OpEvent{Kind: trace.OpSyncEnter, Epoch: *epoch})
		sum := make([]int64, p.NumNodes())
		copy(sum, p.Engine().OpInit())
		p.Comm().AllReduceSumInt64(sum)
		// BUG: stage ii — the wait for op_done[myNode] >= sum[myNode] —
		// is skipped.
		p.Comm().Barrier(collective.BarrierAuto)
		core.Record(p.Env(), trace.OpEvent{Kind: trace.OpSyncExit, Epoch: *epoch})
	}
}

// brokenEmptyLocalBarrier is the combined barrier with its empty-epoch
// exit taken on the rank's own node's summed delta instead of on the
// whole summed vector. Stages i, ii and iii are otherwise the real ones.
func brokenEmptyLocalBarrier(p *armci.Proc, epoch *int) func() {
	env := p.Env()
	myNode := env.Node(env.Rank())
	opDone := p.Engine().Layout().OpDone[myNode]
	last, sum := make([]int64, p.NumNodes()), make([]int64, p.NumNodes())
	var want int64
	return func() {
		*epoch++
		core.Record(env, trace.OpEvent{Kind: trace.OpSyncEnter, Epoch: *epoch})
		opInit := p.Engine().OpInit()
		for i, v := range opInit {
			sum[i] = v - last[i]
		}
		p.Comm().AllReduceSumInt64(sum)
		copy(last, opInit)
		// BUG: the exit must need every element of sum to be zero; a
		// rank whose own node nobody wrote leaves while others fence.
		if sum[myNode] != 0 {
			want += sum[myNode]
			env.WaitUntil("mut-empty-local-op_done", shmem.Cell(opDone), func() bool {
				return env.Space().Load(opDone) >= want
			})
			p.Comm().Barrier(collective.BarrierAuto)
		}
		core.Record(env, trace.OpEvent{Kind: trace.OpSyncExit, Epoch: *epoch})
	}
}

// mutTagBase is a private tag space for the mutated barrier's raw
// point-to-point traffic: no user or workload tag reaches it, and the
// collectives send KindColl, not KindSend, so a report the bug leaves
// unconsumed can never be matched by a later receive.
const mutTagBase = 1 << 29

// brokenKnomialBarrier runs stages i and ii of the combined barrier
// correctly — distribute op_init, wait for the local server's op_done —
// then replaces the stage-iii k-nomial barrier with a variant whose
// gather phase skips the parent's LAST child: the parent releases the
// whole tree without proof that the skipped subtree reached the barrier.
// A rank's own node is always fenced (stage ii is intact), so only a
// spike-delayed put to the skipped subtree's node — still in flight
// while the subtree sits in stage ii — exposes the hole.
func brokenKnomialBarrier(p *armci.Proc, epoch *int) func() {
	return func() {
		*epoch++
		core.Record(p.Env(), trace.OpEvent{Kind: trace.OpSyncEnter, Epoch: *epoch})
		env := p.Env()

		// Stage i, correct: distribute op_init.
		sum := make([]int64, p.NumNodes())
		copy(sum, p.Engine().OpInit())
		p.Comm().AllReduceSumInt64(sum)

		// Stage ii, correct: wait for the local server to catch up.
		myNode := env.Node(env.Rank())
		opDone := p.Engine().Layout().OpDone[myNode]
		want := sum[myNode]
		env.WaitUntil(fmt.Sprintf("mut-knomial-op_done>=%d", want), shmem.Cell(opDone), func() bool {
			return env.Space().Load(opDone) >= want
		})

		// Stage iii, broken: k-nomial gather/release over raw sends, but
		// the parent never awaits the last child's subtree report.
		n, me := p.Size(), p.Rank()
		if n > 1 {
			gather := mutTagBase + *epoch<<1
			release := gather + 1
			parent, children := collective.KnomialTree(n, me, 4)
			for i, child := range children {
				if i == len(children)-1 {
					continue // BUG: last subtree releases unproven
				}
				env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(child), gather))
			}
			if parent >= 0 {
				env.Send(msg.User(parent), &msg.Message{Kind: msg.KindSend, Tag: gather})
				env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(parent), release))
			}
			for _, child := range children {
				env.Send(msg.User(child), &msg.Message{Kind: msg.KindSend, Tag: release})
			}
		}
		core.Record(p.Env(), trace.OpEvent{Kind: trace.OpSyncExit, Epoch: *epoch})
	}
}

// brokenSyncOld is GA_Sync without the AllFence: a bare MPI barrier
// carrying none of the fence guarantee.
func brokenSyncOld(p *armci.Proc, epoch *int) func() {
	return func() {
		*epoch++
		core.Record(p.Env(), trace.OpEvent{Kind: trace.OpSyncEnter, Epoch: *epoch})
		// BUG: AllFence skipped entirely.
		p.Comm().Barrier(collective.BarrierAuto)
		core.Record(p.Env(), trace.OpEvent{Kind: trace.OpSyncExit, Epoch: *epoch})
	}
}
