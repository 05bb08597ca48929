package core

import (
	"time"

	"armci/internal/proc"
	"armci/internal/shmem"
)

// Queue is the distributed list of the paper's Figure 5 (an MCS queue
// built from ARMCI atomic memory operations on pairs of longs): a tail
// pointer — the Lock variable, a global pointer of two words at the
// lock's home — and per process one node of a next pointer (two words)
// and a wake flag. Requesters swap themselves onto the tail and link
// behind their predecessor; each waiter spins on the flag in its *own*
// memory; the releaser clears its successor's flag directly — one
// message when the successor is remote, zero when it is local — instead
// of the hybrid lock's two-message server relay.
//
// The statements touching another process's memory (Figure 5 lines 9,
// 12, 18 and 22) map to SwapPair, StorePair, CompareAndSwapPair and
// Store on the engine, which execute directly when the target is local
// and as (one-way, where possible) server operations when remote.
//
// The queue orders waiters and delivers wakes; what a wake *means* is
// the composing lock's ownership rule. Its one invariant: every enqueued
// rank is woken exactly once, in swap order, provided every rank that
// was woken (or found the queue empty) later calls HandOff.
type Queue struct {
	eng  *proc.Engine
	tail shmem.Ptr   // the Lock global pointer, at the lock's home
	node []shmem.Ptr // node[r]: rank r's queue node, in r's memory
	// bound > 0 bounds each wait: wakes are then hints (the lease lock),
	// and a link wait is abandoned once a crash is on record. Zero waits
	// forever: a woken waiter is the owner, so nothing may be given up.
	bound time.Duration
	// woken is AwaitWake's predicate, bound once: the caller's flag is
	// clear. flag and next are the cells of the caller's node its waits
	// read: the flag, and the next pointer's two words.
	woken      func() bool
	flag, next shmem.Cells
}

// NewQueue returns the calling rank's view of the queue over tail and
// the per-rank nodes.
func NewQueue(eng *proc.Engine, tail shmem.Ptr, node []shmem.Ptr, bound time.Duration) Queue {
	mine := node[eng.Rank()]
	space, locked := eng.Env().Space(), mine.Add(proc.QNodeLocked)
	woken := func() bool { return space.Load(locked) == 0 }
	return Queue{eng: eng, tail: tail, node: node, bound: bound, woken: woken,
		flag: shmem.Cell(locked), next: shmem.Cells{P: mine.Add(proc.QNodeNextHi), N: 2}}
}

// Node returns the caller's queue node.
func (q *Queue) Node() shmem.Ptr { return q.node[q.eng.Rank()] }

// Enqueue appends the caller's node (Figure 5, request) and returns the
// rank it queued behind — queue nodes live in their owner's memory, so
// the predecessor node's Rank is the FIFO oracle's witness — or -1 when
// the queue was empty, in which case nobody will write the caller's flag.
//
// The flag is armed before the swap rather than after it as in Figure 5.
// Both orders arm before the link store that makes the node reachable,
// which is all the MCS locks need; the lease lock's wakes are hints that
// can arrive late from an earlier round, and arming first is the order
// its recorded crash-recovery histories were produced under.
func (q *Queue) Enqueue() (prev int) {
	space := q.eng.Env().Space()
	mine := q.Node()
	// Our own memory, always direct stores.
	space.StorePair(mine.Add(proc.QNodeNextHi), shmem.Pair{})
	space.Store(mine.Add(proc.QNodeLocked), 1)
	// prev_node = swap(Lock, mynode) — atomic on the lock's home.
	p := q.eng.SwapPair(q.tail, shmem.PackPtr(mine)).UnpackPtr()
	if p.IsNil() {
		return -1
	}
	q.link(p, mine)
	return int(p.Rank)
}

// link stores behind->next = node: direct if behind is co-located, one
// fire-and-forget message otherwise.
func (q *Queue) link(behind, node shmem.Ptr) {
	q.eng.StorePair(behind.Add(proc.QNodeNextHi), shmem.PackPtr(node))
}

// AwaitWake spins on the caller's own flag until it is cleared, or for
// at most the queue's bound; it reports whether the wake arrived.
func (q *Queue) AwaitWake() bool {
	env := q.eng.Env()
	if q.bound <= 0 {
		env.WaitUntil("queue-wake", q.flag, q.woken)
		return true
	}
	return env.WaitUntilFor("queue-wake", q.flag, q.woken, q.bound)
}

// Successor returns the node linked behind the caller's, nil when none
// is visible yet.
func (q *Queue) Successor() shmem.Ptr {
	return q.eng.Env().Space().LoadPair(q.Node().Add(proc.QNodeNextHi)).UnpackPtr()
}

// Detach is compare&swap(Lock, mynode, NULL): it reports whether the
// tail still pointed at the caller, so nobody is requesting and the
// queue is now empty. Remote locks pay a full round trip here — the one
// case where the queuing lock is slower than the hybrid (Figure 10).
func (q *Queue) Detach() bool {
	mine := shmem.PackPtr(q.Node())
	return q.eng.CompareAndSwapPair(q.tail, mine, shmem.Pair{}) == mine
}

// DetachSwap is the swap-only detach from Mellor-Crummey & Scott's
// report. swap(Lock, NULL): if the caller was still the tail the queue
// is empty — same message count as the hybrid release. Otherwise
// requesters sneaked in: the chain me→…→oldTail is detached and the lock
// reads free, so a second swap re-installs the detached tail; anyone who
// swapped in between heads a usurper chain, whose tail is returned (nil
// when there was none) for the caller to splice its successors behind.
func (q *Queue) DetachSwap() (usurper shmem.Ptr, empty bool) {
	oldTail := q.eng.SwapPair(q.tail, shmem.Pair{}).UnpackPtr()
	if oldTail == q.Node() {
		return shmem.Ptr{}, true
	}
	return q.eng.SwapPair(q.tail, shmem.PackPtr(oldTail)).UnpackPtr(), false
}

// AwaitLink waits for a requester that swapped itself in but has not
// linked yet and returns its node. Crash-free this resolves in bounded
// steps, so an unbounded queue waits as MCS does; a bounded one gives up
// — returning nil — after a wait of one bound once a crash is on record,
// because the linker may be dead, and leaves the orphaned queue to the
// lease machinery.
func (q *Queue) AwaitLink() shmem.Ptr {
	env := q.eng.Env()
	linked := func() bool { return !q.Successor().IsNil() }
	if q.bound <= 0 {
		env.WaitUntil("queue-link", q.next, linked)
		return q.Successor()
	}
	for !env.WaitUntilFor("queue-link", q.next, linked, q.bound) {
		if env.CrashedRank() >= 0 {
			return shmem.Ptr{}
		}
	}
	return q.Successor()
}

// Wake is mynode->next->locked = FALSE: zero messages if next is local,
// one if remote.
func (q *Queue) Wake(next shmem.Ptr) {
	q.eng.Store(next.Add(proc.QNodeLocked), 0)
}

// WakeSuccessorOf wakes whoever is linked behind rank's node — a dead or
// deposed rank's, read remotely — so FIFO resumes from that point; with
// no visible successor it does nothing.
func (q *Queue) WakeSuccessorOf(rank int) {
	next := q.eng.LoadPair(q.node[rank].Add(proc.QNodeNextHi)).UnpackPtr()
	if !next.IsNil() {
		q.Wake(next)
	}
}

// HandOff removes the caller's node from the queue and wakes its
// successor, if it has one (Figure 5, release).
func (q *Queue) HandOff() {
	next := q.Successor()
	if next.IsNil() {
		if q.Detach() {
			return
		}
		if next = q.AwaitLink(); next.IsNil() {
			return
		}
	}
	q.Wake(next)
}
