package core

import "armci/internal/proc"

// QueueLock is the paper's software queuing lock (§3.2.2): the Queue of
// Figure 5 over the lock table's MCS / QNode variables plus the simplest
// ownership rule — a rank that found the queue empty, or was woken, owns
// the lock. Waits are therefore unbounded and a wake is never lost.
type QueueLock struct {
	Holder
	Queue
}

// NewQueueLock returns rank-local state for lock idx of the table.
func NewQueueLock(eng *proc.Engine, t *proc.LockTable, idx int) *QueueLock {
	return &QueueLock{newHolder(eng.Env(), idx), NewQueue(eng, t.MCS[idx], t.QNode[idx], 0)}
}

var _ Mutex = (*QueueLock)(nil)

// Lock acquires the lock (Figure 5, request).
func (q *QueueLock) Lock() {
	prev := q.Enqueue()
	if prev >= 0 {
		q.AwaitWake() // while (mynode->locked) {} — spin on our own memory
	}
	q.Acquired(prev, -1, 0)
}

// Unlock releases the lock (Figure 5, release).
func (q *QueueLock) Unlock() {
	q.Released()
	q.HandOff()
}

// QueueLockNoCAS is the paper's stated future work ("we are working on
// optimizing the lock operation to eliminate the need for the
// compare&swap operation when releasing a lock"): the same lock with the
// swap-only detach. An uncontended release performs a single atomic swap
// instead of a compare&swap; if the swap detaches a chain of concurrent
// requesters, a second swap re-installs it and any usurper chain is
// spliced behind it. FIFO order can be violated in that window, but
// mutual exclusion holds.
type QueueLockNoCAS struct{ QueueLock }

// NewQueueLockNoCAS returns rank-local state for lock idx of the table.
func NewQueueLockNoCAS(eng *proc.Engine, t *proc.LockTable, idx int) *QueueLockNoCAS {
	return &QueueLockNoCAS{*NewQueueLock(eng, t, idx)}
}

var _ Mutex = (*QueueLockNoCAS)(nil)

// Unlock releases with swap instead of compare&swap.
func (q *QueueLockNoCAS) Unlock() {
	q.Released()
	next := q.Successor()
	if next.IsNil() {
		usurper, empty := q.DetachSwap()
		if empty {
			return
		}
		next = q.AwaitLink()
		if !usurper.IsNil() {
			// The usurper chain's tail inherits our successors.
			q.link(usurper, next)
			return
		}
	}
	q.Wake(next)
}
