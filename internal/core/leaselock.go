package core

import (
	"time"

	"armci/internal/proc"
	"armci/internal/shmem"
)

// LeaseLock is the crash-survivable variant of the software queuing
// lock: MCS queueing for ordering and one-message hand-off, plus an
// epoch-stamped lease that lets waiters repair the lock when its holder
// fail-stops. It composes the two concerns of a lock, each in one file:
//
//   - The Queue (queue.go, over LeaseTail + the LeaseQNode nodes, every
//     wait bounded by the TTL) only orders waiters and carries wake
//     hints. A wake is never a grant; stale, duplicated or lost wakes
//     cost time, not correctness.
//   - The Lease word (lease.go) is the truth: a waiter holds the lock
//     only by registering under the current epoch, and frees it only by
//     advancing the epoch.
//
// In crash-free runs the protocol is exactly MCS plus one registration
// CAS, FIFO and deterministic. Once a crash is on record, a waiter whose
// bounded wait outlives the TTL runs Lease.Recover: it deposes the
// expired holder and wakes the victim's queue successor, or — when the
// queue itself is wedged — self-grants. Mutual exclusion is therefore
// absolute per epoch, and "modulo lease expiry" across epochs: two ranks
// overlap only if one of them was first deposed by a repair event.
type LeaseLock struct {
	Holder
	Queue
	Lease
}

// NewLeaseLock returns rank-local state for lock idx of the table. ttl
// <= 0 selects DefaultLeaseTTL. The TTL must exceed the longest critical
// section plus one queue hand-off, or live holders will be deposed.
func NewLeaseLock(eng *proc.Engine, t *proc.LockTable, idx int, ttl time.Duration) *LeaseLock {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &LeaseLock{Holder: newHolder(eng.Env(), idx),
		Queue: NewQueue(eng, t.LeaseTail[idx], t.LeaseQNode[idx], ttl), Lease: NewLease(eng, t, idx, ttl)}
}

var _ Mutex = (*LeaseLock)(nil)

// Lock acquires the lock, surviving holder crashes.
func (l *LeaseLock) Lock() {
	prev := l.Enqueue()
	// With no predecessor we are the queue head: the lock is free (or
	// about to be) and nobody will write our flag — register directly.
	useFlag := prev >= 0
	for {
		if useFlag {
			if l.AwaitWake() {
				// Hand-off (or repair wake) received: the hint is now
				// consumed, so on failure fall through to state polling.
				useFlag = false
				if l.register(prev) {
					return
				}
				continue
			}
			// TTL elapsed without a wake: recovery check, then keep
			// waiting on the flag — a live holder's hand-off may still
			// arrive.
			if l.repair() {
				return
			}
			continue
		}
		// State-polling mode (queue head, or a consumed wake that found
		// the lock held): try to register, then back off one TTL.
		if l.register(prev) {
			return
		}
		l.env.WaitUntilFor("lease-backoff", shmem.Cells{}, func() bool { return false }, l.ttl)
		if l.repair() {
			return
		}
	}
}

// register completes the acquisition when the registration CAS wins.
func (l *LeaseLock) register(prev int) bool {
	epoch, ok := l.Register()
	if ok {
		l.Acquired(prev, -1, epoch)
	}
	return ok
}

// repair completes the acquisition when recovery self-granted; that is a
// repair boundary, so the predecessor is unknowable.
func (l *LeaseLock) repair() bool {
	epoch, ok := l.Recover(&l.Queue)
	if ok {
		l.Acquired(-1, -1, epoch)
	}
	return ok
}

// Unlock releases the lock. Its record comes first, as every lock's does;
// a tenure a repair deposed loses the epoch CAS, which Release records as
// a stale release of the same epoch. The queue hand-off runs regardless:
// our successors are queued behind this node, and wake hints are always
// safe to pass on, whichever epoch grants them the lock.
func (l *LeaseLock) Unlock() {
	l.Released()
	l.Release(l.Epoch())
	l.HandOff()
}
