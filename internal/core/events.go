package core

import (
	"armci/internal/trace"
	"armci/internal/transport"
)

// Record is the one protocol-event recorder: it stamps ev with the
// calling rank and the fabric time and appends it to the run's spine,
// ordered with its messages, for the oracles of internal/check — a loud
// trace; a quiet one is never asked, and no clock is read for it. The
// caller sets Kind and the fields that kind carries (see trace.OpKind).
// Where an event sits in the recorded order is the caller's contract:
//
//   - OpAcquire after the algorithm's acquire condition holds and before
//     the caller touches protected state, so the event sits inside the
//     critical section (Prev: the rank queued behind, Ticket: the ticket
//     under ticket-ordered algorithms, Epoch: the lease epoch registered
//     under);
//   - OpRelease at the start of the release, before any hand-off store
//     or unlock message, so it precedes the successor's acquire (Epoch:
//     the lease epoch of the tenure);
//   - OpRepair only by the winner of the depose CAS, immediately after
//     it (Prev: the victim, Epoch: the epoch installed); OpStaleRelease
//     by a release that lost the epoch check and touched nothing (Epoch:
//     the stale one);
//   - OpSyncEnter / OpSyncExit around a global synchronization (Epoch
//     numbers the rank's calls from 1).
func Record(env transport.Env, ev trace.OpEvent) {
	tr := env.Trace()
	if !tr.Loud() {
		return
	}
	ev.Rank, ev.Time = env.Rank(), env.Clock().Now()
	tr.RecordOp(ev)
}

// Holder is the ownership step every lock algorithm ends its acquire and
// begins its release with. It remembers the lease epoch of the current
// tenure, which the lease lock's release presents, and counts the rank's
// acquisitions of this lock — fault injection cannot see them, and the
// crashheld plan names one.
type Holder struct {
	env      transport.Env
	idx      int
	acquires int
	crashAt  int   // the acquisition a crashheld plan kills this rank in; 0: none
	epoch    int64 // 0 outside the lease lock
}

func newHolder(env transport.Env, idx int) Holder {
	h := Holder{env: env, idx: idx}
	if f := env.Faults(); env.Rank() == f.CrashHeldRank {
		h.crashAt = f.CrashHeldAcquire
	}
	return h
}

// Acquired records that the calling rank now holds the lock. When the
// fault plan designates this rank and this acquisition (crashheld), the
// rank then records an OpCrash witness and fail-stops — dying while
// holding the lock, under every algorithm alike.
func (h *Holder) Acquired(prev int, ticket, epoch int64) {
	h.epoch = epoch
	Record(h.env, trace.OpEvent{Kind: trace.OpAcquire, Lock: h.idx, Prev: prev, Ticket: ticket, Epoch: int(epoch)})
	if h.acquires++; h.acquires == h.crashAt {
		Record(h.env, trace.OpEvent{Kind: trace.OpCrash})
		h.env.FailStop("crashheld: fail-stop holding lock")
	}
}

// Released records that the calling rank is giving the lock up, under
// the lease epoch of its tenure.
func (h *Holder) Released() {
	Record(h.env, trace.OpEvent{Kind: trace.OpRelease, Lock: h.idx, Epoch: int(h.epoch)})
}

// Epoch returns the lease epoch of the current tenure.
func (h *Holder) Epoch() int64 { return h.epoch }
