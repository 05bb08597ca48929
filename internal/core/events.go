package core

import (
	"armci/internal/trace"
	"armci/internal/transport"
)

// Record is the one protocol-event recorder: it stamps ev with the
// calling rank, its node and the fabric time and appends it to the run's
// stream, ordered with its messages, for the oracles of internal/check —
// a loud trace; a quiet one is never asked, and no clock is read for it. The caller sets
// Kind and whichever of Lock, Prev, Ticket and Epoch the kind carries;
// Prev and Ticket are -1 when they do not apply. Where an event sits in
// the recorded order is the caller's contract:
//
//   - OpAcquire after the algorithm's acquire condition holds and before
//     the caller touches protected state, so the event sits inside the
//     critical section (Prev: the rank queued behind, Ticket: the ticket
//     under ticket-ordered algorithms, Epoch: the lease epoch registered
//     under);
//   - OpRelease at the start of the release, before any hand-off store
//     or unlock message, so it precedes the successor's acquire (Epoch:
//     the epoch the releaser will present);
//   - OpRepair only by the winner of the depose CAS, immediately after
//     it (Prev: the victim, Epoch: the epoch installed); OpStaleRelease
//     by a release that lost the epoch check and touched nothing;
//   - OpSyncEnter / OpSyncExit around a global synchronization (Epoch
//     numbers the rank's calls from 1; Node is the rank's own node,
//     whose completion counter the fence oracle audits).
func Record(env transport.Env, ev trace.OpEvent) {
	tr := env.Trace()
	if !tr.Loud() {
		return
	}
	ev.Rank, ev.Node, ev.Time = env.Rank(), env.Node(env.Rank()), env.Clock().Now()
	tr.RecordOp(ev)
}

// Holder is the ownership step every lock algorithm ends its acquire and
// begins its release with. It remembers the ticket and lease epoch of
// the current tenure, so the release records what the acquire was
// granted, and counts the rank's acquisitions of this lock — fault
// injection cannot see them, and the crashheld plan names one.
type Holder struct {
	env      transport.Env
	idx      int
	acquires int
	crashAt  int   // the acquisition a crashheld plan kills this rank in; 0: none
	ticket   int64 // -1 outside ticket-ordered algorithms
	epoch    int64 // 0 outside the lease lock
}

func newHolder(env transport.Env, idx int) Holder {
	h := Holder{env: env, idx: idx, ticket: -1}
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
	h.ticket, h.epoch = ticket, epoch
	Record(h.env, trace.OpEvent{Kind: trace.OpAcquire, Lock: h.idx, Prev: prev, Ticket: ticket, Epoch: int(epoch)})
	if h.acquires++; h.acquires == h.crashAt {
		Record(h.env, trace.OpEvent{Kind: trace.OpCrash, Lock: h.idx, Prev: -1, Ticket: -1})
		h.env.FailStop("crashheld: fail-stop holding lock")
	}
}

// Released records that the calling rank is giving the lock up.
func (h *Holder) Released() {
	Record(h.env, trace.OpEvent{Kind: trace.OpRelease, Lock: h.idx, Prev: -1, Ticket: h.ticket, Epoch: int(h.epoch)})
}

// Epoch returns the lease epoch of the current tenure.
func (h *Holder) Epoch() int64 { return h.epoch }
