package core

import (
	"time"

	"armci/internal/proc"
	"armci/internal/shmem"
	"armci/internal/trace"
)

// DefaultLeaseTTL is the lease duration used when the run does not set
// one: comfortably longer than any critical section in the experiments
// (which run microseconds), short enough that holder-crash recovery is
// quick. Virtual time on the simulated fabric, wall time elsewhere.
const DefaultLeaseTTL = 10 * time.Millisecond

// Lease is the lease word of one lock — the LeaseState pair {Hi: epoch,
// Lo: tenant} at the lock's home — with its LeaseStamp, the fabric time
// of the last state change. Lo = r+1 > 0 means rank r holds the lease;
// Lo = -(r+1) < 0 means the lock is free and rank r was the last holder;
// Lo = 0 means never held.
//
// The word is the sole source of truth about ownership, and every
// transition is one compare&swap: a rank becomes the holder only by
// registering under the current epoch (the linearization point of every
// acquisition), and the lock is freed — by its holder's release, or by a
// depose once the lease expired — only by advancing the epoch. Its one
// invariant: each epoch is granted at most once, and a release or depose
// presenting an epoch that has moved on changes nothing. The stamp is
// advisory: written fire-and-forget by each CAS winner, read by waiters
// deciding whether the lease has expired. A stamp can therefore lag the
// state it dates: the tenant of a registration whose stamp is still on
// its way reads as the previous tenure's age, so a registered tenant is
// judged by the stamp only when it is the rank on record as crashed, and
// otherwise by the caller's own watch of it (seen, seenAt).
type Lease struct {
	eng          *proc.Engine
	idx          int
	state, stamp shmem.Ptr
	ttl          time.Duration
	// seen is the registered state Recover last found, and seenAt the
	// fabric time it first found it.
	seen   shmem.Pair
	seenAt time.Duration
}

// NewLease returns the calling rank's view of lock idx's lease word.
func NewLease(eng *proc.Engine, t *proc.LockTable, idx int, ttl time.Duration) Lease {
	return Lease{eng: eng, idx: idx, state: t.LeaseState[idx], stamp: t.LeaseStamp[idx], ttl: ttl}
}

// Stamp renews the freshness stamp to the fabric time now.
func (w *Lease) Stamp(now time.Duration) { w.eng.Store(w.stamp, int64(now)) }

// claim attempts {epoch, free} -> {epoch, me} from the observed free
// state st, stamping the tenure start on success. It returns the state
// the CAS observed.
func (w *Lease) claim(st shmem.Pair) (obs shmem.Pair, ok bool) {
	obs = w.eng.CompareAndSwapPair(w.state, st, shmem.Pair{Hi: st.Hi, Lo: int64(w.eng.Rank()) + 1})
	if obs == st {
		w.Stamp(w.eng.Env().Clock().Now())
	}
	return obs, obs == st
}

// Register tries to become the tenant under the current epoch, which it
// returns. It gives up as soon as it observes another registered tenant.
func (w *Lease) Register() (epoch int64, ok bool) {
	st := w.eng.LoadPair(w.state)
	for st.Lo <= 0 {
		if st, ok = w.claim(st); ok {
			return st.Hi, true
		}
	}
	return 0, false
}

// Release frees the lease held under epoch by advancing it. A holder
// that was deposed while slow (or dead) presents a stale epoch, loses
// the CAS and touches nothing — resurrected holders cannot free a lock
// somebody else now owns — which is recorded as OpStaleRelease under the
// stale epoch.
func (w *Lease) Release(epoch int64) bool {
	env := w.eng.Env()
	me := int64(w.eng.Rank())
	held := shmem.Pair{Hi: epoch, Lo: me + 1}
	if w.eng.CompareAndSwapPair(w.state, held, shmem.Pair{Hi: epoch + 1, Lo: -(me + 1)}) != held {
		Record(env, trace.OpEvent{Kind: trace.OpStaleRelease, Lock: w.idx, Epoch: int(epoch)})
		return false
	}
	w.Stamp(env.Clock().Now())
	return true
}

// Depose frees the lease from the tenant observed in st by advancing the
// epoch, {epoch, v+1} -> {epoch+1, -(v+1)}, which is what makes it safe
// against resurrection: a delayed release of the victim's presents the
// old epoch and is rejected. The winner records OpRepair, restamps the
// lease to now (the time its caller judged the lease by) and wakes the
// victim's successor in q so FIFO resumes from the crash point. Losing
// the CAS means another repairer, or the holder's own release, got there
// first; the state has moved on and nothing is touched.
func (w *Lease) Depose(st shmem.Pair, now time.Duration, q *Queue) bool {
	if w.eng.CompareAndSwapPair(w.state, st, shmem.Pair{Hi: st.Hi + 1, Lo: -st.Lo}) != st {
		return false
	}
	victim := int(st.Lo) - 1
	Record(w.eng.Env(), trace.OpEvent{Kind: trace.OpRepair, Lock: w.idx, Prev: victim, Epoch: int(st.Hi) + 1})
	w.Stamp(now)
	q.WakeSuccessorOf(victim)
	return true
}

// Recover is the repair protocol a waiter runs after a bounded wait
// timed out. It arms only after a fail-stop is on record
// (Env.CrashedRank) and the stamp is more than one TTL old; a fresh
// stamp means the lease, or the hand-off in flight, is live. An expired
// holder is deposed — the repair wake or the next Register completes the
// acquisition, so ok stays false. The holder is expired if it is the
// crashed rank, or if this caller has found it registered under the same
// epoch for more than a TTL: a live rank that has just registered may not
// have stamped its tenure yet. A lock that is free but stale was
// released (or repaired) at least one TTL ago and nobody registered: the
// wake chain is wedged (a waiter died between enqueue and link, or the
// woken successor died), so the caller self-grants by registering
// directly, and ok reports that it now holds the lease under epoch.
func (w *Lease) Recover(q *Queue) (epoch int64, ok bool) {
	env := w.eng.Env()
	if env.CrashedRank() < 0 {
		return 0, false
	}
	st := w.eng.LoadPair(w.state)
	stamp := time.Duration(w.eng.Load(w.stamp))
	now := env.Clock().Now()
	if now-stamp <= w.ttl {
		return 0, false
	}
	if st.Lo > 0 {
		if st != w.seen {
			w.seen, w.seenAt = st, now
		}
		if int(st.Lo)-1 == env.CrashedRank() || now-w.seenAt > w.ttl {
			w.Depose(st, now, q)
		}
		return 0, false
	}
	_, ok = w.claim(st)
	return st.Hi, ok
}

// RepairLeasesHeldBy deposes every lease in the table still registered
// to a rank known to have fail-stopped and returns how many it freed. It
// is the rejoin-time sweep of the elastic recovery path: waiter-side
// repair frees a dead holder's lease only after a TTL expires, but when
// a membership view change has already proved the holder dead there is
// no reason to wait — survivors sweep the table while converging on the
// resume epoch, so re-executed critical sections start immediately.
// Wakes are hints, so waking a rank that already moved on costs nothing.
func RepairLeasesHeldBy(eng *proc.Engine, t *proc.LockTable, dead int) int {
	now := eng.Env().Clock().Now()
	freed := 0
	for i := range t.Home {
		w := NewLease(eng, t, i, 0)
		// Free, never held, or held by a survivor: nothing to do.
		if st := eng.LoadPair(w.state); int(st.Lo) == dead+1 {
			q := NewQueue(eng, t.LeaseTail[i], t.LeaseQNode[i], 0)
			if w.Depose(st, now, &q) {
				freed++
			}
		}
	}
	return freed
}
