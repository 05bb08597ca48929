package core_test

import (
	"fmt"
	"testing"
	"time"

	"armci/internal/core"
	"armci/internal/model"
	"armci/internal/proc"
	"armci/internal/shmem"
	"armci/internal/trace"
)

// TestRepairLeasesHeldBy stages a lock table as a crash leaves it — one
// lease registered to the dead rank with a queued successor, one lease
// free — and has two survivors sweep it concurrently. Exactly one free
// per held lease must happen (the epoch CAS arbitrates), the state must
// advance by the lease lock's own encoding, the stamp must be renewed
// and the dead rank's successor woken; the free lease must be untouched.
func TestRepairLeasesHeldBy(t *testing.T) {
	const dead = 2
	w := newWorld(t, 3, 1, model.Myrinet2000(), []int{0, 0})
	sp := w.fabric.Space()
	locks := w.locks

	// Lock 0: held by the dead rank under epoch 5, with rank 0 queued
	// behind it (next pointer linked, wake flag armed).
	sp.StorePair(locks.LeaseState[0], shmem.Pair{Hi: 5, Lo: dead + 1})
	sp.StorePair(locks.LeaseQNode[0][dead].Add(proc.QNodeNextHi), shmem.PackPtr(locks.LeaseQNode[0][0]))
	sp.Store(locks.LeaseQNode[0][0].Add(proc.QNodeLocked), 1)
	sp.Store(locks.LeaseStamp[0], -1) // sentinel: the winner must restamp
	// Lock 1: free, the dead rank merely the last holder — nothing to do.
	sp.StorePair(locks.LeaseState[1], shmem.Pair{Hi: 2, Lo: -(dead + 1)})

	freed := make([]int, 3)
	w.run(func(c *ctx) {
		if c.g.Rank() == dead {
			return
		}
		freed[c.g.Rank()] = core.RepairLeasesHeldBy(c.g, locks, dead)
	})

	if total := freed[0] + freed[1]; total != 1 {
		t.Errorf("survivors freed %d leases (%v), want exactly 1", total, freed[:2])
	}
	if got, want := sp.LoadPair(locks.LeaseState[0]), (shmem.Pair{Hi: 6, Lo: -(dead + 1)}); got != want {
		t.Errorf("lock 0 state = %+v, want %+v (epoch advanced, freed, dead rank anchored)", got, want)
	}
	if got := sp.Load(locks.LeaseStamp[0]); got < 0 {
		t.Errorf("lock 0 stamp = %d, want renewed to the repair's fabric time", got)
	}
	if got := sp.Load(locks.LeaseQNode[0][0].Add(proc.QNodeLocked)); got != 0 {
		t.Errorf("dead rank's queued successor not woken: wake flag = %d, want 0", got)
	}
	if got, want := sp.LoadPair(locks.LeaseState[1]), (shmem.Pair{Hi: 2, Lo: -(dead + 1)}); got != want {
		t.Errorf("free lock 1 state = %+v, want untouched %+v", got, want)
	}
}

// The Lease word alone — no queue traffic, no lock. Its one invariant:
// each epoch is granted at most once, and a release or depose presenting
// an epoch that has moved on changes nothing.

// countOps counts the recorded op events of one kind.
func countOps(w *world, kind trace.OpKind) int {
	n := 0
	for e := range w.stats.Records() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestLeaseStaleReleaseChangesNothing: rank 1 holds the lease under
// epoch 6. A release presenting epoch 5 — a holder deposed while slow —
// must leave the word and the stamp untouched and record exactly one
// OpStaleRelease, which carries the stale epoch; the release under the
// live epoch then frees it.
func TestLeaseStaleReleaseChangesNothing(t *testing.T) {
	w := newWorld(t, 2, 1, model.Myrinet2000(), []int{0})
	w.stats.SetTimeline(true)
	sp, locks := w.fabric.Space(), w.locks
	held := shmem.Pair{Hi: 6, Lo: 1 + 1}
	sp.StorePair(locks.LeaseState[0], held)
	sp.Store(locks.LeaseStamp[0], -1)
	w.run(func(c *ctx) {
		if c.g.Rank() != 1 {
			return
		}
		l := core.NewLease(c.g, locks, 0, time.Millisecond)
		if l.Release(5) {
			panic("release under stale epoch 5 reported success")
		}
		if got := c.g.LoadPair(locks.LeaseState[0]); got != held {
			panic(fmt.Sprintf("stale release changed the word to %+v", got))
		}
		if got := c.g.Load(locks.LeaseStamp[0]); got != -1 {
			panic(fmt.Sprintf("stale release restamped the lease to %d", got))
		}
		if !l.Release(6) {
			panic("release under the live epoch 6 was rejected")
		}
		c.g.AllFence() // the stamp is a fire-and-forget store
	})
	if got, want := sp.LoadPair(locks.LeaseState[0]), (shmem.Pair{Hi: 7, Lo: -(1 + 1)}); got != want {
		t.Errorf("state after the live release = %+v, want %+v", got, want)
	}
	if got := sp.Load(locks.LeaseStamp[0]); got < 0 {
		t.Errorf("live release left the stamp at %d, want renewed", got)
	}
	if got := countOps(w, trace.OpStaleRelease); got != 1 {
		t.Errorf("recorded %d stale releases, want exactly 1", got)
	}
	for e := range w.stats.Records() {
		if e.Kind == trace.OpStaleRelease && (e.Epoch != 5 || e.Rank != 1 || e.Lock != 0) {
			t.Errorf("stale release recorded as rank %d, lock %d, epoch %d; want rank 1, lock 0, epoch 5", e.Rank, e.Lock, e.Epoch)
		}
	}
}

// TestLeaseRacingDeposersOneWins: five waiters observe the same expired
// tenant and all depose it, under a sweep of schedule seeds. The epoch
// CAS must arbitrate: one winner, one epoch step, one OpRepair.
func TestLeaseRacingDeposersOneWins(t *testing.T) {
	const procs, dead = 6, 4
	for seed := int64(0); seed < 8; seed++ {
		w := newSeededWorld(t, procs, 2, model.Myrinet2000(), []int{1}, seed)
		w.stats.SetTimeline(true)
		sp, locks := w.fabric.Space(), w.locks
		expired := shmem.Pair{Hi: 9, Lo: dead + 1} // what every waiter observed
		sp.StorePair(locks.LeaseState[0], expired)
		won := make([]bool, procs)
		w.run(func(c *ctx) {
			if c.g.Rank() == dead {
				return
			}
			l := core.NewLease(c.g, locks, 0, time.Millisecond)
			q := core.NewQueue(c.g, locks.LeaseTail[0], locks.LeaseQNode[0], time.Millisecond)
			won[c.g.Rank()] = l.Depose(expired, c.g.Env().Clock().Now(), &q)
		})
		winners := 0
		for _, ok := range won {
			if ok {
				winners++
			}
		}
		if winners != 1 {
			t.Errorf("seed %d: %d deposers won (%v), want exactly 1", seed, winners, won)
		}
		if got, want := sp.LoadPair(locks.LeaseState[0]), (shmem.Pair{Hi: 10, Lo: -(dead + 1)}); got != want {
			t.Errorf("seed %d: state = %+v, want %+v (one epoch step)", seed, got, want)
		}
		if got := countOps(w, trace.OpRepair); got != 1 {
			t.Errorf("seed %d: recorded %d repairs, want exactly 1", seed, got)
		}
	}
}

// TestLeaseRecoverDatesALiveTenureItself: once a crash is on record, a
// stale stamp deposes a registered tenant at first sight only if the
// tenant is the crashed rank. A live tenant's stamp may still be on its
// way — the previous tenure's stamp then reads as its age — so the
// repairer deposes it only after finding it registered under the same
// epoch for more than a TTL itself.
func TestLeaseRecoverDatesALiveTenureItself(t *testing.T) {
	const ttl, dead, live = time.Millisecond, 2, 1
	w := newWorld(t, 3, 1, model.Myrinet2000(), []int{0, 0})
	sp, locks := w.fabric.Space(), w.locks
	tenant := shmem.Pair{Hi: 4, Lo: live + 1}
	sp.StorePair(locks.LeaseState[0], tenant)
	sp.StorePair(locks.LeaseState[1], shmem.Pair{Hi: 4, Lo: dead + 1})
	var first, second, crashed shmem.Pair
	w.run(func(c *ctx) {
		env := c.g.Env()
		switch c.g.Rank() {
		case dead:
			env.FailStop("test")
		case 0:
			env.Clock().Sleep(2 * ttl) // both stamps (0) are more than a TTL old
			l := core.NewLease(c.g, locks, 0, ttl)
			q := core.NewQueue(c.g, locks.LeaseTail[0], locks.LeaseQNode[0], ttl)
			l.Recover(&q)
			first = sp.LoadPair(locks.LeaseState[0])
			env.Clock().Sleep(2 * ttl)
			l.Recover(&q)
			second = sp.LoadPair(locks.LeaseState[0])
			l1 := core.NewLease(c.g, locks, 1, ttl)
			q1 := core.NewQueue(c.g, locks.LeaseTail[1], locks.LeaseQNode[1], ttl)
			l1.Recover(&q1)
			crashed = sp.LoadPair(locks.LeaseState[1])
		}
	})
	if first != tenant {
		t.Errorf("a live tenant was deposed at first sight: state %+v, want %+v", first, tenant)
	}
	if want := (shmem.Pair{Hi: 5, Lo: -(live + 1)}); second != want {
		t.Errorf("a live tenant registered for two TTLs: state %+v, want deposed %+v", second, want)
	}
	if want := (shmem.Pair{Hi: 5, Lo: -(dead + 1)}); crashed != want {
		t.Errorf("the crashed tenant: state %+v, want deposed at first sight %+v", crashed, want)
	}
}
