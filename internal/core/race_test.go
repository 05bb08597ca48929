package core_test

import (
	"testing"
	"time"

	"armci/internal/core"
	"armci/internal/model"
	"armci/internal/proc"
	"armci/internal/shmem"
)

// These tests drive the queuing-lock protocol steps by hand to land
// deterministically inside the narrow race windows of Figure 5:
//
//   - the releaser's compare&swap fails because a requester has swapped
//     itself in but NOT yet linked (release lines 18-20: wait for next);
//   - the swap-only variant's usurper window, where the detached chain
//     must be re-installed and spliced.
//
// The simulated fabric makes the interleavings exact and reproducible.

// TestMCSReleaseWaitsForLateLink: rank 1 executes only the first half of
// the request protocol (the swap); rank 0 then releases and must spin in
// the "compare&swap failed, next still nil" window until rank 1 finally
// links itself — and then hand over correctly.
func TestMCSReleaseWaitsForLateLink(t *testing.T) {
	w := newWorld(t, 2, 1, model.Myrinet2000(), []int{0})
	lockPtr := w.locks.MCS[0]
	phase := w.fabric.Space().AllocWords(0, 1) // test choreography
	var handoffAt, releaseStartAt time.Duration

	w.run(func(c *ctx) {
		env := c.g.Env()
		space := env.Space()
		me := c.g.Rank()
		mine := w.locks.QNode[0][me]
		minePacked := shmem.PackPtr(mine)

		if me == 0 {
			mu := core.NewQueueLock(c.g, w.locks, 0)
			mu.Lock() // uncontended: Lock -> qnode0
			space.Store(phase, 1)
			// Wait until rank 1 has swapped itself in (lock tail = qnode1)
			// but before it links (it is deliberately stalling).
			env.WaitUntil("swapped", shmem.Cell(phase), func() bool { return space.Load(phase) == 2 })
			releaseStartAt = env.Clock().Now()
			mu.Unlock() // CAS fails; must wait for qnode0.next, then hand off
			handoffAt = env.Clock().Now()
			return
		}

		// Rank 1, by hand: half-enqueue.
		env.WaitUntil("lock-held", shmem.Cell(phase), func() bool { return space.Load(phase) == 1 })
		space.StorePair(mine.Add(proc.QNodeNextHi), shmem.Pair{})
		prev := c.g.SwapPair(lockPtr, minePacked).UnpackPtr()
		if prev.IsNil() {
			panic("rank 1 found the lock free while rank 0 holds it")
		}
		space.Store(mine.Add(proc.QNodeLocked), 1)
		space.Store(phase, 2)
		// Stall well past rank 0's release attempt, then link late.
		env.Clock().Sleep(2 * time.Millisecond)
		c.g.StorePair(prev.Add(proc.QNodeNextHi), minePacked)
		// Complete the acquire and release normally.
		locked := mine.Add(proc.QNodeLocked)
		env.WaitUntil("granted", shmem.Cell(locked), func() bool { return space.Load(locked) == 0 })
		mu := core.NewQueueLock(c.g, w.locks, 0)
		mu.Unlock() // release the lock acquired via the manual path
	})

	if handoffAt-releaseStartAt < 2*time.Millisecond {
		t.Fatalf("release returned after %v — it did not wait for the late link",
			handoffAt-releaseStartAt)
	}
	// The lock must end free.
	if got := w.fabric.Space().LoadPair(lockPtr).UnpackPtr(); !got.IsNil() {
		t.Fatalf("lock not free at the end: %v", got)
	}
}

// TestNoCASUsurperSplice drives the swap-only release into its usurper
// window: releaser swaps the lock to nil while a half-enqueued waiter is
// detached, a fresh requester (the usurper) acquires in between, and the
// detached chain must be spliced behind the usurper so everyone
// eventually gets the lock.
func TestNoCASUsurperSplice(t *testing.T) {
	w := newWorld(t, 3, 1, model.Myrinet2000(), []int{0})
	lockPtr := w.locks.MCS[0]
	phase := w.fabric.Space().AllocWords(0, 1)
	var acquired [3]time.Duration

	w.run(func(c *ctx) {
		env := c.g.Env()
		space := env.Space()
		me := c.g.Rank()
		mine := w.locks.QNode[0][me]
		minePacked := shmem.PackPtr(mine)

		switch me {
		case 0:
			// Holder. The release is replayed by hand so the usurper
			// window — between the two swaps of the swap-only release —
			// can be held open deliberately.
			mu := core.NewQueueLockNoCAS(c.g, w.locks, 0)
			mu.Lock()
			acquired[0] = env.Clock().Now()
			space.Store(phase, 1)
			// Wait for rank 1's half-enqueue (swap done, link withheld).
			env.WaitUntil("detached-waiter", shmem.Cell(phase), func() bool { return space.Load(phase) == 2 })
			// Release, swap-only, step 1: detach. oldTail is rank 1's
			// node; the lock now reads free.
			oldTail := c.g.SwapPair(lockPtr, shmem.Pair{}).UnpackPtr()
			if oldTail == mine {
				panic("no detached waiter — choreography broke")
			}
			// Hold the window open: let rank 2 acquire the "free" lock.
			space.Store(phase, 3)
			env.WaitUntil("usurper-in", shmem.Cell(phase), func() bool { return space.Load(phase) == 4 })
			// Step 2: re-install the detached tail; the usurper's node
			// comes back.
			usurper := c.g.SwapPair(lockPtr, shmem.PackPtr(oldTail)).UnpackPtr()
			if usurper.IsNil() {
				panic("usurper vanished — choreography broke")
			}
			// Step 3: wait for our late successor's link, then splice the
			// detached chain behind the usurper.
			nextField := mine.Add(proc.QNodeNextHi)
			env.WaitUntil("late-link", shmem.Cells{P: nextField, N: 2}, func() bool {
				return !space.LoadPair(nextField).UnpackPtr().IsNil()
			})
			next := space.LoadPair(nextField).UnpackPtr()
			c.g.StorePair(usurper.Add(proc.QNodeNextHi), shmem.PackPtr(next))

		case 1: // half-enqueues, links late
			env.WaitUntil("held", shmem.Cell(phase), func() bool { return space.Load(phase) == 1 })
			space.StorePair(mine.Add(proc.QNodeNextHi), shmem.Pair{})
			prev := c.g.SwapPair(lockPtr, minePacked).UnpackPtr()
			space.Store(mine.Add(proc.QNodeLocked), 1)
			space.Store(phase, 2)
			env.Clock().Sleep(3 * time.Millisecond) // let release + usurper happen
			c.g.StorePair(prev.Add(proc.QNodeNextHi), minePacked)
			locked := mine.Add(proc.QNodeLocked)
			env.WaitUntil("granted-1", shmem.Cell(locked), func() bool { return space.Load(locked) == 0 })
			acquired[1] = env.Clock().Now()
			mu := core.NewQueueLockNoCAS(c.g, w.locks, 0)
			mu.Unlock()

		case 2: // the usurper: requests normally inside the window
			env.WaitUntil("window", shmem.Cell(phase), func() bool { return space.Load(phase) == 3 })
			mu := core.NewQueueLockNoCAS(c.g, w.locks, 0)
			mu.Lock() // the lock reads free: instant acquisition
			acquired[2] = env.Clock().Now()
			space.Store(phase, 4)
			env.Clock().Sleep(500 * time.Microsecond)
			mu.Unlock() // hand-off follows the spliced chain to rank 1
		}
	})

	// Everyone acquired exactly once; the detached waiter (rank 1) was
	// spliced behind the usurper (rank 2) — FIFO violated, exclusion not.
	if acquired[1] == 0 || acquired[2] == 0 {
		t.Fatal("some rank never acquired")
	}
	if acquired[2] >= acquired[1] {
		t.Fatalf("expected the usurper to overtake the detached waiter: usurper %v, waiter %v",
			acquired[2], acquired[1])
	}
	if got := w.fabric.Space().LoadPair(lockPtr).UnpackPtr(); !got.IsNil() {
		t.Fatalf("lock not free at the end: %v", got)
	}
}
