package core_test

import (
	"fmt"
	"testing"
	"time"

	"armci/internal/core"
	"armci/internal/model"
	"armci/internal/proc"
	"armci/internal/shmem"
)

// The Queue module alone — no ownership rule, no lease, no recorder.
// Its one invariant: every enqueued rank is woken exactly once, in swap
// order, as long as every rank that was woken (or found the queue empty)
// hands off.

// TestQueueWakesEachOnceInSwapOrder: six ranks cycle through the queue
// under a sweep of schedule seeds. Enqueue's return value is the swap
// order's own witness (who each rank queued behind), so the recorded
// wake sequence must chain through it; a lost wake deadlocks the run, a
// duplicated one lets a later round skip its turn and breaks the chain,
// and two ranks between wake and hand-off at once is a wake out of order.
func TestQueueWakesEachOnceInSwapOrder(t *testing.T) {
	const procs, rounds = 6, 3
	for seed := int64(0); seed < 16; seed++ {
		w := newSeededWorld(t, procs, 2, model.Myrinet2000(), []int{3}, seed)
		type wake struct{ rank, prev int }
		var woke []wake
		between := 0 // ranks between their wake and their hand-off
		w.run(func(c *ctx) {
			q := core.NewQueue(c.g, w.locks.MCS[0], w.locks.QNode[0], 0)
			for i := 0; i < rounds; i++ {
				prev := q.Enqueue()
				if prev >= 0 {
					q.AwaitWake()
				}
				if between++; between != 1 {
					panic(fmt.Sprintf("seed %d: rank %d woken while another rank is before its hand-off", seed, c.g.Rank()))
				}
				woke = append(woke, wake{c.g.Rank(), prev})
				c.g.Env().Clock().Sleep(5 * time.Microsecond)
				between--
				q.HandOff()
			}
		})
		if len(woke) != procs*rounds {
			t.Fatalf("seed %d: %d wakes, want %d", seed, len(woke), procs*rounds)
		}
		for i, k := range woke {
			if k.prev >= 0 && (i == 0 || woke[i-1].rank != k.prev) {
				t.Fatalf("seed %d: wake %d went to rank %d, which queued behind rank %d, out of swap order: %v",
					seed, i, k.rank, k.prev, woke[:i+1])
			}
		}
		if got := w.fabric.Space().LoadPair(w.locks.MCS[0]).UnpackPtr(); !got.IsNil() {
			t.Fatalf("seed %d: queue not empty at the end: %v", seed, got)
		}
	}
}

// TestQueueHandOffMessages: with the successor already linked, a
// hand-off is exactly the wake store — zero messages to a co-located
// successor, one to a remote one (§3.2.2's claim against the hybrid's
// two).
func TestQueueHandOffMessages(t *testing.T) {
	for ppn, want := range map[int]int{2: 0, 1: 1} {
		w := newWorld(t, 2, ppn, model.Myrinet2000(), []int{0})
		sent := -1
		w.run(func(c *ctx) {
			q := core.NewQueue(c.g, w.locks.MCS[0], w.locks.QNode[0], 0)
			env := c.g.Env()
			if c.g.Rank() == 1 {
				env.Clock().Sleep(50 * time.Microsecond) // let rank 0 in first
				if prev := q.Enqueue(); prev != 0 {
					panic(fmt.Sprintf("rank 1 queued behind %d, want 0", prev))
				}
				q.AwaitWake()
				q.HandOff()
				return
			}
			q.Enqueue()
			env.WaitUntil("linked", shmem.Cells{P: q.Node().Add(proc.QNodeNextHi), N: 2}, func() bool { return !q.Successor().IsNil() })
			before := w.stats.Sends()
			q.HandOff()
			sent = w.stats.Sends() - before
		})
		if sent != want {
			t.Errorf("ppn %d: hand-off sent %d messages, want %d", ppn, sent, want)
		}
	}
}
