package proc_test

import (
	"runtime"
	"testing"

	"armci/internal/proc"
	"armci/internal/shmem"
)

// mallocsPer is the process's heap allocations per call of f over calls
// calls, as a fraction: testing.AllocsPerRun rounds down to a whole
// number, and an amortized count is below one.
func mallocsPer(calls int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// TestStoreHandleAllocations: a store handle is carved from an
// engine-owned chunk, so NbAcc and NbPut cost at most one allocation per
// 16 calls beyond their transfer, and WaitAll's per-node bookkeeping is
// an engine-owned slice, so completing handles whose stores are already
// confirmed allocates nothing. The transfers are chosen to allocate
// nothing themselves: accumulates into the caller's own node, and 8 B
// puts that stay in the coalescer's buffer. FenceAck mode lets WaitAll's
// fence find nothing outstanding once AllFence has drained the acks.
func TestStoreHandleAllocations(t *testing.T) {
	const calls = 64
	c := newCluster(t, 2, 1, proc.FenceAck, 0)
	mine := c.space().AllocBytes(0, 8)
	remote := c.space().AllocBytes(1, 8*calls)
	word := make([]byte, 8)
	var acc, put, wait float64
	c.run(func(g *proc.Engine) {
		if g.Rank() != 0 {
			return
		}
		g.SetCoalescing(true)
		hs := make([]*proc.Handle, calls)
		accs := func(i int) { hs[i] = g.NbAcc(shmem.AccInt64, mine, word, 1) }
		puts := func(i int) { hs[i] = g.NbPut(remote.Add(int64(8*i)), word) }
		// Warm up with one round of each: the simulator's event pool, the
		// coalescer's buffer for node 1 and the ack path.
		mallocsPer(calls, accs)
		mallocsPer(calls, puts)
		g.WaitAll(hs...)

		acc = mallocsPer(calls, accs)
		put = mallocsPer(calls, puts)
		hs2 := make([]*proc.Handle, calls)
		for i := range hs2 {
			hs2[i] = g.NbPut(remote.Add(int64(8*i)), word)
		}
		g.AllFence() // confirms the stores; the handles stay pending
		wait = mallocsPer(1, func(int) { g.WaitAll(hs2...) })
	})
	t.Logf("allocations per call: NbAcc %.4f, NbPut %.4f, WaitAll of %d handles %.0f", acc, put, calls, wait)
	if acc > 1.0/16 || put > 1.0/16 {
		t.Errorf("NbAcc %.4f, NbPut %.4f allocations per call, want <= 1/16 (one chunk of handles per 16)", acc, put)
	}
	if wait != 0 {
		t.Errorf("WaitAll of %d confirmed handles made %.0f allocations, want 0", calls, wait)
	}
}
