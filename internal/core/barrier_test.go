package core_test

import (
	"fmt"
	"testing"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/shmem"
	"armci/internal/transport"
)

// TestBarrierEmptyEpochDecision pins which Barriers take the empty-epoch
// exit. 8 ranks, 2 per node: the all-reduce and the stage-3 barrier each
// send N·log₂N = 24 collective messages, so a run's collective count says
// how many Barriers ran all three stages and how many ended after stage 1.
// Every rank must take the same path, or the run deadlocks or panics on a
// mismatched collective.
func TestBarrierEmptyEpochDecision(t *testing.T) {
	const procs, ppn, stage = 8, 2, 24
	partner := func(me int) int { return me ^ 1 } // same node
	remote := func(me int) int { return (me + ppn) % procs }
	cases := []struct {
		name string
		body func(c *ctx, words, bufs []shmem.Ptr)
		coll int
	}{
		{"one-rank-writes-one-remote-node", func(c *ctx, words, bufs []shmem.Ptr) {
			if c.g.Rank() == 0 {
				c.g.Store(words[remote(0)], 7)
			}
			c.sync.Barrier()
			if me := c.g.Rank(); me == remote(0) {
				if got := c.g.Env().Space().Load(words[me]); got != 7 {
					panic(fmt.Sprintf("rank %d read %d after the barrier, want 7", me, got))
				}
			}
		}, 2 * stage},
		{"gets-rmws-same-node-puts", func(c *ctx, words, bufs []shmem.Ptr) {
			me := c.g.Rank()
			c.g.Get(bufs[remote(me)], 8)
			c.g.FetchAdd(words[remote(me)].Add(1), 1)
			c.g.Put(bufs[partner(me)], []byte{byte(me + 1)})
			c.g.Store(words[partner(me)].Add(2), int64(me+1))
			c.sync.Barrier()
			if got := c.g.Env().Space().Load(words[me].Add(2)); got != int64(partner(me)+1) {
				panic(fmt.Sprintf("rank %d read %d from its partner, want %d", me, got, partner(me)+1))
			}
		}, stage},
		{"puts-fenced-by-allfence", func(c *ctx, words, bufs []shmem.Ptr) {
			c.g.Store(words[remote(c.g.Rank())], 1)
			c.g.AllFence()
			c.sync.Barrier()
		}, 2 * stage},
		{"puts-fenced-by-syncold", func(c *ctx, words, bufs []shmem.Ptr) {
			c.g.Store(words[remote(c.g.Rank())], 1)
			c.sync.SyncOld() // its own barrier: one stage's worth
			c.sync.Barrier()
		}, stage + 2*stage},
		{"back-to-back", func(c *ctx, words, bufs []shmem.Ptr) {
			c.g.Store(words[remote(c.g.Rank())], 1)
			c.sync.Barrier()
			c.sync.Barrier()
		}, 2*stage + stage},
	}
	for _, fab := range fabrics {
		for _, tc := range cases {
			t.Run(fab.name+"/"+tc.name, func(t *testing.T) {
				w := newWorldOn(t, fab.build, transport.Config{
					Procs: procs, ProcsPerNode: ppn, Model: model.Zero(), OpDeadline: 10 * time.Second,
				}, nil)
				var words, bufs []shmem.Ptr
				for r := 0; r < procs; r++ {
					words = append(words, w.fabric.Space().AllocWords(r, 3))
					bufs = append(bufs, w.fabric.Space().AllocBytes(r, 8))
				}
				w.run(func(c *ctx) { tc.body(c, words, bufs) })
				if got := w.stats.Count(msg.KindColl); got != tc.coll {
					t.Fatalf("%d collective messages, want %d", got, tc.coll)
				}
			})
		}
	}
}
