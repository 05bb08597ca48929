package core_test

import (
	"fmt"
	"testing"
	"time"

	"armci/internal/collective"
	"armci/internal/core"
	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/proc"
	"armci/internal/server"
	"armci/internal/shmem"
	"armci/internal/trace"
	"armci/internal/transport"
)

// world is the core-test harness: a cluster (simulated unless a test
// names another fabric) with engines, collectives, sync drivers and a
// lock table.
type world struct {
	t      *testing.T
	fabric transport.Fabric
	layout *proc.Layout
	locks  *proc.LockTable
	stats  *trace.Stats
}

func newWorld(t *testing.T, procs, ppn int, params model.Params, lockHomes []int) *world {
	t.Helper()
	return newSeededWorld(t, procs, ppn, params, lockHomes, 0)
}

// newSeededWorld is newWorld under kernel shuffle seed seed (0 = FIFO).
func newSeededWorld(t *testing.T, procs, ppn int, params model.Params, lockHomes []int, seed int64) *world {
	t.Helper()
	return newWorldOn(t, fabrics[0].build, transport.Config{
		Procs: procs, ProcsPerNode: ppn, Model: params, ScheduleSeed: seed,
	}, lockHomes)
}

// fabrics are the fabrics a fabric-parametric test runs on: the
// simulator and the in-memory wall-clock one.
var fabrics = []struct {
	name  string
	build func(transport.Config) (transport.Fabric, error)
}{
	{"sim", func(c transport.Config) (transport.Fabric, error) { return transport.NewSim(c) }},
	{"chan", func(c transport.Config) (transport.Fabric, error) { return transport.NewChan(c) }},
}

// newWorldOn builds a world on the fabric build makes from cfg.
func newWorldOn(t *testing.T, build func(transport.Config) (transport.Fabric, error), cfg transport.Config, lockHomes []int) *world {
	t.Helper()
	stats := trace.New()
	cfg.Trace = stats
	f, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs, ppn := cfg.Procs, cfg.ProcsPerNode
	numNodes := (procs + ppn - 1) / ppn
	lay := proc.NewLayout(f.Space(), procs, numNodes)
	var locks *proc.LockTable
	if len(lockHomes) > 0 {
		locks = proc.NewLockTable(f.Space(), lockHomes)
	}
	for n := 0; n < numNodes; n++ {
		f.SpawnServer(n, func(env transport.Env) transport.Handler {
			return server.New(env, lay, server.Options{Locks: locks}).HandleOne
		})
	}
	return &world{t: t, fabric: f, layout: lay, locks: locks, stats: stats}
}

// ctx is what each rank's body receives.
type ctx struct {
	g    *proc.Engine
	sync *core.Sync
}

func (w *world) run(body func(c *ctx)) {
	w.t.Helper()
	for r := 0; r < w.fabric.Config().Procs; r++ {
		w.fabric.SpawnUser(r, func(env transport.Env) {
			g := proc.NewEngine(env, w.layout, proc.FenceRequest)
			body(&ctx{g: g, sync: core.NewSync(g, collective.New(env))})
		})
	}
	if err := w.fabric.Run(); err != nil {
		w.t.Fatal(err)
	}
}

// TestBarrierWaitsForOpDone: the combined barrier's stage 2 must not let
// any rank through before its node's server has completed every put
// directed at it — even puts from ranks that entered the barrier much
// earlier. op_done is cumulative, so over several rounds stage 2 must
// wait for the running total of the summed deltas, not this round's.
func TestBarrierWaitsForOpDone(t *testing.T) {
	const procs, rounds, size = 4, 4, 8 * 1024
	w := newWorld(t, procs, 1, model.Myrinet2000(), nil)
	var bufs []shmem.Ptr
	for r := 0; r < procs; r++ {
		bufs = append(bufs, w.fabric.Space().AllocBytes(r, size))
	}
	w.run(func(c *ctx) {
		env := c.g.Env()
		me := c.g.Rank()
		for round := 1; round <= rounds; round++ {
			// Rank 0 blasts large puts at everyone at the last moment;
			// the others enter the barrier immediately.
			if me == 0 {
				payload := make([]byte, size)
				for i := range payload {
					payload[i] = byte(round)
				}
				for q := 1; q < procs; q++ {
					c.g.Put(bufs[q], payload)
				}
			}
			c.sync.Barrier()
			// After the barrier, rank 0's big puts must be complete at
			// every node — op_done reaches the summed op_init by
			// construction.
			if me == 0 {
				continue
			}
			done := env.Space().Load(w.layout.OpDone[env.Node(me)])
			if last := env.Space().ReadRaw(bufs[me].Add(size-1), 1)[0]; done < int64(round) || last != byte(round) {
				panic(fmt.Sprintf("rank %d escaped barrier %d with op_done=%d, last byte %d", me, round, done, last))
			}
		}
	})
}

// TestBarrierRepeats: counters are cumulative; many barriers with
// interleaved puts stay correct.
func TestBarrierRepeats(t *testing.T) {
	const procs, rounds = 4, 6
	w := newWorld(t, procs, 1, model.Myrinet2000(), nil)
	var cells []shmem.Ptr
	for r := 0; r < procs; r++ {
		cells = append(cells, w.fabric.Space().AllocWords(r, rounds))
	}
	w.run(func(c *ctx) {
		me := c.g.Rank()
		for round := 0; round < rounds; round++ {
			// Everyone stores into the next rank's cell for this round.
			c.g.Store(cells[(me+1)%procs].Add(int64(round)), int64(100*round+me))
			c.sync.Barrier()
			got := c.g.Env().Space().Load(cells[me].Add(int64(round)))
			want := int64(100*round + (me-1+procs)%procs)
			if got != want {
				panic(fmt.Sprintf("rank %d round %d saw %d, want %d", me, round, got, want))
			}
		}
	})
}

// TestBarrierWithSMPNodes: multiple ranks per node share one op_done.
func TestBarrierWithSMPNodes(t *testing.T) {
	const procs, ppn = 8, 2
	w := newWorld(t, procs, ppn, model.Myrinet2000(), nil)
	var cells []shmem.Ptr
	for r := 0; r < procs; r++ {
		cells = append(cells, w.fabric.Space().AllocWords(r, procs))
	}
	w.run(func(c *ctx) {
		me := c.g.Rank()
		for q := 0; q < procs; q++ {
			if q != me {
				c.g.Store(cells[q].Add(int64(me)), int64(me+1))
			}
		}
		c.sync.Barrier()
		sum := int64(0)
		for q := 0; q < procs; q++ {
			if q != me {
				sum += c.g.Env().Space().Load(cells[me].Add(int64(q)))
			}
		}
		want := int64(procs*(procs+1)/2) - int64(me+1)
		if sum != want {
			panic(fmt.Sprintf("rank %d sum %d, want %d", me, sum, want))
		}
	})
}

// TestBarrierMessageComplexity pins the 2·N·log₂N collective messages of
// the combined barrier against the N(N−1) fence requests of the original.
func TestBarrierMessageComplexity(t *testing.T) {
	count := func(old bool) (coll, fence int) {
		const procs = 8
		w := newWorld(t, procs, 1, model.Zero(), nil)
		var bufs []shmem.Ptr
		for r := 0; r < procs; r++ {
			bufs = append(bufs, w.fabric.Space().AllocBytes(r, procs))
		}
		w.run(func(c *ctx) {
			me := c.g.Rank()
			for q := 0; q < procs; q++ {
				if q != me {
					c.g.Put(bufs[q].Add(int64(me)), []byte{1})
				}
			}
			if old {
				c.sync.SyncOld()
			} else {
				c.sync.Barrier()
			}
		})
		return w.stats.Count(msg.KindColl), w.stats.Count(msg.KindFenceReq)
	}
	coll, fence := count(false)
	if fence != 0 {
		t.Fatalf("new barrier sent %d fence requests", fence)
	}
	if coll != 2*8*3 {
		t.Fatalf("new barrier moved %d collective messages, want 48", coll)
	}
	coll, fence = count(true)
	if fence != 8*7 {
		t.Fatalf("old sync sent %d fence requests, want 56", fence)
	}
	if coll != 8*3 {
		t.Fatalf("old sync moved %d collective messages (one barrier), want 24", coll)
	}
}

// TestLockHandoffLatency measures the paper's lock synchronization time
// exactly on the virtual clock: passing the lock to a remote waiter costs
// TWO message latencies through the server with the hybrid algorithm and
// ONE direct message with the queuing lock (§3.2.2).
func TestLockHandoffLatency(t *testing.T) {
	params := model.Myrinet2000()
	// The lock is homed at a third node (rank 2) so that, as in the
	// paper's remote-lock analysis, the hybrid release and grant messages
	// both cross the wire.
	measure := func(useQueue bool) time.Duration {
		w := newWorld(t, 3, 1, params, []int{2})
		var releaseAt, acquiredAt time.Duration
		ready := w.fabric.Space().AllocWords(0, 1)
		w.run(func(c *ctx) {
			env := c.g.Env()
			var mu core.Mutex
			if useQueue {
				mu = core.NewQueueLock(c.g, w.locks, 0)
			} else {
				mu = core.NewHybrid(c.g, w.locks, 0)
			}
			switch c.g.Rank() {
			case 0:
				mu.Lock()
				// Wait until rank 1 is provably enqueued, then release.
				env.WaitUntil("waiter", shmem.Cell(ready), func() bool { return env.Space().Load(ready) == 1 })
				env.Clock().Sleep(500 * time.Microsecond) // let the enqueue fully settle
				releaseAt = env.Clock().Now()
				mu.Unlock()
			case 1:
				// Mark that the request is about to be issued, then block
				// in Lock. The store precedes the lock request in program
				// order, so rank 0 cannot release too early.
				env.Space().Store(ready, 1)
				mu.Lock()
				acquiredAt = env.Clock().Now()
				mu.Unlock()
			}
		})
		return acquiredAt - releaseAt
	}

	hybrid := measure(false)
	queue := measure(true)

	if queue >= hybrid {
		t.Fatalf("queuing lock hand-off (%v) not faster than hybrid (%v)", queue, hybrid)
	}
	// Hybrid: release msg + grant msg => at least 2 wire latencies.
	if hybrid < 2*params.Latency {
		t.Fatalf("hybrid hand-off %v below two latencies", hybrid)
	}
	// The queuing lock saves the second message: the gap must be at
	// least most of one wire latency (the remainder is server-side
	// overhead present in both paths).
	if gap := hybrid - queue; gap < params.Latency/2 {
		t.Fatalf("hand-off gap %v too small for a saved message (hybrid %v, queue %v)",
			gap, hybrid, queue)
	}
}

// TestMCSFifoOrder: waiters staggered in time acquire the queuing lock in
// arrival order.
func TestMCSFifoOrder(t *testing.T) {
	const procs = 6
	w := newWorld(t, procs, 1, model.Myrinet2000(), []int{0})
	order := make([]int, 0, procs)
	w.run(func(c *ctx) {
		env := c.g.Env()
		me := c.g.Rank()
		mu := core.NewQueueLock(c.g, w.locks, 0)
		// Stagger arrivals far beyond any message latency so the global
		// enqueue order equals rank order.
		env.Clock().Sleep(time.Duration(me) * 5 * time.Millisecond)
		mu.Lock()
		order = append(order, me)
		env.Clock().Sleep(500 * time.Microsecond) // hold so everyone queues
		mu.Unlock()
	})
	for i, r := range order {
		if r != i {
			t.Fatalf("acquisition order %v not FIFO", order)
		}
	}
}

// TestHybridTicketOrder: the hybrid lock grants strictly in ticket order
// too, mixing local and remote requesters (lock homed at rank 0, ranks 0
// and 1 co-located, ranks 2,3 remote).
func TestHybridTicketOrder(t *testing.T) {
	const procs = 4
	w := newWorld(t, procs, 2, model.Myrinet2000(), []int{0})
	order := make([]int, 0, procs)
	w.run(func(c *ctx) {
		env := c.g.Env()
		me := c.g.Rank()
		mu := core.NewHybrid(c.g, w.locks, 0)
		env.Clock().Sleep(time.Duration(me) * 5 * time.Millisecond)
		mu.Lock()
		order = append(order, me)
		env.Clock().Sleep(300 * time.Microsecond)
		mu.Unlock()
	})
	for i, r := range order {
		if r != i {
			t.Fatalf("grant order %v not ticket order", order)
		}
	}
}

// TestQueueLockContention: heavy interleaved lock traffic keeps a plain
// counter exact, for both queuing variants and the hybrid — and the
// deterministic simulator makes any lost update reproducible.
func TestQueueLockContention(t *testing.T) {
	kinds := []struct {
		name string
		mk   func(c *ctx, lt *proc.LockTable) core.Mutex
	}{
		{"queue", func(c *ctx, lt *proc.LockTable) core.Mutex { return core.NewQueueLock(c.g, lt, 0) }},
		{"queue-nocas", func(c *ctx, lt *proc.LockTable) core.Mutex { return core.NewQueueLockNoCAS(c.g, lt, 0) }},
		{"hybrid", func(c *ctx, lt *proc.LockTable) core.Mutex { return core.NewHybrid(c.g, lt, 0) }},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			const procs, iters = 5, 12
			w := newWorld(t, procs, 1, model.Myrinet2000(), []int{2})
			counter := w.fabric.Space().AllocWords(2, 1)
			w.run(func(c *ctx) {
				mu := k.mk(c, w.locks)
				for i := 0; i < iters; i++ {
					mu.Lock()
					v := c.g.Load(counter)
					c.g.Store(counter, v+1)
					if c.g.Env().Node(2) != c.g.Env().Node(c.g.Rank()) {
						c.g.Fence(c.g.Env().Node(2))
					}
					mu.Unlock()
				}
				c.sync.Barrier()
				if c.g.Rank() == 2 {
					if got := c.g.Load(counter); got != procs*iters {
						panic(fmt.Sprintf("counter %d, want %d", got, procs*iters))
					}
				}
			})
		})
	}
}

// TestTicketLockLocalOnly: the pure ticket lock enforces its home-node
// restriction and provides exclusion among co-located ranks.
func TestTicketLockLocalOnly(t *testing.T) {
	const procs = 3
	w := newWorld(t, procs, 3, model.Myrinet2000(), []int{0}) // all on one node
	counter := w.fabric.Space().AllocWords(0, 1)
	w.run(func(c *ctx) {
		mu := core.NewTicket(c.g, w.locks, 0)
		for i := 0; i < 10; i++ {
			mu.Lock()
			v := c.g.Load(counter)
			c.g.Store(counter, v+1)
			mu.Unlock()
		}
	})
	if got := w.fabric.Space().Load(counter); got != 30 {
		t.Fatalf("counter %d, want 30", got)
	}
}

func TestTicketLockRejectsRemoteRank(t *testing.T) {
	w := newWorld(t, 2, 1, model.Zero(), []int{0})
	paniced := false
	w.run(func(c *ctx) {
		if c.g.Rank() == 1 {
			func() {
				defer func() { paniced = recover() != nil }()
				core.NewTicket(c.g, w.locks, 0)
			}()
		}
	})
	if !paniced {
		t.Fatal("remote rank constructed a ticket lock")
	}
}

// TestSyncEquivalence: SyncOld, SyncOldPipelined and Barrier provide the
// same visibility guarantee under the same workload.
func TestSyncEquivalence(t *testing.T) {
	for _, mode := range []string{"old", "pipelined", "new"} {
		t.Run(mode, func(t *testing.T) {
			const procs = 6 // non power of two: dissemination paths too
			w := newWorld(t, procs, 1, model.Myrinet2000(), nil)
			var cells []shmem.Ptr
			for r := 0; r < procs; r++ {
				cells = append(cells, w.fabric.Space().AllocWords(r, procs))
			}
			w.run(func(c *ctx) {
				me := c.g.Rank()
				for q := 0; q < procs; q++ {
					if q != me {
						c.g.Store(cells[q].Add(int64(me)), int64(me+1))
					}
				}
				switch mode {
				case "old":
					c.sync.SyncOld()
				case "pipelined":
					c.sync.SyncOldPipelined()
				case "new":
					c.sync.Barrier()
				}
				for q := 0; q < procs; q++ {
					if q == me {
						continue
					}
					if got := c.g.Env().Space().Load(cells[me].Add(int64(q))); got != int64(q+1) {
						panic(fmt.Sprintf("rank %d missing write from %d after %s sync", me, q, mode))
					}
				}
			})
		})
	}
}
