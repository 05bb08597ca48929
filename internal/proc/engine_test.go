package proc_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/proc"
	"armci/internal/server"
	"armci/internal/shmem"
	"armci/internal/trace"
	"armci/internal/transport"
)

// cluster wires engines and servers on a simulated fabric for
// engine-level integration tests. Shared pointers must be allocated via
// the Space *before* run is called — simulated processes are cooperative
// and must never block on Go channels.
type cluster struct {
	t      *testing.T
	fabric *transport.SimFabric
	layout *proc.Layout
	locks  *proc.LockTable
	stats  *trace.Stats
	mode   proc.FenceMode
}

// newCluster builds the fabric, layout, lock table and servers.
func newCluster(t *testing.T, procs, ppn int, mode proc.FenceMode, nLocks int) *cluster {
	t.Helper()
	stats := trace.New()
	f, err := transport.NewSim(transport.Config{
		Procs: procs, ProcsPerNode: ppn, Model: model.Myrinet2000(), Trace: stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	numNodes := (procs + ppn - 1) / ppn
	lay := proc.NewLayout(f.Space(), procs, numNodes)
	var locks *proc.LockTable
	if nLocks > 0 {
		homes := make([]int, nLocks)
		locks = proc.NewLockTable(f.Space(), homes)
	}
	for n := 0; n < numNodes; n++ {
		f.SpawnServer(n, func(env transport.Env) transport.Handler {
			return server.New(env, lay, server.Options{FenceMode: mode, Locks: locks}).HandleOne
		})
	}
	return &cluster{t: t, fabric: f, layout: lay, locks: locks, stats: stats, mode: mode}
}

// space returns the cluster memory for pre-run allocation.
func (c *cluster) space() *shmem.Space { return c.fabric.Space() }

// run spawns one user process per rank with body and executes the
// simulation.
func (c *cluster) run(body func(g *proc.Engine)) {
	c.t.Helper()
	for r := 0; r < c.fabric.Config().Procs; r++ {
		c.fabric.SpawnUser(r, func(env transport.Env) {
			body(proc.NewEngine(env, c.layout, c.mode))
		})
	}
	if err := c.fabric.Run(); err != nil {
		c.t.Fatal(err)
	}
}

func TestRemotePutFenceGet(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, 64)
	done := c.space().AllocWords(1, 1)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		if g.Rank() == 1 {
			env.WaitUntil("done", shmem.Cell(done), func() bool { return env.Space().Load(done) == 1 })
			return
		}
		data := bytes.Repeat([]byte{0x5C}, 32)
		g.Put(buf.Add(1), data)
		if got := g.OpInit()[1]; got != 1 {
			panic(fmt.Sprintf("op_init[1] = %d after one remote put", got))
		}
		g.Fence(1)
		if got := g.Get(buf.Add(1), 32); !bytes.Equal(got, data) {
			panic("fenced put not visible through get")
		}
		g.Store(done, 1)
	})
	if c.stats.Count(msg.KindFenceReq) != 1 {
		t.Fatalf("fence requests = %d, want 1", c.stats.Count(msg.KindFenceReq))
	}
	// The put, the final store and the fence request all reached node 1.
	if c.stats.Count(msg.KindPut) != 1 {
		t.Fatalf("puts = %d, want 1", c.stats.Count(msg.KindPut))
	}
}

func TestFenceSkippedWithoutWrites(t *testing.T) {
	c := newCluster(t, 3, 1, proc.FenceRequest, 0)
	c.run(func(g *proc.Engine) {
		// Nobody wrote anything: every fence must short-circuit.
		g.Fence((g.Rank() + 1) % 3)
		g.AllFence()
	})
	if got := c.stats.Count(msg.KindFenceReq); got != 0 {
		t.Fatalf("idle cluster sent %d fence requests", got)
	}
}

func TestFenceToOwnNodeIsFree(t *testing.T) {
	c := newCluster(t, 2, 2, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, 8)
	c.run(func(g *proc.Engine) {
		if g.Rank() == 0 {
			g.Put(buf, []byte{1}) // co-located: direct
			g.Fence(0)            // own node
			g.AllFence()
		}
	})
	if got := c.stats.Sends(); got != 0 {
		t.Fatalf("intra-node workload sent %d messages", got)
	}
}

func TestLocalOpsBypassServer(t *testing.T) {
	c := newCluster(t, 2, 2, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, 16)
	w := c.space().AllocWords(1, 2)
	c.run(func(g *proc.Engine) {
		if g.Rank() != 0 {
			return
		}
		g.Put(buf, []byte{1, 2, 3})
		if got := g.Get(buf, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
			panic("local put/get failed")
		}
		g.Store(w, 5)
		if g.FetchAdd(w, 2) != 5 || g.Load(w) != 7 {
			panic("local atomics failed")
		}
		g.StorePair(w, shmem.Pair{Hi: 1, Lo: 2})
		if g.LoadPair(w) != (shmem.Pair{Hi: 1, Lo: 2}) {
			panic("local pair ops failed")
		}
		for _, v := range g.OpInit() {
			if v != 0 {
				panic("local operations were fence-counted")
			}
		}
	})
	if got := c.stats.Sends(); got != 0 {
		t.Fatalf("local-only workload sent %d messages", got)
	}
}

func TestRemoteAtomicsThroughServer(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	w := c.space().AllocWords(1, 4)
	c.space().Store(w, 100)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		if g.Rank() == 1 {
			env.WaitUntil("done", shmem.Cell(w.Add(3)), func() bool { return env.Space().Load(w.Add(3)) == 1 })
			return
		}
		if old := g.FetchAdd(w, 5); old != 100 {
			panic(fmt.Sprintf("remote FetchAdd returned %d", old))
		}
		if got := g.Load(w); got != 105 {
			panic(fmt.Sprintf("remote Load after FetchAdd = %d", got))
		}
		pairCell := w.Add(1)
		g.StorePair(pairCell, shmem.Pair{Hi: 11, Lo: 22})
		g.Fence(1) // StorePair is fire-and-forget; fence before reading
		if got := g.LoadPair(pairCell); got != (shmem.Pair{Hi: 11, Lo: 22}) {
			panic(fmt.Sprintf("remote LoadPair = %+v", got))
		}
		if old := g.SwapPair(pairCell, shmem.Pair{Hi: 33, Lo: 44}); old != (shmem.Pair{Hi: 11, Lo: 22}) {
			panic(fmt.Sprintf("remote SwapPair = %+v", old))
		}
		if obs := g.CompareAndSwapPair(pairCell, shmem.Pair{Hi: 33, Lo: 44}, shmem.Pair{Hi: 0, Lo: 1}); obs != (shmem.Pair{Hi: 33, Lo: 44}) {
			panic(fmt.Sprintf("remote CASPair = %+v", obs))
		}
		g.Store(w.Add(3), 1)
	})
	if got := c.stats.Count(msg.KindRmwResp); got == 0 {
		t.Fatal("no RMW responses recorded — atomics did not go through the server")
	}
}

func TestStridedRemoteTransfer(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, 256)
	done := c.space().AllocWords(1, 1)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		if g.Rank() == 1 {
			env.WaitUntil("done", shmem.Cell(done), func() bool { return env.Space().Load(done) == 1 })
			return
		}
		// A 3x4 tile into a 16-byte-wide matrix.
		d := shmem.Strided{Count: []int{4, 3}, Stride: []int64{16}}
		data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
		g.PutStrided(buf, d, data)
		g.Fence(1)
		if got := g.GetStrided(nil, buf, d); !bytes.Equal(got, data) {
			panic(fmt.Sprintf("strided round trip %v", got))
		}
		// Check placement: row 1 starts at offset 16.
		if row := g.Get(buf.Add(16), 4); !bytes.Equal(row, []byte{5, 6, 7, 8}) {
			panic(fmt.Sprintf("row 1 = %v", row))
		}
		g.Store(done, 1)
	})
}

func TestRemoteAccumulate(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, 32)
	done := c.space().AllocWords(1, 1)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		if g.Rank() == 1 {
			env.WaitUntil("done", shmem.Cell(done), func() bool { return env.Space().Load(done) == 1 })
			return
		}
		one := make([]byte, 16)
		leput(one, 0, 1)
		leput(one, 8, 2)
		g.Accumulate(shmem.AccInt64, buf, shmem.Contig(16), one, 3)
		g.Accumulate(shmem.AccInt64, buf, shmem.Contig(16), one, 1)
		g.Fence(1)
		out := g.Get(buf, 16)
		if leget(out, 0) != 4 || leget(out, 8) != 8 {
			panic(fmt.Sprintf("accumulate result %d %d", leget(out, 0), leget(out, 8)))
		}
		g.Store(done, 1)
	})
	// Accumulates are fence-counted like puts.
	if got := c.stats.Count(msg.KindAcc); got != 2 {
		t.Fatalf("accumulate messages = %d", got)
	}
}

// TestFenceAckMode exercises the LAPI/VIA-like mode: every put is
// acknowledged and fences drain acknowledgements with no requests.
func TestFenceAckMode(t *testing.T) {
	c := newCluster(t, 3, 1, proc.FenceAck, 0)
	bufs := []shmem.Ptr{
		c.space().AllocBytes(0, 8),
		c.space().AllocBytes(1, 8),
		c.space().AllocBytes(2, 8),
	}
	done := c.space().AllocWords(0, 1)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		me := g.Rank()
		for q := 0; q < 3; q++ {
			if q != me {
				g.Put(bufs[q], []byte{byte(me + 1)})
			}
		}
		g.AllFence()
		if me == 0 {
			g.FetchAdd(done, 1) // not fence-relevant; just progress marker
		}
		env.WaitUntil("all-done", shmem.Cell(done), func() bool { return env.Space().Load(done) >= 1 })
	})
	if got := c.stats.Count(msg.KindFenceReq); got != 0 {
		t.Fatalf("ack mode sent %d fence requests", got)
	}
	if got := c.stats.Count(msg.KindPutAck); got != 6 {
		t.Fatalf("put acks = %d, want 6", got)
	}
}

// TestAllFenceVariants: serialized and pipelined AllFence both leave every
// previous put visible.
func TestAllFenceVariants(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		name := "serialized"
		if pipelined {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			const procs = 4
			c := newCluster(t, procs, 1, proc.FenceRequest, 0)
			var bufs []shmem.Ptr
			for r := 0; r < procs; r++ {
				bufs = append(bufs, c.space().AllocBytes(r, procs))
			}
			done := c.space().AllocWords(0, 1)
			c.run(func(g *proc.Engine) {
				env := g.Env()
				me := g.Rank()
				for q := 0; q < procs; q++ {
					if q != me {
						g.Put(bufs[q].Add(int64(me)), []byte{byte(me + 1)})
					}
				}
				if pipelined {
					g.AllFencePipelined()
				} else {
					g.AllFence()
				}
				// After my fence, everything I wrote is visible; verify
				// my own writes through gets.
				for q := 0; q < procs; q++ {
					if q == me {
						continue
					}
					if got := g.Get(bufs[q].Add(int64(me)), 1); got[0] != byte(me+1) {
						panic(fmt.Sprintf("rank %d: fenced write to %d lost", me, q))
					}
				}
				g.FetchAdd(done, 1)
				env.WaitUntil("everyone", shmem.Cell(done), func() bool { return env.Space().Load(done) == procs })
			})
		})
	}
}

func TestLayoutPlacement(t *testing.T) {
	space := shmem.NewSpace([]int{0, 0, 1, 1, 2})
	lay := proc.NewLayout(space, 5, 3)
	if len(lay.OpDone) != 3 {
		t.Fatalf("op_done cells = %d", len(lay.OpDone))
	}
	wantRanks := []int32{0, 2, 4} // first rank of each node
	for n, p := range lay.OpDone {
		if p.Rank != wantRanks[n] {
			t.Fatalf("op_done[%d] homed at rank %d, want %d", n, p.Rank, wantRanks[n])
		}
		if p.Kind != shmem.KindWord {
			t.Fatalf("op_done[%d] is not a word cell", n)
		}
	}
}

func TestLockTableShape(t *testing.T) {
	space := shmem.NewSpace([]int{0, 1, 2})
	lt := proc.NewLockTable(space, []int{1, 2})
	if lt.NumLocks() != 2 {
		t.Fatalf("NumLocks = %d", lt.NumLocks())
	}
	if lt.TicketCounter[0].Rank != 1 || lt.MCS[1].Rank != 2 {
		t.Fatal("lock variables homed at the wrong ranks")
	}
	for i := 0; i < 2; i++ {
		if len(lt.QNode[i]) != 3 {
			t.Fatalf("lock %d has %d queue nodes", i, len(lt.QNode[i]))
		}
		for r, q := range lt.QNode[i] {
			if q.Rank != int32(r) {
				t.Fatalf("queue node (%d,%d) homed at rank %d", i, r, q.Rank)
			}
		}
	}
}

// TestEngineSizeChecks: malformed transfer sizes must panic loudly.
func TestEngineSizeChecks(t *testing.T) {
	c := newCluster(t, 1, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(0, 64)
	recovered := false
	c.run(func(g *proc.Engine) {
		func() {
			defer func() { recovered = recover() != nil }()
			g.PutStrided(buf, shmem.Contig(16), make([]byte, 8))
		}()
	})
	if !recovered {
		t.Fatal("mismatched strided put did not panic")
	}
}

// leput writes an int64 little-endian at off.
func leput(b []byte, off int, v int64) {
	for i := 0; i < 8; i++ {
		b[off+i] = byte(v >> (8 * i))
	}
}

// leget reads an int64 little-endian at off.
func leget(b []byte, off int) int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[off+i]) << (8 * i)
	}
	return int64(v)
}

func TestEngineFenceAckStoreOps(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceAck, 0)
	w := c.space().AllocWords(1, 4)
	done := c.space().AllocWords(1, 1)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		if g.Rank() == 1 {
			env.WaitUntil("done", shmem.Cell(done), func() bool { return env.Space().Load(done) == 1 })
			return
		}
		// Fire-and-forget stores are acknowledged in ack mode and the
		// fence drains the acks without any fence request.
		g.Store(w, 1)
		g.StorePair(w.Add(1), shmem.Pair{Hi: 2, Lo: 3})
		g.Fence(1)
		if env.Space().Load(w) != 1 {
			panic("store not applied after ack fence")
		}
		g.Store(done, 1)
		g.AllFence()
	})
	if got := c.stats.Count(msg.KindFenceReq); got != 0 {
		t.Fatalf("ack-mode fences sent %d requests", got)
	}
	if got := c.stats.Count(msg.KindPutAck); got != 3 {
		t.Fatalf("acks = %d, want 3", got)
	}
}

func TestEngineNICFenceRouting(t *testing.T) {
	// Bring up servers AND NIC agents by hand.
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	// newCluster spawns only host servers; add agents.
	for n := 0; n < 2; n++ {
		c.fabric.SpawnServer(2+n, func(env transport.Env) transport.Handler {
			return server.NewAgent(env, c.layout, server.Options{}).HandleOne
		})
	}
	buf := c.space().AllocBytes(1, 8)
	done := c.space().AllocWords(1, 1)
	c.stats.SetTimeline(true) // the NIC's traffic is read from the captured sends
	c.run(func(g *proc.Engine) {
		env := g.Env()
		g.SetNICAssist(true)
		if g.Rank() == 1 {
			env.WaitUntil("done", shmem.Cell(done), func() bool { return env.Space().Load(done) == 1 })
			return
		}
		g.Put(buf, []byte{0xEE})
		g.Fence(1)
		if env.Space().AppendGet(nil, buf, shmem.Strided{}, 1)[0] != 0xEE {
			panic("NIC fence acked before the put landed")
		}
		g.Store(done, 1)
		g.Fence(1)
	})
	// Fence requests went to the agent, not the host server.
	nic := msg.NICOf(1, 2)
	if !slices.ContainsFunc(c.stats.Timeline(), func(e trace.Event) bool { return e.Src == msg.User(0) && e.Dst == nic }) {
		t.Fatal("no traffic reached the NIC agent")
	}
}
