package proc_test

import (
	"bytes"
	"fmt"
	"testing"

	"armci/internal/msg"
	"armci/internal/proc"
	"armci/internal/server"
	"armci/internal/shmem"
	"armci/internal/transport"
)

func TestEngineNbGetRemote(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, 64)
	c.space().Put(buf, bytes.Repeat([]byte{0x42}, 64))
	done := c.space().AllocWords(1, 1)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		if g.Rank() == 1 {
			env.WaitUntil("done", func() bool { return env.Space().Load(done) == 1 })
			return
		}
		h1 := g.NbGet(buf, 16)
		h2 := g.NbGetStrided(buf.Add(16), shmem.Strided{Count: []int{4, 2}, Stride: []int64{8}})
		if h1.Done() || h2.Done() {
			panic("remote handles reported done before Wait")
		}
		// Collect out of order.
		d2 := h2.Wait()
		d1 := h1.Wait()
		if len(d1) != 16 || d1[0] != 0x42 {
			panic(fmt.Sprintf("h1 data %v", d1[:4]))
		}
		if len(d2) != 8 || d2[0] != 0x42 {
			panic(fmt.Sprintf("h2 data %v", d2))
		}
		g.Store(done, 1)
	})
	if got := c.stats.Count(msg.KindGet); got != 2 {
		t.Fatalf("gets = %d", got)
	}
}

func TestEngineNbGetLocalCompletesImmediately(t *testing.T) {
	c := newCluster(t, 1, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(0, 8)
	c.space().Put(buf, []byte{9, 8, 7, 6, 5, 4, 3, 2})
	c.run(func(g *proc.Engine) {
		h := g.NbGet(buf, 8)
		if !h.Done() {
			panic("local handle not immediately done")
		}
		if d := h.Wait(); d[0] != 9 {
			panic("local handle data wrong")
		}
	})
	if c.stats.Sends() != 0 {
		t.Fatal("local nbget sent messages")
	}
}

func TestEnginePutVGetVRemote(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, 300)
	done := c.space().AllocWords(1, 1)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		if g.Rank() == 1 {
			env.WaitUntil("done", func() bool { return env.Space().Load(done) == 1 })
			return
		}
		g.PutV([]proc.VecPiece{
			{Ptr: buf.Add(0), Data: []byte{1, 2}},
			{Ptr: buf.Add(100), Data: []byte{3}},
			{Ptr: buf.Add(200), Data: []byte{4, 5, 6}},
		})
		if g.OpInit()[1] != 1 {
			panic("vector put not counted as one fence op")
		}
		g.Fence(1)
		out := g.GetV([]proc.VecRead{
			{Ptr: buf.Add(200), N: 3},
			{Ptr: buf.Add(0), N: 2},
		})
		if !bytes.Equal(out[0], []byte{4, 5, 6}) || !bytes.Equal(out[1], []byte{1, 2}) {
			panic(fmt.Sprintf("getv returned %v", out))
		}
		g.Store(done, 1)
	})
	if got := c.stats.Count(msg.KindPutV); got != 1 {
		t.Fatalf("putv messages = %d", got)
	}
	if got := c.stats.Count(msg.KindGetV); got != 1 {
		t.Fatalf("getv messages = %d", got)
	}
}

func TestEnginePutVGetVLocal(t *testing.T) {
	c := newCluster(t, 1, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(0, 64)
	c.run(func(g *proc.Engine) {
		g.PutV([]proc.VecPiece{
			{Ptr: buf.Add(5), Data: []byte{7, 7}},
			{Ptr: buf.Add(20), Data: []byte{8}},
		})
		out := g.GetV([]proc.VecRead{{Ptr: buf.Add(5), N: 2}, {Ptr: buf.Add(20), N: 1}})
		if out[0][0] != 7 || out[1][0] != 8 {
			panic("local vector round trip wrong")
		}
		for _, v := range g.OpInit() {
			if v != 0 {
				panic("local vector put fence-counted")
			}
		}
	})
	if c.stats.Sends() != 0 {
		t.Fatal("local vector ops sent messages")
	}
}

func TestEngineVectorValidation(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	b0 := c.space().AllocBytes(0, 8)
	b1 := c.space().AllocBytes(1, 8)
	w1 := c.space().AllocWords(1, 1)
	c.run(func(g *proc.Engine) {
		if g.Rank() != 0 {
			return
		}
		cases := []func(){
			func() { g.PutV([]proc.VecPiece{{Ptr: b0, Data: []byte{1}}, {Ptr: b1, Data: []byte{1}}}) },
			func() { g.GetV([]proc.VecRead{{Ptr: b0, N: 1}, {Ptr: b1, N: 1}}) },
			func() { g.PutV([]proc.VecPiece{{Ptr: w1, Data: []byte{1, 0, 0, 0, 0, 0, 0, 0}}}) },
			func() { g.GetV([]proc.VecRead{{Ptr: w1, N: 8}}) },
		}
		for i, fn := range cases {
			func() {
				defer func() {
					if recover() == nil {
						panic(fmt.Sprintf("case %d accepted", i))
					}
				}()
				fn()
			}()
		}
	})
}

func TestEngineFenceAckStoreOps(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceAck, 0)
	w := c.space().AllocWords(1, 4)
	done := c.space().AllocWords(1, 1)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		if g.Rank() == 1 {
			env.WaitUntil("done", func() bool { return env.Space().Load(done) == 1 })
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
		c.fabric.SpawnServer(2+n, func(env transport.Env) {
			server.NewAgent(env, c.layout, server.Options{}).Serve()
		})
	}
	buf := c.space().AllocBytes(1, 8)
	done := c.space().AllocWords(1, 1)
	c.stats.SetCapture(true) // PairCount reads the captured sends
	c.run(func(g *proc.Engine) {
		env := g.Env()
		g.SetNICAssist(true)
		if !g.NICAssist() {
			panic("flag not set")
		}
		if g.Rank() == 1 {
			env.WaitUntil("done", func() bool { return env.Space().Load(done) == 1 })
			return
		}
		g.Put(buf, []byte{0xEE})
		g.Fence(1)
		if env.Space().Get(buf, 1)[0] != 0xEE {
			panic("NIC fence acked before the put landed")
		}
		g.Store(done, 1)
		g.Fence(1)
	})
	// Fence requests went to the agent, not the host server.
	if got := c.stats.PairCount(msg.User(0), msg.NICOf(1, 2)); got == 0 {
		t.Fatal("no traffic reached the NIC agent")
	}
}
