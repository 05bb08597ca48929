package proc_test

import (
	"bytes"
	"fmt"
	"testing"

	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/proc"
	"armci/internal/shmem"
	"armci/internal/wire"
)

// TestEngineCoalescedPutsRideOneFrame: with coalescing on, a burst of
// small puts to one node travels as batched frames instead of one
// KindPut each, and a fence still makes every byte visible.
func TestEngineCoalescedPutsRideOneFrame(t *testing.T) {
	const puts, width = 6, 16
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, puts*width)
	done := c.space().AllocWords(1, 1)
	c.run(func(g *proc.Engine) {
		env := g.Env()
		if g.Rank() == 1 {
			env.WaitUntil("done", shmem.Cell(done), func() bool { return env.Space().Load(done) == 1 })
			return
		}
		g.SetCoalescing(true)
		for i := 0; i < puts; i++ {
			g.Put(buf.Add(int64(i*width)), bytes.Repeat([]byte{byte(i + 1)}, width))
		}
		if got := g.OpInit()[1]; got != puts {
			panic(fmt.Sprintf("op_init[1] = %d after %d coalesced puts", got, puts))
		}
		g.Fence(1)
		for i := 0; i < puts; i++ {
			if got := g.Get(buf.Add(int64(i*width)), width); !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, width)) {
				panic(fmt.Sprintf("coalesced put %d not visible after fence", i))
			}
		}
		g.Store(done, 1)
	})
	if got := c.stats.Count(msg.KindPut); got != 0 {
		t.Fatalf("%d KindPut frames escaped the coalescer", got)
	}
	if got := c.stats.Count(msg.KindBatch); got != 1 {
		t.Fatalf("batched frames = %d, want 1 (%d puts under the default thresholds)", got, puts)
	}
	if got := c.stats.Count(msg.KindFenceReq); got != 1 {
		t.Fatalf("fence requests = %d, want 1", got)
	}
}

// TestEngineCoalescerFrameBoundFlush: the put that would grow the frame
// past MaxFrameBytes ships the full frame at once; it and the remainder go
// out at the fence.
func TestEngineCoalescerFrameBoundFlush(t *testing.T) {
	full := (pipeline.MaxFrameBytes - wire.BatchBodySize(0, 0)) / (wire.BatchBodySize(1, 8) - wire.BatchBodySize(0, 0))
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, (full+1)*8)
	c.run(func(g *proc.Engine) {
		if g.Rank() != 0 {
			return
		}
		g.SetCoalescing(true)
		for i := 0; i < full; i++ {
			g.Put(buf.Add(int64(i*8)), bytes.Repeat([]byte{0xAB}, 8))
		}
		if got := g.Coalescer().Pending(1); got != full {
			panic(fmt.Sprintf("%d entries pending at the bound, want %d", got, full))
		}
		g.Put(buf.Add(int64(full*8)), bytes.Repeat([]byte{0xAB}, 8))
		if got := g.Coalescer().Pending(1); got != 1 {
			panic(fmt.Sprintf("%d entries pending past the bound, want 1", got))
		}
		g.Fence(1)
	})
	if got := c.stats.Count(msg.KindBatch); got != 2 {
		t.Fatalf("batched frames = %d, want 2 (bound flush + fence flush)", got)
	}
}

// TestEngineCoalescedStoreHandles: NbPut handles over the coalesced
// path complete through WaitAll with a single fence round trip for the
// shared destination node, and a second WaitAll of the same handles,
// done by then, fences nothing.
func TestEngineCoalescedStoreHandles(t *testing.T) {
	const puts = 3
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, puts*8)
	c.run(func(g *proc.Engine) {
		if g.Rank() != 0 {
			return
		}
		g.SetCoalescing(true)
		hs := make([]*proc.Handle, puts)
		for i := range hs {
			hs[i] = g.NbPut(buf.Add(int64(i*8)), bytes.Repeat([]byte{byte(i + 1)}, 8))
		}
		g.WaitAll(hs...)
		g.WaitAll(hs...) // idempotent
		for i := 0; i < puts; i++ {
			if got := g.Get(buf.Add(int64(i*8)), 8); !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 8)) {
				panic(fmt.Sprintf("put %d not visible after WaitAll", i))
			}
		}
	})
	if got := c.stats.Count(msg.KindFenceReq); got != 1 {
		t.Fatalf("fence requests = %d, want 1 (WaitAll shares one fence per node)", got)
	}
}

// TestEnginePutFlagCoalesced: put-with-flag over the coalesced path
// ships data and flag in one batched frame, and the consumer spinning
// on its local flag observes the data.
func TestEnginePutFlagCoalesced(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, 32)
	flag := c.space().AllocWords(1, 1)
	want := bytes.Repeat([]byte{0x7E}, 32)
	c.run(func(g *proc.Engine) {
		switch g.Rank() {
		case 0:
			g.SetCoalescing(true)
			g.PutFlag(buf, want, flag, 9)
		case 1:
			g.WaitFlag(flag, 9)
			if got := g.Get(buf, 32); !bytes.Equal(got, want) {
				panic("flag set but data stale")
			}
		}
	})
	if got := c.stats.Count(msg.KindBatch); got != 1 {
		t.Fatalf("batched frames = %d, want 1 (data + flag in one frame)", got)
	}
	if got := c.stats.Count(msg.KindPut) + c.stats.Count(msg.KindRmw); got != 0 {
		t.Fatalf("%d uncoalesced put/rmw frames for a coalesced PutFlag", got)
	}
}

// TestEnginePutFlagUncoalesced: without coalescing, the flag store is
// an ordinary RmwStore behind the put on the same FIFO pipe.
func TestEnginePutFlagUncoalesced(t *testing.T) {
	c := newCluster(t, 2, 1, proc.FenceRequest, 0)
	buf := c.space().AllocBytes(1, 32)
	flag := c.space().AllocWords(1, 1)
	want := bytes.Repeat([]byte{0x3D}, 32)
	c.run(func(g *proc.Engine) {
		switch g.Rank() {
		case 0:
			g.PutFlag(buf, want, flag, 5)
		case 1:
			g.WaitFlag(flag, 5)
			if got := g.Get(buf, 32); !bytes.Equal(got, want) {
				panic("flag set but data stale")
			}
		}
	})
	if got := c.stats.Count(msg.KindPut); got != 1 {
		t.Fatalf("puts = %d, want 1", got)
	}
	if got := c.stats.Count(msg.KindRmw); got != 1 {
		t.Fatalf("rmw (flag store) = %d, want 1", got)
	}
}
