package pipeline

import (
	"testing"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/shmem"
	"armci/internal/trace"
	"armci/internal/wire"
)

// BenchmarkPipelineSendRecv measures one message through the full
// pipeline hot path — SendTo (identity, cost, fault, FIFO stages) plus
// Inbound (dedup, arrival stamping, recorder) — the per-message cost
// every fabric pays. With pairState consolidation and the
// emit-based SendTo this is allocation-free in steady state.
func BenchmarkPipelineSendRecv(b *testing.B) {
	b.ReportAllocs()
	p := New(Config{Params: model.Myrinet2000(), ChargeModel: true, Stats: trace.New()})
	a, dst := msg.User(0), msg.User(1)
	clk := &vclock{}
	m := &msg.Message{Kind: msg.KindSend}
	emit := func(d Delivery) {
		if !p.Inbound(d.Msg, d.At) {
			b.Fatal("delivery suppressed with no faults configured")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.t += time.Microsecond
		if err := p.SendTo(a, dst, m, clk.now, nil, emit); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathAllocBudget pins the pooled send/recv path to zero
// allocations per message once the per-pair state and trace counters
// are warm. A regression back to per-send map churn or delivery-slice
// allocation fails this test directly rather than waiting for someone
// to notice benchmark drift. The budget holds for the default counting
// recorder, for one that also feeds latency histograms, and through the
// fault stage of a jitter plan.
func TestHotPathAllocBudget(t *testing.T) {
	t.Run("counting", func(t *testing.T) { hotPathAllocBudget(t, trace.New(), Faults{}) })
	t.Run("latency", func(t *testing.T) { hotPathAllocBudget(t, trace.New().NewRun(), Faults{}) })
	t.Run("faults", func(t *testing.T) {
		hotPathAllocBudget(t, trace.New(), Faults{Seed: 1, Jitter: time.Microsecond})
	})
}

func hotPathAllocBudget(t *testing.T, rec *trace.Stats, f Faults) {
	p := New(Config{Params: model.Myrinet2000(), ChargeModel: true, Stats: rec, Faults: f})
	a, dst := msg.User(0), msg.User(1)
	clk := &vclock{}
	m := &msg.Message{Kind: msg.KindSend}
	var sendErr error
	suppressed := false
	emit := func(d Delivery) {
		if !p.Inbound(d.Msg, d.At) {
			suppressed = true
		}
	}
	send := func() {
		clk.t += time.Microsecond
		if err := p.SendTo(a, dst, m, clk.now, nil, emit); err != nil {
			sendErr = err
		}
	}
	send() // warm the pair state and the recorder's map entries
	if avg := testing.AllocsPerRun(200, send); avg > 0 {
		t.Errorf("warm send/recv path allocates %.2f allocs/msg, budget 0", avg)
	}
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if suppressed {
		t.Fatal("delivery suppressed with no duplicate injected")
	}
	if f.Enabled() && rec.Faults().Jittered == 0 {
		t.Fatal("the fault stage never ran")
	}
}

// TestCoalescerAllocBudget pins the coalesced small-operation path once
// a node's buffer is warm: an Add that does not ship a frame allocates
// nothing (the payload lands in the arena the buffer keeps), nor does a
// whole frame's worth of Adds — filled to MaxFrameBytes — whose frame is
// encoded into the coalescer's one reused body, nor FlushAll with
// nothing buffered.
func TestCoalescerAllocBudget(t *testing.T) {
	const node = 1
	c := NewCoalescer(0)
	e := wire.BatchEntry{
		Op:   wire.BatchPut,
		Ptr:  shmem.Ptr{Rank: 1, Kind: shmem.KindByte, Seg: 1},
		Data: make([]byte, 8),
	}
	perFrame := (MaxFrameBytes - wire.BatchBodySize(0, 0)) / (wire.BatchBodySize(1, 8) - wire.BatchBodySize(0, 0))
	frames := 0
	add := func() {
		if c.Add(node, e) != nil {
			frames++
		}
	}
	frame := func() {
		for i := 0; i < perFrame; i++ {
			add()
		}
	}
	frame() // warm the node's entry table and arena with one full frame
	add()   // ship it; this entry opens the next frame
	// AllocsPerRun makes one extra warm-up call: perFrame-1 Adds in all,
	// which fill the open frame to the bound without shipping it.
	if avg := testing.AllocsPerRun(perFrame-2, add); avg > 0 {
		t.Errorf("an Add that does not ship a frame allocates %.2f, budget 0", avg)
	}
	if got := c.Pending(node); got != perFrame {
		t.Fatalf("Pending = %d after the non-shipping Adds, want %d", got, perFrame)
	}
	if avg := testing.AllocsPerRun(100, frame); avg > 0 {
		t.Errorf("a frame of %d Adds allocates %.2f, budget 0", perFrame, avg)
	}
	if want := 1 + 101; frames != want {
		t.Fatalf("%d frames flushed, want %d", frames, want)
	}
	c.Flush(node)
	emit := func(int, *msg.Message) { t.Fatal("FlushAll emitted a frame with nothing buffered") }
	if avg := testing.AllocsPerRun(100, func() { c.FlushAll(emit) }); avg > 0 {
		t.Errorf("an empty FlushAll allocates %.2f, budget 0", avg)
	}
}
