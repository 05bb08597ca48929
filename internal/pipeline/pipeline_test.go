package pipeline

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/trace"
)

// virtual clock helper: a settable fabric time.
type vclock struct{ t time.Duration }

func (c *vclock) now() time.Duration { return c.t }

// send is SendTo with the deliveries returned as a slice, the original
// first, then any injected duplicate.
func send(p *Pipeline, src, dst msg.Addr, m *msg.Message, clock func() time.Duration, charge func(time.Duration)) ([]Delivery, error) {
	var ds []Delivery
	if err := p.SendTo(src, dst, m, clock, charge, func(d Delivery) { ds = append(ds, d) }); err != nil {
		return nil, err
	}
	return ds, nil
}

func TestArrivalMonotonicPerPair(t *testing.T) {
	p := New(Config{Params: model.Myrinet2000(), ChargeModel: true})
	a, b := msg.User(0), msg.User(1)
	clk := &vclock{}
	// A big message followed by a small one: the small one's raw arrival
	// would be earlier; the FIFO stamp must push it after the big one.
	big := &msg.Message{Kind: msg.KindSend, Data: make([]byte, 64<<10)}
	small := &msg.Message{Kind: msg.KindSend}
	d1, _ := send(p, a, b, big, clk.now, nil)
	d2, _ := send(p, a, b, small, clk.now, nil)
	if d2[0].At < d1[0].At {
		t.Fatalf("pipe reordered: %v then %v", d1[0].At, d2[0].At)
	}
	// A different pair is independent of the loaded one.
	d3, _ := send(p, b, a, &msg.Message{Kind: msg.KindSend}, clk.now, nil)
	if d3[0].At >= d1[0].At {
		t.Fatalf("independent pair delayed behind big transfer: %v >= %v", d3[0].At, d1[0].At)
	}
}

func TestSendStampsIdentity(t *testing.T) {
	p := New(Config{Params: model.Myrinet2000(), ChargeModel: true})
	a, b := msg.User(0), msg.User(1)
	clk := &vclock{t: 5 * time.Microsecond}
	var charged time.Duration
	m := &msg.Message{Kind: msg.KindSend}
	send(p, a, b, m, clk.now, func(d time.Duration) { charged += d })
	if charged != model.Myrinet2000().SendOverhead {
		t.Fatalf("send overhead charged %v", charged)
	}
	if m.Src != a || m.Dst != b || m.Seq != 1 || m.Sent != 5*time.Microsecond {
		t.Fatalf("identity stamp wrong: %+v", m)
	}
	m2 := &msg.Message{Kind: msg.KindSend}
	send(p, a, b, m2, clk.now, nil)
	if m2.Seq != 2 {
		t.Fatalf("sequence did not advance: %d", m2.Seq)
	}
}

func TestFaultDecisionsAreDeterministic(t *testing.T) {
	f := Faults{Seed: 7, Jitter: time.Millisecond, SpikeProb: 0.3, SpikeDelay: 5 * time.Millisecond, DupProb: 0.3}
	g := Faults{Seed: 8, Jitter: time.Millisecond, SpikeProb: 0.3, SpikeDelay: 5 * time.Millisecond, DupProb: 0.3}
	a, b := msg.User(0), msg.User(1)
	diverged := false
	for seq := uint64(1); seq <= 200; seq++ {
		d1, s1 := f.extra(a, b, seq)
		d2, s2 := f.extra(a, b, seq)
		if d1 != d2 || s1 != s2 {
			t.Fatalf("same plan, same message, different decision at seq %d", seq)
		}
		if f.dup(a, b, seq) != f.dup(a, b, seq) {
			t.Fatalf("dup decision unstable at seq %d", seq)
		}
		og, sg := g.extra(a, b, seq)
		if d1 != og || s1 != sg || f.dup(a, b, seq) != g.dup(a, b, seq) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("two different seeds produced identical fault patterns over 200 messages")
	}
}

func TestFaultRatesRoughlyMatchProbabilities(t *testing.T) {
	f := Faults{Seed: 1, SpikeProb: 0.25, SpikeDelay: time.Millisecond, DupProb: 0.25}
	a, b := msg.User(0), msg.User(1)
	spikes, dups := 0, 0
	const n = 2000
	for seq := uint64(1); seq <= n; seq++ {
		if _, s := f.extra(a, b, seq); s {
			spikes++
		}
		if f.dup(a, b, seq) {
			dups++
		}
	}
	for name, got := range map[string]int{"spikes": spikes, "dups": dups} {
		if got < n/8 || got > n/2 {
			t.Fatalf("%s rate badly off: %d of %d at prob 0.25", name, got, n)
		}
	}
}

func TestInboundSuppressesDuplicates(t *testing.T) {
	mx := trace.New()
	p := New(Config{Stats: mx})
	a, b := msg.User(0), msg.User(1)
	m := &msg.Message{Kind: msg.KindSend, Src: a, Dst: b, Seq: 1}
	if !p.Inbound(m, 0) {
		t.Fatal("first delivery rejected")
	}
	c := *m // an injected duplicate is a copy of the message
	if p.Inbound(&c, time.Microsecond) {
		t.Fatal("duplicate admitted")
	}
	if got := mx.Faults().DupsSuppressed; got != 1 {
		t.Fatalf("DupsSuppressed = %d", got)
	}
	// A later sequence number on the pair is admitted.
	if !p.Inbound(&msg.Message{Kind: msg.KindSend, Src: a, Dst: b, Seq: 2}, 0) {
		t.Fatal("next message rejected")
	}
	// Unsequenced messages (no pipeline on the send side) always pass.
	if !p.Inbound(&msg.Message{Kind: msg.KindSend, Src: a, Dst: b}, 0) {
		t.Fatal("unsequenced message rejected")
	}
}

// TestInboundStampsArrival: a pipeline with a stamp reader records the
// actual arrival unless a modeled one lies later; one without leaves it 0.
func TestInboundStampsArrival(t *testing.T) {
	quiet := &msg.Message{Kind: msg.KindSend, Src: msg.User(0), Dst: msg.User(1), Seq: 1}
	New(Config{}).Inbound(quiet, 42*time.Microsecond)
	if quiet.Arrival != 0 {
		t.Fatalf("a quiet pipeline stamped an arrival: %v", quiet.Arrival)
	}
	loud := trace.New()
	loud.SetTimeline(true)
	p := New(Config{Stats: loud})
	m := &msg.Message{Kind: msg.KindSend, Src: msg.User(0), Dst: msg.User(1), Seq: 1}
	p.Inbound(m, 42*time.Microsecond)
	if m.Arrival != 42*time.Microsecond {
		t.Fatalf("arrival not stamped: %v", m.Arrival)
	}
	// A modeled future arrival is preserved.
	m2 := &msg.Message{Kind: msg.KindSend, Src: msg.User(0), Dst: msg.User(1), Seq: 2,
		Arrival: time.Second}
	p.Inbound(m2, 42*time.Microsecond)
	if m2.Arrival != time.Second {
		t.Fatalf("modeled arrival clobbered: %v", m2.Arrival)
	}
}

func TestDuplicateInjectionBoundedPerPair(t *testing.T) {
	mx := trace.New()
	mx.SetTimeline(true)
	p := New(Config{Faults: Faults{Seed: 3, DupProb: 1}, Stats: mx})
	a, b := msg.User(0), msg.User(1)
	clk := &vclock{}
	total := 0
	for i := 0; i < 3*maxDupsPerPair; i++ {
		ds, _ := send(p, a, b, &msg.Message{Kind: msg.KindSend}, clk.now, nil)
		for _, d := range ds {
			if d.Dup {
				total++
				if d.At < ds[0].At {
					t.Fatalf("duplicate before original: %v < %v", d.At, ds[0].At)
				}
			}
		}
	}
	if total != maxDupsPerPair {
		t.Fatalf("injected %d duplicates, want the per-pair bound %d", total, maxDupsPerPair)
	}
	// The recorder got each duplicate beside its message, marked.
	marked := 0
	for _, e := range mx.Timeline() {
		if e.Dup {
			marked++
		}
	}
	if marked != total {
		t.Fatalf("recorder marked %d sends as duplicates, want %d", marked, total)
	}
	// The bound is per pair: a different pipe gets its own allowance.
	ds, _ := send(p, b, a, &msg.Message{Kind: msg.KindSend}, clk.now, nil)
	if len(ds) != 2 {
		t.Fatalf("fresh pair got %d deliveries, want original+dup", len(ds))
	}
}

func TestFaultsValidate(t *testing.T) {
	cases := []struct {
		name string
		f    Faults
		ok   bool
	}{
		{"zero", Faults{}, true},
		{"full plan", Faults{Seed: 1, Jitter: time.Millisecond, SpikeProb: 0.1, SpikeDelay: time.Millisecond, DupProb: 0.1}, true},
		{"negative jitter", Faults{Jitter: -1}, false},
		{"negative spike delay", Faults{SpikeDelay: -1}, false},
		{"negative dup delay", Faults{DupDelay: -1}, false},
		{"spike prob below 0", Faults{SpikeProb: -0.5}, false},
		{"spike prob above 1", Faults{SpikeProb: 1.5}, false},
		{"dup prob above 1", Faults{DupProb: 2}, false},
		{"loss plan", Faults{Seed: 2, LossProb: 0.1, LossBurst: 3, RetryBudget: 4, RTO: time.Millisecond, RTOCap: 8 * time.Millisecond}, true},
		{"crash plan", Faults{CrashRank: 1, CrashAfterSends: 5}, true},
		{"loss prob below 0", Faults{LossProb: -0.1}, false},
		{"loss prob above 1", Faults{LossProb: 1.5}, false},
		{"loss prob NaN", Faults{LossProb: math.NaN()}, false},
		{"negative loss burst", Faults{LossBurst: -1}, false},
		{"negative retry budget", Faults{RetryBudget: -1}, false},
		{"negative rto", Faults{RTO: -1}, false},
		{"negative rto cap", Faults{RTOCap: -1}, false},
		{"negative crash rank", Faults{CrashRank: -1}, false},
		{"negative crash send count", Faults{CrashAfterSends: -2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if tc.ok && err != nil {
				t.Fatalf("valid plan rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("invalid plan %+v accepted", tc.f)
			}
		})
	}
}

// TestPipelineFeedsRecorder: the two recorder calls per message carry
// everything the run's recorder keeps — the send count, the event with
// the arrival Inbound observed, the OpDeliver event and the latency
// histogram.
func TestPipelineFeedsRecorder(t *testing.T) {
	agg := trace.New()
	agg.SetTimeline(true)
	rec := agg.NewRun()
	p := New(Config{Params: model.Myrinet2000(), ChargeModel: true, Stats: rec})
	a, b := msg.User(0), msg.User(1)
	clk := &vclock{}
	var ats []time.Duration
	for i := 0; i < 4; i++ {
		ds, _ := send(p, a, b, &msg.Message{Kind: msg.KindSend, Tag: i}, clk.now, nil)
		for _, d := range ds {
			p.Inbound(d.Msg, d.At+time.Microsecond) // the receiver sees it late
			ats = append(ats, d.At+time.Microsecond)
		}
		clk.t += 100 * time.Microsecond
	}
	if rec.Sends() != 4 || rec.Count(msg.KindSend) != 4 {
		t.Fatalf("sends = %d", rec.Sends())
	}
	if h := rec.KindHistogram(msg.KindSend); h.Count != 4 || h.Mean() <= 0 {
		t.Fatalf("kind histogram: %+v", h)
	}
	tl := rec.Timeline()
	if len(tl) != 4 {
		t.Fatalf("timeline: %+v", tl)
	}
	for i, e := range tl {
		if e.PairSeq != uint64(i+1) || e.Arrival != ats[i] {
			t.Fatalf("timeline[%d] = %+v, want arrival %v joined", i, e, ats[i])
		}
	}
	var ops []trace.OpEvent
	for e := range rec.Records() {
		if e.Kind != trace.OpSend {
			ops = append(ops, e)
		}
	}
	if len(ops) != 4 || ops[3].Kind != trace.OpDeliver || ops[3].PairSeq != 4 || ops[3].Seq != 4 {
		t.Fatalf("op events: %+v", ops)
	}
	if rec.Faults() != (trace.FaultCounts{}) {
		t.Fatalf("fault-free traffic counted faults: %+v", rec.Faults())
	}
}

func TestNilMetricsAndStatsAreSafe(t *testing.T) {
	p := New(Config{Faults: Faults{Seed: 1, Jitter: time.Microsecond, DupProb: 1}})
	clk := &vclock{}
	ds, _ := send(p, msg.User(0), msg.User(1), &msg.Message{Kind: msg.KindSend}, clk.now, nil)
	for _, d := range ds {
		p.Inbound(d.Msg, d.At)
	}
}

func TestLossAttemptsDeterministicAndBackedOff(t *testing.T) {
	f := Faults{Seed: 11, LossProb: 0.5, RTO: 100 * time.Microsecond, RTOCap: 400 * time.Microsecond, RetryBudget: 6}
	a, b := msg.User(0), msg.User(1)
	sawDrop := false
	for seq := uint64(1); seq <= 500; seq++ {
		d1, t1, e1 := f.lossAttempts(a, b, seq)
		d2, t2, e2 := f.lossAttempts(a, b, seq)
		if d1 != d2 || t1 != t2 || e1 != e2 {
			t.Fatalf("loss replay unstable at seq %d", seq)
		}
		if e1 {
			continue
		}
		if d1 > 0 {
			sawDrop = true
			// The delay is the sum of the exponentially backed-off,
			// capped timeouts of each drop.
			var want time.Duration
			for i := 0; i < d1; i++ {
				want += f.backoff(i)
			}
			if t1 != want {
				t.Fatalf("seq %d: %d drops delayed %v, want %v", seq, d1, t1, want)
			}
		}
	}
	if !sawDrop {
		t.Fatal("500 messages at 50% loss produced no recovered drop")
	}
	if got := f.backoff(10); got != f.RTOCap {
		t.Fatalf("backoff not capped: %v", got)
	}
	if f.backoff(0) != f.RTO || f.backoff(1) != 2*f.RTO {
		t.Fatalf("backoff base/doubling wrong: %v, %v", f.backoff(0), f.backoff(1))
	}
}

func TestLossBurstExtendsDrops(t *testing.T) {
	a, b := msg.User(0), msg.User(1)
	single := Faults{Seed: 5, LossProb: 0.1}
	burst := Faults{Seed: 5, LossProb: 0.1, LossBurst: 4}
	const n = 2000
	count := func(f Faults) int {
		c := 0
		for seq := uint64(1); seq <= n; seq++ {
			if f.firstCopyLost(a, b, seq) {
				c++
			}
		}
		return c
	}
	ns, nb := count(single), count(burst)
	if nb <= ns {
		t.Fatalf("burst plan dropped %d first copies, single-loss plan %d; burst should drop more", nb, ns)
	}
	// Every single-loss drop anchors a run of burst consecutive drops.
	for seq := uint64(1); seq <= n-4; seq++ {
		if single.firstCopyLost(a, b, seq) {
			for off := uint64(0); off < 4; off++ {
				if !burst.firstCopyLost(a, b, seq+off) {
					t.Fatalf("burst hole: anchor %d, offset %d not dropped", seq, off)
				}
			}
		}
	}
}

func TestRetryExhaustionFailsSendWithCounters(t *testing.T) {
	mx := trace.New()
	p := New(Config{
		Faults: Faults{Seed: 1, LossProb: 1, RetryBudget: 2},
		Stats:  mx,
	})
	clk := &vclock{}
	ds, err := send(p, msg.User(3), msg.ServerOf(0), &msg.Message{Kind: msg.KindPut}, clk.now, nil)
	if ds != nil {
		t.Fatalf("exhausted send still produced deliveries: %v", ds)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FaultError", err)
	}
	if fe.Kind != FaultRetryExhausted || fe.Rank != 3 || fe.Server || fe.Op != msg.KindPut.String() {
		t.Fatalf("wrong attribution: %+v", fe)
	}
	f := mx.Faults()
	// Budget 2: original + 2 retransmissions all dropped.
	if f.Dropped != 3 || f.Retransmits != 2 || f.RetryExhausted != 1 {
		t.Fatalf("counters: %+v", f)
	}
	if mx.Sends() != 0 {
		t.Fatalf("failed send counted as %d sends", mx.Sends())
	}
}

func TestRetryExhaustionAttributesServerSends(t *testing.T) {
	p := New(Config{Faults: Faults{Seed: 1, LossProb: 1, RetryBudget: 1}})
	clk := &vclock{}
	_, err := send(p, msg.ServerOf(0), msg.User(2), &msg.Message{Kind: msg.KindGetResp}, clk.now, nil)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FaultError", err)
	}
	if fe.Rank != 2 || !fe.Server {
		t.Fatalf("server reply fault not attributed to destination rank: %+v", fe)
	}
}

func TestRecoveredLossDelaysArrivalAndCounts(t *testing.T) {
	mx := trace.New()
	mx.SetTimeline(true)
	base := Faults{Seed: 11, LossProb: 0.25, RTO: 100 * time.Microsecond, RetryBudget: 8}
	p := New(Config{Faults: base, Stats: mx})
	clean := New(Config{})
	a, b := msg.User(0), msg.User(1)
	clk := &vclock{}
	for seq := uint64(1); seq <= 200; seq++ {
		drops, delay, exhausted := base.lossAttempts(a, b, seq)
		if exhausted {
			t.Fatalf("seq %d exhausted at budget 8", seq)
		}
		ds, err := send(p, a, b, &msg.Message{Kind: msg.KindSend}, clk.now, nil)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		ref, _ := send(clean, a, b, &msg.Message{Kind: msg.KindSend}, clk.now, nil)
		if drops > 0 {
			if tl := mx.Timeline(); tl[len(tl)-1].FaultDelay < delay {
				t.Fatalf("seq %d: retransmit delay %v not folded into the recorded FaultDelay %v", seq, delay, tl[len(tl)-1].FaultDelay)
			}
			if ds[0].At < ref[0].At+delay {
				t.Fatalf("seq %d: arrival %v not delayed by %v", seq, ds[0].At, delay)
			}
		}
	}
	f := mx.Faults()
	if f.Dropped == 0 || f.Retransmits == 0 {
		t.Fatalf("no retransmit activity recorded: %+v", f)
	}
	if f.Dropped != f.Retransmits {
		t.Fatalf("without exhaustion every drop is one retransmit: %+v", f)
	}
	if f.RetryExhausted != 0 || f.Crashes != 0 {
		t.Fatalf("spurious failures: %+v", f)
	}
}

func TestCrashFailsNthSend(t *testing.T) {
	mx := trace.New()
	p := New(Config{
		Faults: Faults{CrashRank: 2, CrashAfterSends: 3},
		Stats:  mx,
	})
	clk := &vclock{}
	crasher, other := msg.User(2), msg.User(0)
	dst := msg.ServerOf(0)
	for i := 1; i <= 2; i++ {
		if _, err := send(p, crasher, dst, &msg.Message{Kind: msg.KindPut}, clk.now, nil); err != nil {
			t.Fatalf("send %d before crash failed: %v", i, err)
		}
	}
	_, err := send(p, crasher, dst, &msg.Message{Kind: msg.KindLockReq}, clk.now, nil)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("3rd send error %v is not a *FaultError", err)
	}
	if fe.Kind != FaultCrash || fe.Rank != 2 || fe.Server || fe.Op != msg.KindLockReq.String() {
		t.Fatalf("wrong crash attribution: %+v", fe)
	}
	// The crashed rank stays dead; other ranks are unaffected.
	if _, err := send(p, crasher, dst, &msg.Message{Kind: msg.KindPut}, clk.now, nil); err == nil {
		t.Fatal("crashed rank sent again")
	}
	if _, err := send(p, other, dst, &msg.Message{Kind: msg.KindPut}, clk.now, nil); err != nil {
		t.Fatalf("unrelated rank affected by crash: %v", err)
	}
	if got := mx.Faults().Crashes; got != 1 {
		t.Fatalf("Crashes = %d, want exactly 1", got)
	}
	if mx.Sends() != 3 {
		t.Fatalf("sends = %d, want the 3 that left (crashed sends do not count)", mx.Sends())
	}
}

func TestFaultErrorStrings(t *testing.T) {
	e := &FaultError{Rank: 4, Op: "put", Kind: FaultRetryExhausted}
	if s := e.Error(); !strings.Contains(s, "rank 4") || !strings.Contains(s, "retry budget exhausted") || !strings.Contains(s, "put") {
		t.Fatalf("error text: %q", s)
	}
	se := &FaultError{Rank: 1, Server: true, Op: "get-resp", Kind: FaultCrash}
	if s := se.Error(); !strings.Contains(s, "server side") {
		t.Fatalf("server-side error text: %q", s)
	}
	if FaultOpTimeout.String() != "operation deadline exceeded" {
		t.Fatalf("FaultOpTimeout.String() = %q", FaultOpTimeout.String())
	}
}

// TestInboundRejectsStaleEpoch pins the elastic fencing rule: once the
// view epoch advances, in-flight messages stamped with the old epoch are
// rejected (and counted), current-epoch traffic still flows, and sends
// pick up the new stamp.
func TestInboundRejectsStaleEpoch(t *testing.T) {
	mx := trace.New()
	p := New(Config{Stats: mx})
	a, b := msg.User(0), msg.User(1)
	clk := &vclock{}

	old := &msg.Message{Kind: msg.KindSend}
	send(p, a, b, old, clk.now, nil)
	if old.Epoch != 0 {
		t.Fatalf("initial epoch stamp = %d", old.Epoch)
	}

	p.SetEpoch(3)
	if p.Inbound(old, 0) {
		t.Fatal("stale-epoch message admitted")
	}
	if got := mx.Faults().StaleEpochs; got != 1 {
		t.Fatalf("StaleEpochs = %d", got)
	}

	cur := &msg.Message{Kind: msg.KindSend}
	send(p, a, b, cur, clk.now, nil)
	if cur.Epoch != 3 {
		t.Fatalf("send not stamped with new epoch: %d", cur.Epoch)
	}
	if !p.Inbound(cur, 0) {
		t.Fatal("current-epoch message rejected")
	}
	// A future epoch (receiver lagging behind a view change) is let
	// through; the receiver is about to install that view itself.
	if !p.Inbound(&msg.Message{Kind: msg.KindSend, Src: a, Dst: b, Seq: 9, Epoch: 4}, 0) {
		t.Fatal("future-epoch message rejected")
	}
}

// TestResetPeerForgetsPairState pins the respawn handshake: after the
// pair state toward a dead node is reset, a fresh incarnation's sequence
// numbers (restarting at 1) are admitted, while unrelated pairs keep
// their dedup watermarks.
func TestResetPeerForgetsPairState(t *testing.T) {
	p := New(Config{})
	a, b, c := msg.User(0), msg.User(1), msg.User(2)
	for seq := uint64(1); seq <= 3; seq++ {
		p.Inbound(&msg.Message{Kind: msg.KindSend, Src: b, Dst: a, Seq: seq}, 0)
		p.Inbound(&msg.Message{Kind: msg.KindSend, Src: c, Dst: a, Seq: seq}, 0)
	}
	// Without a reset, the old watermark suppresses a restarted peer.
	if p.Inbound(&msg.Message{Kind: msg.KindSend, Src: b, Dst: a, Seq: 1}, 0) {
		t.Fatal("restarted sequence admitted without reset")
	}
	p.ResetPeer(func(ad msg.Addr) bool { return ad == b })
	if !p.Inbound(&msg.Message{Kind: msg.KindSend, Src: b, Dst: a, Seq: 1}, 0) {
		t.Fatal("fresh incarnation's first message rejected after reset")
	}
	if p.Inbound(&msg.Message{Kind: msg.KindSend, Src: c, Dst: a, Seq: 2}, 0) {
		t.Fatal("unrelated pair lost its dedup watermark")
	}
	// The send-side counter toward the reset peer restarts at 1 too.
	m := &msg.Message{Kind: msg.KindSend}
	clk := &vclock{}
	send(p, b, a, m, clk.now, nil)
	if m.Seq != 1 {
		t.Fatalf("send counter survived reset: seq %d", m.Seq)
	}
}

// TestResetPeerWhileOthersSend: resetting one peer's pipes is atomic
// against the sends of every other actor, which take no lock the reset
// takes. Three actors send to rank 0 while the reset runs; deliveries to
// rank 0 are serialized by a lock standing in for its box, as a fabric
// does. The reset pipes restart at sequence 1 and are admitted; the others
// number on without a gap and never lose a message.
func TestResetPeerWhileOthersSend(t *testing.T) {
	p := New(Config{})
	dst, peer := msg.User(0), msg.User(9)
	var box sync.Mutex
	send := func(src, to msg.Addr) (seq uint64, admitted bool) {
		m := &msg.Message{Kind: msg.KindSend}
		err := p.SendTo(src, to, m, nil, nil, func(d Delivery) {
			box.Lock()
			admitted = p.Inbound(d.Msg, 0)
			box.Unlock()
		})
		if err != nil {
			t.Error(err)
		}
		return m.Seq, admitted
	}
	for i := 0; i < 3; i++ { // the peer's old incarnation, both ways
		send(peer, dst)
		send(dst, peer)
	}

	const n = 2000
	var started, done sync.WaitGroup
	for r := 1; r <= 3; r++ {
		started.Add(1)
		done.Add(1)
		go func(src msg.Addr) {
			defer done.Done()
			for i := uint64(1); i <= n; i++ {
				if seq, ok := send(src, dst); seq != i || !ok {
					t.Errorf("%v -> %v: send %d got seq %d, admitted %v", src, dst, i, seq, ok)
					return
				}
				if i == n/2 {
					started.Done()
				}
			}
		}(msg.User(r))
	}
	started.Wait() // every sender is mid-stream
	p.ResetPeer(func(a msg.Addr) bool { return a == peer })
	if seq, ok := send(peer, dst); seq != 1 || !ok {
		t.Errorf("the new incarnation's first send: seq %d, admitted %v; want 1, true", seq, ok)
	}
	if seq, ok := send(dst, peer); seq != 1 || !ok {
		t.Errorf("the first send to the new incarnation: seq %d, admitted %v; want 1, true", seq, ok)
	}
	done.Wait()
}
