// Package pipeline is the send/receive path every transport fabric routes
// its messages through. SendTo applies, in order:
//
//  1. identity — stamp Src/Dst, the per-pipe sequence number, the view
//     epoch and, when the message needs one (see below), the send time;
//  2. cost model — charge the modeled send overhead and compute the base
//     arrival (now + latency + bytes·G), honoring intra-node locality;
//  3. faults, under a fault plan only — seeded extra delay (jitter and
//     spikes), bounded duplicate delivery, and the reliability stage: it
//     replays the message's ack/retransmit exchange (each copy is dropped
//     with LossProb, each drop costs an exponentially backed-off RTO) and
//     fails the send with a rank-attributed *FaultError once RetryBudget is
//     spent, as an injected Crash does at the rank's N-th send. The
//     per-pipe FIFO stamp keeps arrivals monotonic throughout;
//  4. record — one recorder call per send: the message, any injected
//     duplicate, and the fault decisions the send drew.
//
// Inbound mirrors them at the destination: it rejects a stale view epoch,
// suppresses duplicates by sequence number (exactly-once even under
// injected duplication), stamps the arrival (the captured OpDeliver carries
// it on every fabric, TCP included) and makes one recorder call. Dedup sits
// after the reliability stage on purpose: a retransmitted copy keeps its
// sequence number and resolves to one delivery before the FIFO stamp, so
// dedup only ever sees injected duplicates.
//
// A stamp is taken only for whoever reads it: the cost model, a fault plan,
// whose delays are enforced against stamps, or a loud recorder
// (trace.Stats.Loud). Without one (Stamps) Sent and Arrival stay 0 and no
// clock is read on the message's path; only the first two can put an
// arrival in the receiver's future (Delays).
//
// A message touches only state its own actors own. A pipe's sequence
// number, FIFO clamp and duplicate budget belong to the sending endpoint
// and only its actor writes them, as it writes its own send counters (a
// trace.Actor); the dedup watermark belongs to the destination and only its
// deliveries, which the fabric serializes, write it. The view epoch and the
// crash registry are atomics. So a send takes no lock another actor takes.
//
// Fault decisions — every per-attempt loss decision included — are pure
// functions of (seed, src, dst, sequence), never of timing or scheduling,
// so a seed injects the same faults on the simulated and the concurrent
// fabrics: identical retransmit counts and trace fingerprints.
package pipeline

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/trace"
)

// Faults configures deterministic fault injection. The zero value
// disables every fault. All decisions derive from hashing (Seed, src,
// dst, seq), so a fault plan replays identically on every fabric and
// across runs.
type Faults struct {
	// Seed selects the fault pattern (0 uses a fixed default).
	Seed int64
	// Jitter adds a uniformly distributed extra delay in [0, Jitter) to
	// every message.
	Jitter time.Duration
	// SpikeProb is the per-message probability of a latency spike. A
	// spiked message is delayed by SpikeDelay, and — because arrivals
	// are FIFO-stamped per pair — drags the whole pipe behind it: a
	// per-pair latency spike.
	SpikeProb float64
	// SpikeDelay is the extra delay of a spiked message.
	SpikeDelay time.Duration
	// DupProb is the per-message probability that the fabric delivers
	// the message twice. The duplicate trails the original and is
	// always suppressed by the receive-side dedup stage, so protocol
	// code still observes exactly-once delivery. At most maxDupsPerPair
	// duplicates are injected per directed pair.
	DupProb float64
	// DupDelay is the extra delay of the duplicate copy. 0 picks a
	// small default.
	DupDelay time.Duration
	// LossProb is the per-transmission probability that a message copy
	// is dropped on the wire. A dropped copy is recovered by the
	// reliability stage: the sender retransmits after an exponentially
	// backed-off timeout until a copy gets through or RetryBudget is
	// exhausted. Each retransmission re-rolls the loss decision
	// independently, so the effective per-message failure probability is
	// LossProb^(RetryBudget+1).
	LossProb float64
	// LossBurst stretches each loss event over a run of consecutive
	// messages: a loss anchored at sequence s also drops the first copy
	// of the next LossBurst-1 messages on the same pair, modeling a
	// transient outage rather than independent single drops. 0 or 1
	// means single-message losses.
	LossBurst int
	// RetryBudget bounds how many retransmissions the reliability stage
	// attempts per message before the send fails with a
	// FaultRetryExhausted error (0 selects the default of 8).
	RetryBudget int
	// RTO is the initial retransmit timeout; it doubles after every
	// drop up to RTOCap. 0 selects the default of 500µs.
	RTO time.Duration
	// RTOCap caps the exponential backoff. 0 selects 16×RTO.
	RTOCap time.Duration
	// CrashRank selects the user rank fail-stopped by the crash fault
	// (used only when CrashAfterSends > 0).
	CrashRank int
	// CrashAfterSends, when > 0, crashes CrashRank at its
	// CrashAfterSends-th send: that send and every later one from the
	// rank fails with a FaultCrash error. 0 disables the crash fault.
	CrashAfterSends int
	// CrashHeldRank selects the user rank fail-stopped by the
	// crash-while-holding fault (used only when CrashHeldAcquire > 0).
	CrashHeldRank int
	// CrashHeldAcquire, when > 0, crashes CrashHeldRank immediately
	// after its CrashHeldAcquire-th lock acquisition — the rank dies
	// holding the lock. The pipeline cannot see acquisitions, so the
	// lock layer's one ownership step (core.Holder.Acquired, which every
	// lock algorithm ends its acquire with) counts them per lock handle
	// and fail-stops the rank itself; the knob lives here so it rides
	// the same plan/grammar as every other fault. 0 disables the fault.
	CrashHeldAcquire int
	// ElasticCrashRank selects the rank killed by the elastic crash
	// fault (used only when ElasticCrashStep > 0).
	ElasticCrashRank int
	// ElasticCrashStep, when > 0, kills ElasticCrashRank partway
	// through that sync epoch of an elastic-replication workload: a
	// real worker-process exit under armci-run -elastic, a cooperative
	// wipe-and-restore emulation on the in-process fabrics. Like
	// CrashHeldAcquire, the pipeline cannot see sync epochs — the
	// elastic runner reads the knob and injects the crash itself; it
	// lives here to ride the same plan/grammar as every other fault.
	// 0 disables the fault.
	ElasticCrashStep int
}

// Enabled reports whether any fault is configured.
func (f Faults) Enabled() bool {
	return f.Jitter > 0 || (f.SpikeProb > 0 && f.SpikeDelay > 0) || f.DupProb > 0 ||
		f.LossProb > 0 || f.CrashAfterSends > 0 || f.CrashHeldAcquire > 0
}

// Validate rejects nonsensical fault plans with an error naming the knob.
// Probability checks are written in the negated form so that NaN (which
// fails every comparison) is rejected too.
func (f Faults) Validate() error {
	for _, k := range []struct {
		bad        bool
		name, rule string
		got        any
	}{
		{f.Jitter < 0, "Jitter", ">= 0", f.Jitter},
		{f.SpikeDelay < 0, "SpikeDelay", ">= 0", f.SpikeDelay},
		{f.DupDelay < 0, "DupDelay", ">= 0", f.DupDelay},
		{!(f.SpikeProb >= 0 && f.SpikeProb <= 1), "SpikeProb", "in [0,1]", f.SpikeProb},
		{!(f.DupProb >= 0 && f.DupProb <= 1), "DupProb", "in [0,1]", f.DupProb},
		{!(f.LossProb >= 0 && f.LossProb <= 1), "LossProb", "in [0,1]", f.LossProb},
		{f.LossBurst < 0, "LossBurst", ">= 0", f.LossBurst},
		{f.RetryBudget < 0, "RetryBudget", fmt.Sprintf(">= 1 (0 selects the default of %d)", defaultRetryBudget), f.RetryBudget},
		{f.RTO < 0, "RTO", ">= 0", f.RTO},
		{f.RTOCap < 0, "RTOCap", ">= 0", f.RTOCap},
		{f.CrashRank < 0, "CrashRank", ">= 0", f.CrashRank},
		{f.CrashAfterSends < 0, "CrashAfterSends", ">= 0", f.CrashAfterSends},
		{f.CrashHeldRank < 0, "CrashHeldRank", ">= 0", f.CrashHeldRank},
		{f.CrashHeldAcquire < 0, "CrashHeldAcquire", ">= 0", f.CrashHeldAcquire},
		{f.ElasticCrashRank < 0, "ElasticCrashRank", ">= 0", f.ElasticCrashRank},
		{f.ElasticCrashStep < 0, "ElasticCrashStep", ">= 0", f.ElasticCrashStep},
	} {
		if k.bad {
			return fmt.Errorf("pipeline: Faults.%s must be %s, got %v", k.name, k.rule, k.got)
		}
	}
	return nil
}

// FaultKind classifies a structured fault failure.
type FaultKind int

const (
	// FaultCrash: an injected Crash fault fail-stopped the rank.
	FaultCrash FaultKind = iota
	// FaultRetryExhausted: a message stayed lost through the whole
	// retransmission budget.
	FaultRetryExhausted
	// FaultOpTimeout: a single operation exceeded the per-op deadline.
	FaultOpTimeout
	// FaultPeerLost: a multi-process cluster peer died or went silent —
	// its connection to the rendezvous coordinator was lost or its
	// heartbeats stopped. Rank names the dead peer's first rank, so the
	// failure is attributed to the worker that vanished, not to whichever
	// rank happened to be blocked on it.
	FaultPeerLost
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRetryExhausted:
		return "retry budget exhausted"
	case FaultOpTimeout:
		return "operation deadline exceeded"
	case FaultPeerLost:
		return "cluster peer lost"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultError is the structured, rank-attributed failure a fault produces.
// Runs fail fast with one of these instead of hanging until the global
// deadline.
type FaultError struct {
	// Rank is the user rank the failure is attributed to. When Server
	// is set and the fault happened on a server→user pipe, it is the
	// user rank the server was acting for; for a fault local to a
	// server (e.g. a per-op timeout in its own wait), it is the
	// server/agent index.
	Rank int
	// Server is true when the failing endpoint was a data server acting
	// on behalf of Rank rather than the rank itself.
	Server bool
	// Op names the operation in flight (a message kind, or a wait
	// label for per-op timeouts).
	Op string
	// Kind classifies the failure.
	Kind FaultKind
}

func (e *FaultError) Error() string {
	who := fmt.Sprintf("rank %d", e.Rank)
	if e.Server {
		who += " (server side)"
	}
	return fmt.Sprintf("fault: %s: %s during %s", who, e.Kind, e.Op)
}

// attrRank attributes a fault on the src→dst pipe to a user rank: faults
// at a user endpoint belong to that rank; faults at a server endpoint are
// charged to the user rank it was talking to.
func attrRank(src, dst msg.Addr) (rank int, server bool) {
	if !src.Server() {
		return src.ID(), false
	}
	if !dst.Server() {
		return dst.ID(), true
	}
	return src.ID(), true
}

// Hash salts, one per independent fault decision.
const (
	saltJitter = 0x9e3779b97f4a7c15
	saltSpike  = 0xbf58476d1ce4e5b9
	saltDup    = 0x94d049bb133111eb
	saltLoss   = 0xd6e8feb86659fd93
	saltRetry  = 0xa0761d6478bd642f
)

const (
	defaultRetryBudget = 8
	defaultRTO         = 500 * time.Microsecond
	// maxDupsPerPair bounds the duplicates injected on one directed pair.
	// The bound is per pair rather than global so that it is independent
	// of cross-pair scheduling order.
	maxDupsPerPair = 8
)

// roll derives a 64-bit pseudo-random value for one decision about one
// message. It depends only on the plan seed, the pair and the sequence
// number — never on timing — so decisions replay across fabrics.
func (f *Faults) roll(src, dst msg.Addr, seq, salt uint64) uint64 {
	seed := uint64(f.Seed)
	if seed == 0 {
		seed = 1
	}
	x := seed ^ salt
	x = mix64(x ^ addrBits(src))
	x = mix64(x ^ addrBits(dst))
	x = mix64(x ^ seq)
	return mix64(x)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func addrBits(a msg.Addr) uint64 {
	b := uint64(uint32(a.ID()))
	if a.Server() {
		b |= 1 << 32
	}
	return b
}

// hit converts a roll into a probability decision: the roll's top 53 bits
// are a uniform fraction in [0,1), below prob with probability prob.
func hit(r uint64, prob float64) bool {
	return float64(r>>11)/(1<<53) < prob
}

// extra returns the injected extra delay of message seq on the pair and
// whether it includes a spike.
func (f *Faults) extra(src, dst msg.Addr, seq uint64) (d time.Duration, spiked bool) {
	if f.Jitter > 0 {
		d += time.Duration(f.roll(src, dst, seq, saltJitter) % uint64(f.Jitter))
	}
	if f.SpikeProb > 0 && f.SpikeDelay > 0 && hit(f.roll(src, dst, seq, saltSpike), f.SpikeProb) {
		d += f.SpikeDelay
		spiked = true
	}
	return d, spiked
}

// dup reports whether message seq should be delivered twice (before the
// per-pair bound is applied).
func (f *Faults) dup(src, dst msg.Addr, seq uint64) bool {
	return f.DupProb > 0 && hit(f.roll(src, dst, seq, saltDup), f.DupProb)
}

// The knobs whose zero value selects a default; Validate has rejected
// negative ones.
func (f *Faults) dupDelay() time.Duration { return cmp.Or(f.DupDelay, f.Jitter, time.Microsecond) }
func (f *Faults) retryBudget() int        { return cmp.Or(f.RetryBudget, defaultRetryBudget) }
func (f *Faults) rto() time.Duration      { return cmp.Or(f.RTO, defaultRTO) }
func (f *Faults) rtoCap() time.Duration   { return cmp.Or(f.RTOCap, 16*f.rto()) }
func (f *Faults) lossBurst() int          { return max(f.LossBurst, 1) }

// backoff returns the retransmit timeout after the i-th drop of one
// message: RTO doubled i times, capped at RTOCap.
func (f *Faults) backoff(i int) time.Duration {
	d, cap := f.rto(), f.rtoCap()
	for ; i > 0 && d < cap; i-- {
		d *= 2
	}
	return min(d, cap)
}

// firstCopyLost reports whether the original transmission of message seq
// is dropped. A loss event anchored at sequence s drops the first copy
// of messages s .. s+LossBurst-1 on the pair, so bursts model transient
// outages while remaining a pure function of (seed, pair, seq).
func (f *Faults) firstCopyLost(src, dst msg.Addr, seq uint64) bool {
	if f.LossProb <= 0 {
		return false
	}
	for b := 0; b < f.lossBurst(); b++ {
		s := seq - uint64(b)
		if s < 1 || s > seq { // ran past the first message on the pair
			break
		}
		if hit(f.roll(src, dst, s, saltLoss), f.LossProb) {
			return true
		}
	}
	return false
}

// retransLost reports whether retransmission attempt a (1-based) of
// message seq is dropped. Each attempt rolls independently.
func (f *Faults) retransLost(src, dst msg.Addr, seq uint64, a int) bool {
	return hit(f.roll(src, dst, seq, saltRetry^mix64(uint64(a))), f.LossProb)
}

// lossAttempts replays the ack/retransmit exchange of message seq
// analytically: it returns how many copies were dropped, the total
// retransmit-timer delay the exchange cost (the sum of the backed-off
// timeouts, folded into the message's arrival), and whether the retry
// budget was exhausted with no copy delivered. Because every per-attempt
// decision is a pure hash of (seed, pair, seq, attempt), the outcome is
// identical on every fabric.
func (f *Faults) lossAttempts(src, dst msg.Addr, seq uint64) (drops int, delay time.Duration, exhausted bool) {
	if f.LossProb <= 0 {
		return 0, 0, false
	}
	budget := f.retryBudget()
	for a := 0; a <= budget; a++ {
		var lost bool
		if a == 0 {
			lost = f.firstCopyLost(src, dst, seq)
		} else {
			lost = f.retransLost(src, dst, seq, a)
		}
		if !lost {
			return drops, delay, false
		}
		drops++
		delay += f.backoff(a)
	}
	return drops, delay, true
}

// Config assembles one pipeline.
type Config struct {
	// Params is the cost model.
	Params model.Params
	// ChargeModel selects whether the cost-model stage is active: send
	// and receive overheads are charged and the wire time contributes
	// to arrivals. The simulated fabric always charges; the channel
	// fabric charges only when latency injection is on; the TCP fabric
	// never does (it measures real socket costs).
	ChargeModel bool
	// Faults is the fault-injection plan (zero value: no faults).
	Faults Faults
	// Stats is the run's recorder (nil: a private one nobody reads).
	Stats *trace.Stats
	// Local reports whether two endpoints share a node, selecting the
	// intra-node latency. nil treats every pair as remote.
	Local func(src, dst msg.Addr) bool
}

// Delivery is one scheduled handoff of a message to the destination
// mailbox: the fabric owes the destination this message at time At.
type Delivery struct {
	Msg *msg.Message
	// At is the fabric time the message becomes available at the
	// destination. Fabrics without a modeled clock (TCP with no
	// faults) receive At equal to the send time.
	At time.Duration
	// Dup marks an injected duplicate copy.
	Dup bool
}

// pairState is the send-side state of one directed pipe.
type pairState struct {
	fifo time.Duration // last stamped arrival
	seq  uint64        // last assigned sequence number
	dups int           // duplicates injected
}

// endpoint is one actor's share of the pipeline: a send half only the
// actor writes, and a receive half only its serialized deliveries write.
// Each half applies a ResetPeer the next time its writer uses it.
type endpoint struct {
	out      map[msg.Pair]*pairState // send half
	sends    uint64                  // sends so far (the crash fault)
	rec      *trace.Actor            // the actor's send counters
	outReset int                     // ResetPeer calls out has applied

	seen    map[msg.Pair]uint64 // receive half: last admitted sequence number
	inReset int
}

// Pipeline is the shared send/receive path of one fabric instance. One
// endpoint's sends must be serialized (it is one actor's), and so must its
// deliveries (the box lock on the wall-clock fabrics, the kernel goroutine
// on sim); all else is safe for concurrent use.
type Pipeline struct {
	cfg Config
	// delays: an arrival may lie in the receiver's future (Delays).
	delays bool
	// faulty: the plan injects something; otherwise SendTo runs no fault stage.
	faulty bool

	eps    atomic.Pointer[[]*endpoint]           // by endpoint index, grown by copying
	resets atomic.Pointer[[]func(msg.Addr) bool] // ResetPeer's matches, in call order

	epoch        atomic.Uint64 // membership view epoch stamped on sends
	crashCounted atomic.Bool   // the crash was counted by the recorder
	firstCrashed atomic.Int64  // 1 + the first rank NoteCrash recorded (0: none)

	mu          sync.Mutex // serializes the writers of eps, resets and these:
	crashed     []int      // user ranks that fail-stopped, in crash order
	crashNotify func()     // fabric hook, invoked (once per crash) outside mu
}

// New builds a pipeline for one fabric instance.
func New(cfg Config) *Pipeline {
	if cfg.Stats == nil {
		cfg.Stats = trace.New()
	}
	p := &Pipeline{cfg: cfg, faulty: cfg.Faults.Enabled()}
	p.delays = cfg.ChargeModel || p.faulty
	p.eps.Store(new([]*endpoint))
	p.resets.Store(new([]func(msg.Addr) bool))
	return p
}

// Stamps reports whether messages get send and arrival times: whether the
// cost model, a fault plan or a loud recorder reads them. SendTo reads its
// clock only then, and a fabric reads its own for Inbound only then.
func (p *Pipeline) Stamps() bool { return p.delays || p.cfg.Stats.Loud() }

// Delays reports whether a stamped arrival can lie in the receiver's
// future — the cost model or a fault plan put it there — so a fabric that
// delivers early must hold the message until then. Without either, the
// arrival is the moment the message reached the receiver.
func (p *Pipeline) Delays() bool { return p.delays }

// endpoint returns a's share of the pipeline: one load, unless a is new to
// the table, which then grows to twice its size.
func (p *Pipeline) endpoint(a msg.Addr) *endpoint {
	i := a.Index()
	if t := *p.eps.Load(); i < len(t) {
		return t[i]
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := *p.eps.Load()
	if i >= len(t) {
		g := make([]*endpoint, max(i+1, 2*len(t)))
		for j := copy(g, t); j < len(g); j++ {
			g[j] = &endpoint{out: make(map[msg.Pair]*pairState), seen: make(map[msg.Pair]uint64)}
		}
		p.eps.Store(&g)
		t = g
	}
	return t[i]
}

// pair returns the send state of pr, after the endpoint's first-use set-up
// and any ResetPeer it has not applied yet. Only the sending actor calls it.
func (ep *endpoint) pair(p *Pipeline, pr msg.Pair) *pairState {
	if ep.rec == nil {
		ep.rec = p.cfg.Stats.Actor()
	}
	catchUp(p, &ep.outReset, ep.out)
	ps := ep.out[pr]
	if ps == nil {
		ps = &pairState{}
		ep.out[pr] = ps
	}
	return ps
}

// catchUp applies to one half of an endpoint the ResetPeer calls after the
// first *done: it drops the pipes they match.
func catchUp[V any](p *Pipeline, done *int, pipes map[msg.Pair]V) {
	rs := *p.resets.Load()
	if len(rs) == *done { // no write: the other half's writer reads this line
		return
	}
	for _, match := range rs[*done:] {
		maps.DeleteFunc(pipes, func(pr msg.Pair, _ V) bool { return match(pr.Src()) || match(pr.Dst()) })
	}
	*done = len(rs)
}

// Faults returns the active fault plan.
func (p *Pipeline) Faults() Faults { return p.cfg.Faults }

// SetEpoch installs the membership view epoch stamped on every
// subsequent send. Elastic fabrics bump it on a view change; messages
// already in flight carry the old epoch and are rejected by Inbound,
// which is what fences out traffic from deposed incarnations.
func (p *Pipeline) SetEpoch(e uint64) { p.epoch.Store(e) }

// ResetPeer clears the sequencing state of every directed pipe whose
// source or destination endpoint matches. A respawned incarnation
// restarts its sequence numbers at 1, so survivors must forget both the
// receive-side dedup watermark (or every message from the newcomer
// would be suppressed as a duplicate) and the send-side counter (so the
// newcomer's fresh watermark admits them). Each endpoint applies the reset
// before its next send or delivery, so a send on a matched pipe is wholly
// before the reset or wholly after it.
func (p *Pipeline) ResetPeer(match func(msg.Addr) bool) {
	p.mu.Lock()
	rs := append(slices.Clone(*p.resets.Load()), match)
	p.resets.Store(&rs)
	p.mu.Unlock()
}

// SetCrashNotify installs the fabric's crash broadcast: it is invoked
// once per NoteCrash, outside the pipeline's locks, so the fabric can
// wake blocked waiters (condition variables, kernel re-checks) that
// must now observe the crash instead of spinning on a dead peer.
func (p *Pipeline) SetCrashNotify(fn func()) {
	p.mu.Lock()
	p.crashNotify = fn
	p.mu.Unlock()
}

// NoteCrash records that a user rank fail-stopped. The crash registry
// is how survivors learn about a dead peer: crash-aware waits consult
// FirstCrashed to convert an otherwise-unbounded spin into a
// rank-attributed FaultCrash, and the lease lock's repair path skips
// registered ranks when splicing the queue. Idempotent per rank.
func (p *Pipeline) NoteCrash(rank int) {
	p.mu.Lock()
	if slices.Contains(p.crashed, rank) {
		p.mu.Unlock()
		return
	}
	p.crashed = append(p.crashed, rank)
	p.firstCrashed.CompareAndSwap(0, int64(rank)+1)
	fn := p.crashNotify
	p.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// FirstCrashed returns the first rank recorded by NoteCrash, or -1
// when no rank has crashed.
func (p *Pipeline) FirstCrashed() int { return int(p.firstCrashed.Load()) - 1 }

// CrashNow builds the fail-stop error for a crash that happens outside
// the send path — the crash-while-holding fault, injected by the lock
// layer after the configured acquisition — counting it exactly once and
// registering the rank. The fabric aborts the actor with the returned
// error.
func (p *Pipeline) CrashNow(rank int, op string) *FaultError {
	p.countCrash()
	p.NoteCrash(rank)
	return &FaultError{Rank: rank, Op: op, Kind: FaultCrash}
}

// countCrash reports the run's first crash — and only the first — to the
// recorder.
func (p *Pipeline) countCrash() {
	if p.crashCounted.CompareAndSwap(false, true) {
		p.cfg.Stats.RecordFaults(trace.FaultCounts{Crashes: 1})
	}
}

// SendTo runs the outbound stage chain for m from src to dst: it charges
// the modeled send overhead through charge (when the cost model is
// active), stamps identity, sequence number, send time and arrival,
// replays the reliability stage's ack/retransmit exchange, and records
// the send. clock is read after the overhead charge so arrivals account
// for the time spent injecting, and only when the message needs stamps
// (Stamps); otherwise Sent and Arrival are 0. It then invokes emit once
// per delivery — the original, then any injected duplicate, in arrival
// order — which the fabric must hand to the destination and pass through
// Inbound there. With no fault injected the send performs zero heap
// allocations.
//
// A non-nil error is always a *FaultError — the sender's rank crashed
// (fail-stop) or the message exhausted its retransmission budget — and
// means no delivery was produced; the fabric must abort the failing
// actor with it rather than hang the destination.
func (p *Pipeline) SendTo(src, dst msg.Addr, m *msg.Message, clock func() time.Duration, charge func(time.Duration), emit func(Delivery)) error {
	if p.cfg.ChargeModel && charge != nil {
		charge(p.cfg.Params.SendOverhead)
	}
	var now time.Duration
	if p.Stamps() {
		now = clock()
	}
	ep := p.endpoint(src)
	if p.faulty && p.crashes(ep, src) {
		p.countCrash()
		return &FaultError{Rank: src.ID(), Op: m.Kind.String(), Kind: FaultCrash}
	}
	ps := ep.pair(p, msg.PairOf(src, dst))
	ps.seq++
	m.Src, m.Dst = src, dst
	m.Seq, m.Sent = ps.seq, now
	m.Epoch = p.epoch.Load()

	var wire time.Duration
	if p.cfg.ChargeModel {
		local := p.cfg.Local != nil && p.cfg.Local(src, dst)
		wire = p.cfg.Params.WireTime(m.PayloadBytes(), local)
	}
	var dup *msg.Message
	var faults trace.FaultCounts
	var delay time.Duration
	if p.faulty {
		var err error
		if dup, faults, delay, err = p.inject(ps, m, now, wire); err != nil {
			return err
		}
	} else {
		m.Arrival = ps.arrival(now, wire)
	}
	ep.rec.RecordSend(m, dup, faults, delay)
	emit(Delivery{Msg: m, At: m.Arrival})
	if dup != nil {
		emit(Delivery{Msg: dup, At: dup.Arrival, Dup: true})
	}
	return nil
}

// inject runs the fault and reliability stages on m, stamped at now with
// wire time wire: it fails the send, or sets m's arrival and returns the
// duplicate to deliver after it (nil: none), the faults the send drew and
// the extra latency they added.
func (p *Pipeline) inject(ps *pairState, m *msg.Message, now, wire time.Duration) (*msg.Message, trace.FaultCounts, time.Duration, error) {
	f := &p.cfg.Faults
	src, dst, seq := m.Src, m.Dst, m.Seq
	drops, retransDelay, exhausted := f.lossAttempts(src, dst, seq)
	if exhausted {
		rank, server := attrRank(src, dst)
		p.cfg.Stats.RecordFaults(trace.FaultCounts{Dropped: drops, Retransmits: drops - 1, RetryExhausted: 1})
		return nil, trace.FaultCounts{}, 0, &FaultError{Rank: rank, Server: server, Op: m.Kind.String(), Kind: FaultRetryExhausted}
	}
	// Every drop of a delivered message triggered exactly one
	// retransmission.
	faults := trace.FaultCounts{Dropped: drops, Retransmits: drops}
	extra, spiked := f.extra(src, dst, seq)
	if extra > 0 && f.Jitter > 0 {
		faults.Jittered = 1
	}
	if spiked {
		faults.Spiked = 1
	}
	extra += retransDelay
	m.Arrival = ps.arrival(now, wire+extra)
	if !f.dup(src, dst, seq) || ps.dups >= maxDupsPerPair {
		return nil, faults, extra, nil
	}
	ps.dups++
	c := *m // shallow copy; payload is read-only in transit
	c.Arrival = ps.arrival(now, wire+extra+f.dupDelay())
	faults.DupsInjected = 1
	return &c, faults, extra, nil
}

// crashes applies the fail-stop crash fault: when src is the crash rank,
// its CrashAfterSends-th send — and every later one — fails.
func (p *Pipeline) crashes(ep *endpoint, src msg.Addr) bool {
	f := &p.cfg.Faults
	if f.CrashAfterSends <= 0 || src.Server() || src.ID() != f.CrashRank {
		return false
	}
	ep.sends++
	return ep.sends >= uint64(f.CrashAfterSends)
}

// arrival computes the delivery time of a message sent at now with the
// given wire time, keeping arrivals monotonic per pipe: a later message
// never arrives before an earlier one, even if it is smaller or drew less
// jitter.
func (ps *pairState) arrival(now, wire time.Duration) time.Duration {
	at := now + wire
	if at < ps.fifo {
		at = ps.fifo
	}
	ps.fifo = at
	return at
}

// Inbound runs the receive-side stages on a message reaching the
// destination at fabric time now, and reports whether the message may
// enter the mailbox. Duplicates (same pair, non-increasing sequence
// number) are suppressed; admitted messages get their Arrival stamped to
// the actual arrival when the modeled one is earlier or absent — on the
// TCP fabric the only arrival its captured send is joined to — and are
// reported to the recorder. The stamp follows SendTo's rule: without
// Stamps, now is not read (a fabric may pass 0) and Arrival stays 0.
// Messages stamped with a membership view epoch older than the current
// one are rejected first: they were in flight when a view change deposed
// their sender's incarnation, and admitting them would let a dead rank's
// writes land after its replacement restored state.
func (p *Pipeline) Inbound(m *msg.Message, now time.Duration) bool {
	if m.Seq != 0 {
		if m.Epoch < p.epoch.Load() {
			p.cfg.Stats.RecordFaults(trace.FaultCounts{StaleEpochs: 1})
			return false
		}
		ep, pr := p.endpoint(m.Dst), msg.PairOf(m.Src, m.Dst)
		catchUp(p, &ep.inReset, ep.seen)
		if m.Seq <= ep.seen[pr] {
			p.cfg.Stats.RecordFaults(trace.FaultCounts{DupsSuppressed: 1})
			return false
		}
		ep.seen[pr] = m.Seq
	}
	if m.Arrival < now && p.Stamps() {
		m.Arrival = now
	}
	p.cfg.Stats.RecordArrival(m, now)
	return true
}

// RecvCharge charges the modeled receive overhead through charge when
// the cost-model stage is active.
func (p *Pipeline) RecvCharge(charge func(time.Duration)) {
	if p.cfg.ChargeModel && charge != nil {
		charge(p.cfg.Params.RecvOverhead)
	}
}
