// Package trace collects message and operation statistics from a running
// fabric. The paper's analytical claims (the old AllFence costs ~2(N−1)
// one-way latencies, the new barrier 2·log₂N; MCS lock hand-off takes one
// message where the hybrid lock takes two) are verified by counting
// messages here rather than only by timing.
//
// Stats is the one recorder of a run. The transport pipeline calls it
// once per send (the sending actor's Actor.RecordSend) and once per
// admission (RecordArrival), or once with the fault counters of a send or
// copy that did not get through (RecordFaults). A send takes only its
// actor's lock, which no other sender takes, and a reader folds every
// actor's counts in; a capturing recorder takes its own mutex for a send,
// to number the events in one order. A socket link reports its write(2)
// count when it comes down (RecordLinkWrites). The captured events carry
// Sent and the actual Arrival, so they double as the per-message timeline.
//
// A recorder is loud while it captures or feeds latency histograms, and
// quiet otherwise. Only a loud one reads message stamps or op events, so
// Loud is what the layers above ask before they take a clock reading or
// build an event for it: a quiet run's admissions and op events cost an
// atomic load.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"armci/internal/msg"
)

// Stats is the recorder of one run: message counters, fault counters,
// and — when switched on — captured events and latency histograms. All
// methods are safe for concurrent use.
type Stats struct {
	mu sync.Mutex
	counts
	actors    []*Actor // their counts are folded into counts by every reader
	writes    int      // write(2) calls of the socket link (tcp only)
	written   int64    // the encoded bytes they carried, hellos included
	events    []Event
	byKey     map[eventKey]int // (pair,pairSeq) -> events index, capture mode
	opEvents  []OpEvent
	capture   atomic.Bool
	latency   bool // feed the histograms (NewRun recorders only)
	latByKind map[msg.Kind]*Histogram
	latByPair map[msg.Pair]*Histogram
	loud      atomic.Bool // capture || latency, readable without mu
}

type eventKey struct {
	pair msg.Pair
	seq  uint64
}

// Event is one recorded message send (capture mode only).
type Event struct {
	Seq  int
	Kind msg.Kind
	Src  msg.Addr
	Dst  msg.Addr
	Size int
	// PairSeq is the per-(Src,Dst) sequence number the transport
	// pipeline stamped on the message.
	PairSeq uint64
	// Sent is the fabric time the send was initiated.
	Sent time.Duration
	// Arrival is the fabric delivery time of the message. The send-side
	// record carries the modeled arrival when the fabric computed one;
	// RecordArrival back-annotates the actual arrival, so it is
	// populated on every fabric — including TCP, where the arrival is
	// only known at the receiver.
	Arrival time.Duration
	// Dup marks an injected duplicate delivery (fault injection).
	Dup bool
	// FaultDelay is the extra latency fault injection added.
	FaultDelay time.Duration
}

// OpKind classifies a protocol-level operation event. Unlike message
// Events — which describe the wire — op events describe the *semantic*
// history of a run: lock hand-offs, fence/barrier crossings, the issue
// and completion of fence-counted stores, and post-dedup deliveries.
// They are what the conformance oracles in internal/check consume.
type OpKind uint8

const (
	// OpAcquire: a rank acquired a lock (recorded after the acquire
	// completes, before the critical section begins). Carries Lock,
	// Rank, and — per algorithm — Prev (MCS predecessor rank, -1 when
	// the lock was taken free) or Ticket (hybrid/ticket lock number).
	OpAcquire OpKind = iota + 1
	// OpRelease: a rank began releasing a lock (recorded before the
	// release protocol starts).
	OpRelease
	// OpSyncEnter: a rank entered a combined fence+barrier operation
	// (Sync.Barrier, SyncOld, or a harness-provided variant). Carries
	// Rank and the rank's Epoch (1-based, counted per rank).
	OpSyncEnter
	// OpSyncExit: a rank returned from the fence+barrier of Epoch.
	OpSyncExit
	// OpIssue: a rank issued one fence-counted operation (put,
	// accumulate, fire-and-forget store) to a remote node. Carries Rank
	// (origin) and Node (destination).
	OpIssue
	// OpComplete: a node's server completed one fence-counted operation.
	// Recorded after the memory effect is applied and before the op_done
	// counter is advanced, so in the recorded order a completion always
	// precedes any barrier exit that the fence algorithm justified with
	// it. Carries Rank (origin) and Node.
	OpComplete
	// OpDeliver: the transport pipeline admitted a message into the
	// destination mailbox (after duplicate suppression). Carries Src,
	// Dst and PairSeq; the per-pair FIFO/exactly-once oracle checks that
	// PairSeq is strictly increasing per directed pair.
	OpDeliver
	// OpRepair: a lease-lock waiter deposed an expired holder. Carries
	// Lock, Rank (the repairer), Prev (the deposed rank) and Epoch (the
	// new lease epoch installed by the repair CAS). From this event on,
	// releases by Prev under an older epoch are stale and must not free
	// the lock.
	OpRepair
	// OpStaleRelease: a deposed holder's release lost the epoch check
	// and was rejected. Carries Lock and Rank (the deposed rank). The
	// event witnesses that the release had no effect; an oracle treats
	// it as a no-op in the hand-off order.
	OpStaleRelease
	// OpCrash: a rank fail-stopped by fault injection (crash/crashheld).
	// Carries Rank. Later lock events involving Rank are excused from
	// liveness accounting.
	OpCrash
)

var opKindNames = map[OpKind]string{
	OpAcquire: "acquire", OpRelease: "release",
	OpSyncEnter: "sync-enter", OpSyncExit: "sync-exit",
	OpIssue: "op-issue", OpComplete: "op-complete", OpDeliver: "deliver",
	OpRepair: "repair", OpStaleRelease: "stale-release", OpCrash: "crash",
}

func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// OpEvent is one recorded protocol-level event (capture mode only). All
// op events of a run share one global sequence: because every record
// goes through the collector's mutex at the instant the event happens,
// the recorded order is consistent with the happens-before order of the
// run on every fabric — which is what makes the order usable as a
// linearization witness by the invariant oracles.
type OpEvent struct {
	// Seq is the global record order, 1-based, shared by all op events.
	Seq int
	// Kind classifies the event.
	Kind OpKind
	// Rank is the acting user rank (the origin for OpIssue/OpComplete).
	Rank int
	// Node is the destination node of OpIssue/OpComplete.
	Node int
	// Lock is the lock index of OpAcquire/OpRelease.
	Lock int
	// Prev is the MCS predecessor rank of an OpAcquire (-1: lock was
	// free; also -1 for non-queue algorithms).
	Prev int
	// Ticket is the ticket number of a hybrid/ticket OpAcquire (-1 for
	// other algorithms).
	Ticket int64
	// Epoch is the per-rank sync epoch of OpSyncEnter/OpSyncExit.
	Epoch int
	// Src, Dst and PairSeq identify the delivered message of OpDeliver.
	Src, Dst msg.Addr
	PairSeq  uint64
	// Time is the fabric time at the record (virtual on sim, wall
	// otherwise). Diagnostic only; oracles use Seq.
	Time time.Duration
}

// New returns an empty recorder: counters on, capture and latency
// histograms off.
func New() *Stats {
	return &Stats{
		counts:    newCounts(),
		byKey:     make(map[eventKey]int),
		latByKind: make(map[msg.Kind]*Histogram),
		latByPair: make(map[msg.Pair]*Histogram),
	}
}

// NewRun returns the private recorder of one run whose results Add will
// fold into s: it feeds latency histograms, and captures events exactly
// when s does. Keeping the hot-path recorder private means runs that
// share s never contend on it and each keeps per-run counters.
func (s *Stats) NewRun() *Stats {
	r := New()
	r.latency = true
	r.loud.Store(true)
	r.capture.Store(s.capture.Load())
	return r
}

// SetCapture toggles recording of individual send events and op events
// (for determinism tests, timelines and debugging); counting is always
// on. Set it before the run: a message sent while the recorder was quiet
// carries no stamps.
func (s *Stats) SetCapture(on bool) {
	s.mu.Lock()
	s.capture.Store(on)
	s.loud.Store(on || s.latency)
	s.mu.Unlock()
}

// Loud reports whether the recorder reads what a quiet run never needs:
// message send and arrival stamps and op events. It takes no lock.
func (s *Stats) Loud() bool { return s.loud.Load() }

// SetTimeline is SetCapture under the name latency collectors use: the
// captured events are the timeline.
func (s *Stats) SetTimeline(on bool) { s.SetCapture(on) }

// counts is what a recorder always keeps: RecordSend's counters.
type counts struct {
	sends   int
	bytes   int64
	byKind  map[msg.Kind]int
	perPair map[msg.Pair]int
	faults  FaultCounts
}

func newCounts() counts {
	return counts{byKind: make(map[msg.Kind]int), perPair: make(map[msg.Pair]int)}
}

func (c *counts) send(m *msg.Message) {
	c.sends++
	c.byKind[m.Kind]++
	c.bytes += int64(m.PayloadBytes())
	c.perPair[msg.PairOf(m.Src, m.Dst)]++
}

func (c *counts) add(o *counts) {
	c.sends += o.sends
	c.bytes += o.bytes
	for k, n := range o.byKind {
		c.byKind[k] += n
	}
	for pr, n := range o.perPair {
		c.perPair[pr] += n
	}
	c.faults.add(o.faults)
}

// Actor is one sending actor's share of a recorder's counters.
type Actor struct {
	s  *Stats
	mu sync.Mutex // taken by the actor and by readers folding it in
	counts
}

// Actor returns a new share of s's counters for one sending actor.
func (s *Stats) Actor() *Actor {
	a := &Actor{s: s, counts: newCounts()}
	s.mu.Lock()
	s.actors = append(s.actors, a)
	s.mu.Unlock()
	return a
}

// RecordSend accounts one send of a's actor: the message m, its injected
// duplicate dup (nil when there is none), and the fault decisions the send
// drew. It takes only the actor's lock, unless the recorder captures: then
// it takes the recorder's, which numbers the events in one order.
func (a *Actor) RecordSend(m, dup *msg.Message, f FaultCounts) {
	s, c, mu := a.s, &a.counts, &a.mu
	capture := s.capture.Load()
	if capture {
		c, mu = &s.counts, &s.mu
	}
	mu.Lock()
	defer mu.Unlock()
	for _, m := range [2]*msg.Message{m, dup} {
		if m == nil {
			continue
		}
		c.send(m)
		if capture {
			s.events = append(s.events, Event{
				Seq: s.sends, Kind: m.Kind, Src: m.Src, Dst: m.Dst,
				Size: m.PayloadBytes(), PairSeq: m.Seq, Sent: m.Sent,
				Arrival: m.Arrival, Dup: m.Dup, FaultDelay: m.FaultDelay,
			})
			if !m.Dup && m.Seq != 0 {
				s.byKey[eventKey{msg.PairOf(m.Src, m.Dst), m.Seq}] = len(s.events) - 1
			}
		}
	}
	c.faults.add(f)
}

// lockFolded takes s.mu and moves every actor's counters into s's own, as
// every reader of them does first.
func (s *Stats) lockFolded() {
	s.mu.Lock()
	for _, a := range s.actors {
		a.mu.Lock()
		s.add(&a.counts)
		clear(a.byKind)
		clear(a.perPair)
		a.counts = counts{byKind: a.byKind, perPair: a.perPair}
		a.mu.Unlock()
	}
}

// RecordFaults accounts fault outcomes that produced no send or no
// admission: a crashed or retry-exhausted send, a suppressed duplicate,
// a stale-epoch rejection.
func (s *Stats) RecordFaults(f FaultCounts) {
	s.mu.Lock()
	s.faults.add(f)
	s.mu.Unlock()
}

// RecordLinkWrites accounts writes of a socket link and the encoded bytes
// they carried: a burst that rode in one write counts once here and once
// per frame in RecordSend. The link counts where it writes and reports
// when it comes down.
func (s *Stats) RecordLinkWrites(writes, bytes int) {
	s.mu.Lock()
	s.writes += writes
	s.written += int64(bytes)
	s.mu.Unlock()
}

// RecordArrival accounts the admission of m into the destination mailbox
// at fabric time now (the pipeline's post-dedup receive stage). In
// capture mode it back-annotates the send event of m with the arrival
// the receive side observed — on fabrics where the sender cannot know it
// (TCP), this is what populates Event.Arrival — and records the
// OpDeliver event; on a NewRun recorder it feeds the latency histograms.
// A quiet recorder does neither, and returns before its mutex.
func (s *Stats) RecordArrival(m *msg.Message, now time.Duration) {
	if !s.Loud() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pr := msg.PairOf(m.Src, m.Dst)
	if s.capture.Load() {
		if i, ok := s.byKey[eventKey{pr, m.Seq}]; ok {
			s.events[i].Arrival = m.Arrival
		}
		s.opLocked(OpEvent{
			Kind: OpDeliver, Rank: -1, Prev: -1, Ticket: -1,
			Src: m.Src, Dst: m.Dst, PairSeq: m.Seq, Time: now,
		})
	}
	if s.latency {
		lat := m.Arrival - m.Sent
		histogramOf(s.latByKind, m.Kind).add(lat)
		histogramOf(s.latByPair, pr).add(lat)
	}
}

// RecordOp records one protocol-level event (capture mode only; see
// OpEvent). Callers fill every field but Seq, which is assigned here.
// The call must be placed so that the record order witnesses the claim
// being recorded: acquires after the lock is held, releases before the
// hand-off starts, completions before they become observable. Callers
// that must read a clock or do other work to build e ask Loud first.
func (s *Stats) RecordOp(e OpEvent) {
	if !s.Loud() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capture.Load() {
		s.opLocked(e)
	}
}

func (s *Stats) opLocked(e OpEvent) {
	e.Seq = len(s.opEvents) + 1
	s.opEvents = append(s.opEvents, e)
}

// Add folds the finished run recorded by run into s: message and link-write
// counters, fault counters, latency histograms and — while s is capturing —
// the captured events, renumbered to continue s's own send count. Op events
// stay with the run; they are a per-run linearization witness.
func (s *Stats) Add(run *Stats) {
	run.lockFolded()
	defer run.mu.Unlock()
	s.lockFolded()
	defer s.mu.Unlock()
	if s.capture.Load() {
		for _, e := range run.events {
			e.Seq += s.sends
			s.events = append(s.events, e)
		}
	}
	s.add(&run.counts)
	s.writes += run.writes
	s.written += run.written
	for k, h := range run.latByKind {
		histogramOf(s.latByKind, k).merge(h)
	}
	for pr, h := range run.latByPair {
		histogramOf(s.latByPair, pr).merge(h)
	}
}

// OpEvents returns a copy of the recorded protocol-level events.
func (s *Stats) OpEvents() []OpEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]OpEvent(nil), s.opEvents...)
}

// Sends returns the total number of messages sent.
func (s *Stats) Sends() int {
	s.lockFolded()
	defer s.mu.Unlock()
	return s.sends
}

// Count returns the number of messages of kind k.
func (s *Stats) Count(k msg.Kind) int {
	s.lockFolded()
	defer s.mu.Unlock()
	return s.byKind[k]
}

// Bytes returns the total modeled payload bytes sent.
func (s *Stats) Bytes() int64 {
	s.lockFolded()
	defer s.mu.Unlock()
	return s.bytes
}

// LinkWrites returns how many writes the socket link made and the encoded
// bytes they carried; both are zero on fabrics without a socket.
func (s *Stats) LinkWrites() (writes int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.written
}

// PairCount returns the number of messages sent from src to dst.
func (s *Stats) PairCount(src, dst msg.Addr) int {
	s.lockFolded()
	defer s.mu.Unlock()
	return s.perPair[msg.PairOf(src, dst)]
}

// Events returns a copy of the captured send events.
func (s *Stats) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Summary formats the per-kind counters, sorted by kind, for reports.
func (s *Stats) Summary() string {
	s.lockFolded()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%d msgs, %d bytes:", s.sends, s.bytes)
	for _, k := range sortedKinds(s.byKind) {
		fmt.Fprintf(&b, " %s=%d", k, s.byKind[k])
	}
	return b.String()
}

// Fingerprint returns a deterministic digest of the captured event
// stream, used by determinism tests to compare two runs. Besides the
// message identity it folds in the per-pair sequence number and the
// fault-injection metadata (injected delay, duplicate marker), so that
// two runs with different fault seeds fingerprint differently even when
// they exchange the same messages — and two runs with the same seed
// fingerprint identically across fabrics when their send order agrees.
// Arrival times are deliberately excluded: they are virtual on the
// simulated fabric and wall-clock on the concurrent ones.
//
// Stability guarantee: the fingerprint is a pure function of the global
// send order and, per message, of (kind, src, dst, payload size,
// per-pair sequence number, injected fault delay, duplicate marker).
// It does not depend on the fabric, the clock, the schedule seed, or
// the op-event stream. Two runs that exchange the same messages in the
// same global send order therefore fingerprint identically — across
// fabrics, and across sim schedule seeds for workloads whose message
// order is data-dependent rather than schedule-dependent. Determinism
// and replay tests rely on this; changing the digested fields or their
// encoding is a breaking change to those tests.
func (s *Stats) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, e := range s.events {
		appendFingerprint(&b, e, e.Seq)
	}
	return b.String()
}

// FingerprintEvents digests an arbitrary event slice with the same
// per-event encoding as Fingerprint, but numbered by position in the
// slice rather than by the recorded Seq. That makes the digest of a
// filtered sub-stream comparable to a capture that only ever saw that
// sub-stream — e.g. a single cluster worker's local trace, whose send
// events are exactly the global stream restricted to sources on its
// node.
func FingerprintEvents(events []Event) string {
	var b strings.Builder
	for i, e := range events {
		appendFingerprint(&b, e, i+1)
	}
	return b.String()
}

// FingerprintOpEvents digests a protocol-level event slice, numbered by
// position like FingerprintEvents. It folds in the fields the lock
// oracles reason about — kind, rank, lock, predecessor, ticket, epoch —
// and deliberately excludes Time (virtual on sim, wall elsewhere) and
// the global Seq (which counts events of every kind, so a filtered lock
// sub-stream would inherit unrelated interleaving). Two runs whose lock
// hand-off history agrees fingerprint identically across fabrics and
// schedule seeds.
func FingerprintOpEvents(events []OpEvent) string {
	var b strings.Builder
	for i, e := range events {
		fmt.Fprintf(&b, "%d:%s:r%d:l%d:p%d:t%d:e%d;",
			i+1, e.Kind, e.Rank, e.Lock, e.Prev, e.Ticket, e.Epoch)
	}
	return b.String()
}

func appendFingerprint(b *strings.Builder, e Event, seq int) {
	fmt.Fprintf(b, "%d:%s:%v>%v:%d", seq, e.Kind, e.Src, e.Dst, e.Size)
	if e.PairSeq != 0 {
		fmt.Fprintf(b, ":q%d", e.PairSeq)
	}
	if e.FaultDelay != 0 {
		fmt.Fprintf(b, ":f%d", e.FaultDelay.Nanoseconds())
	}
	if e.Dup {
		b.WriteString(":dup")
	}
	b.WriteByte(';')
}
