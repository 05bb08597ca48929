// Package trace collects message and operation statistics from a running
// fabric. The paper's analytical claims (the old AllFence costs ~2(N−1)
// one-way latencies, the new barrier 2·log₂N; MCS lock hand-off takes one
// message where the hybrid lock takes two) are verified by counting
// messages here rather than only by timing.
//
// Stats is the one recorder of a run. The transport pipeline calls it
// once per send (the sending actor's Actor.RecordSend) and once per
// admission (RecordArrival), or with the fault counters of a send or copy
// that did not get through (RecordFaults); protocol layers call RecordOp
// per step. A send takes only its actor's lock, and a reader folds every
// actor's counts in. A socket link reports its writes (RecordLinkWrites).
//
// A capturing recorder keeps one stream (Stream) of sends, admissions and
// steps in the one order its mutex gave them. Events, Timeline, OpEvents,
// Fingerprint, TimelineCSV and PairCount are filters over it.
//
// A recorder is loud while it captures or feeds latency histograms, and
// quiet otherwise. Only a loud one reads message stamps or op events, so
// Loud is what the layers above ask before they take a clock reading or
// build an event for it: a quiet run's admissions and op events cost an
// atomic load.
package trace

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"armci/internal/msg"
)

// Stats is the recorder of one run: message counters, fault counters,
// and — when switched on — the captured stream and latency histograms. All
// methods are safe for concurrent use.
type Stats struct {
	mu sync.Mutex
	counts
	actors    []*Actor  // their counts are folded into counts by every reader
	writes    int       // write(2) calls of the socket link (tcp only)
	written   int64     // the encoded bytes they carried, hellos included
	stream    []OpEvent // capture mode: sends, deliveries and steps in record order
	capture   atomic.Bool
	latency   bool // feed the histograms: set by NewRun, never changed
	latByKind map[msg.Kind]*Histogram
}

// Event is one captured message: the view Events returns of a send, and
// the message an OpSend or OpDeliver record carries.
type Event struct {
	Seq      int
	Kind     msg.Kind
	Src, Dst msg.Addr
	Size     int
	// PairSeq is the per-(Src,Dst) sequence number the transport
	// pipeline stamped on the message.
	PairSeq uint64
	// Sent is the fabric time the send was initiated.
	Sent time.Duration
	// Arrival is the fabric delivery time of the message. A send record
	// carries the modeled arrival when the fabric computed one; Events
	// joins in the arrival its receiver admitted it at, so it is set on
	// every fabric — including TCP, where only the receiver knows it.
	Arrival time.Duration
	// Dup marks an injected duplicate delivery (fault injection).
	Dup bool
	// FaultDelay is the extra latency fault injection added.
	FaultDelay time.Duration
}

// OpKind classifies a record of the captured stream: a message send, or a
// step of the *semantic* history of a run — lock hand-offs, fence/barrier
// crossings, the issue and completion of fence-counted stores, and
// post-dedup deliveries. The steps are what the conformance oracles in
// internal/check consume.
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
	// OpComplete: a node's server completed one fence-counted operation
	// (Rank: origin, Node). Recorded after the memory effect and before
	// op_done advances, so in the recorded order a completion precedes
	// any barrier exit the fence algorithm justified with it.
	OpComplete
	// OpDeliver: the transport pipeline admitted a message into the
	// destination mailbox (after dedup). Its Event is the message with the
	// arrival it was admitted at; the per-pair FIFO/exactly-once oracle
	// checks that PairSeq strictly increases per directed pair.
	OpDeliver
	// OpRepair: a lease-lock waiter deposed an expired holder. Carries
	// Lock, Rank (the repairer), Prev (the deposed rank) and Epoch (the
	// new lease epoch installed by the repair CAS). From here on, releases
	// by Prev under an older epoch are stale and must not free the lock.
	OpRepair
	// OpStaleRelease: a deposed holder's release lost the epoch check and
	// was rejected (Lock, Rank: the deposed rank). It witnesses that the
	// release had no effect; an oracle treats it as a no-op.
	OpStaleRelease
	// OpCrash: a rank fail-stopped by fault injection (crash/crashheld).
	// Carries Rank, whose later lock events are excused from liveness.
	OpCrash
	// OpSend: a message, or an injected duplicate (Dup), left its sender.
	// Its Event is the message, Arrival the modeled one; Time is Sent.
	OpSend
)

var opKindNames = map[OpKind]string{
	OpAcquire: "acquire", OpRelease: "release",
	OpSyncEnter: "sync-enter", OpSyncExit: "sync-exit",
	OpIssue: "op-issue", OpComplete: "op-complete", OpDeliver: "deliver",
	OpRepair: "repair", OpStaleRelease: "stale-release", OpCrash: "crash",
	OpSend: "send",
}

func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// OpEvent is one record of the captured stream (capture mode only): a
// message send or admission, or a protocol step. All records of a run
// share one sequence: because every record goes through the collector's
// mutex at the instant the event happens, the recorded order is
// consistent with the happens-before order of the run on every fabric —
// which is what makes the order usable as a linearization witness by the
// invariant oracles, and lets a send be ordered against a lock step.
type OpEvent struct {
	// Seq is the record order, 1-based: over every record in Stream,
	// over the deliveries and steps in OpEvents.
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
	// Time is the fabric time at the record (virtual on sim, wall
	// otherwise). Diagnostic only; oracles use Seq.
	Time time.Duration
	// Event is the message of an OpSend or OpDeliver record, zero on a
	// step. Its Src, Dst and PairSeq identify the message; its own Seq
	// and Kind, which the record's shadow, are the send's number in
	// Events and the message kind.
	Event
}

// New returns an empty recorder: counters on, capture and latency
// histograms off.
func New() *Stats {
	return &Stats{counts: newCounts(), latByKind: make(map[msg.Kind]*Histogram)}
}

// NewRun returns the private recorder of one run whose results Add will
// fold into s: it feeds latency histograms, and captures events exactly
// when s does. Keeping the hot-path recorder private means runs that
// share s never contend on it and each keeps per-run counters.
func (s *Stats) NewRun() *Stats {
	r := New()
	r.latency = true
	r.capture.Store(s.capture.Load())
	return r
}

// SetCapture toggles recording of the stream of sends, deliveries and
// steps (for determinism tests, timelines and debugging); counting is
// always on. Set it before the run: a message sent while the recorder was
// quiet carries no stamps.
func (s *Stats) SetCapture(on bool) { s.capture.Store(on) }

// Loud reports whether the recorder reads what a quiet run never needs:
// message send and arrival stamps and op events. It takes no lock.
func (s *Stats) Loud() bool { return s.latency || s.capture.Load() }

// SetTimeline is SetCapture under the name latency collectors use: the
// captured sends are the timeline.
func (s *Stats) SetTimeline(on bool) { s.SetCapture(on) }

// counts is what a recorder always keeps: RecordSend's counters.
type counts struct {
	sends  int
	bytes  int64
	byKind map[msg.Kind]int
	faults FaultCounts
}

func newCounts() counts { return counts{byKind: make(map[msg.Kind]int)} }

func (c *counts) send(m *msg.Message) {
	c.sends++
	c.byKind[m.Kind]++
	c.bytes += int64(m.PayloadBytes())
}

func (c *counts) add(o *counts) {
	c.sends += o.sends
	c.bytes += o.bytes
	for k, n := range o.byKind {
		c.byKind[k] += n
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
// it takes the recorder's, which numbers the stream in one order.
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
			s.recordMsg(OpSend, m, s.sends, m.Sent)
		}
	}
	c.faults.add(f)
}

// record appends e as the stream's next record; s.mu is held. A full
// stream doubles: append would grow a long one by a quarter, copying more.
func (s *Stats) record(e OpEvent) {
	e.Seq = len(s.stream) + 1
	if len(s.stream) == cap(s.stream) {
		s.stream = slices.Grow(s.stream, len(s.stream)+64)
	}
	s.stream = append(s.stream, e)
}

// recordMsg records the send (OpSend, the recorder's send number seq) or
// the admission (OpDeliver) of m at fabric time at; s.mu is held.
func (s *Stats) recordMsg(k OpKind, m *msg.Message, seq int, at time.Duration) {
	s.record(OpEvent{Kind: k, Rank: -1, Prev: -1, Ticket: -1, Time: at, Event: Event{
		Seq: seq, Kind: m.Kind, Src: m.Src, Dst: m.Dst,
		Size: m.PayloadBytes(), PairSeq: m.Seq, Sent: m.Sent,
		Arrival: m.Arrival, Dup: m.Dup, FaultDelay: m.FaultDelay,
	}})
}

// lockFolded takes s.mu and moves every actor's counters into s's own, as
// every reader of them does first.
func (s *Stats) lockFolded() {
	s.mu.Lock()
	for _, a := range s.actors {
		a.mu.Lock()
		s.add(&a.counts)
		clear(a.byKind)
		a.counts = counts{byKind: a.byKind}
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
// at fabric time now (the pipeline's post-dedup receive stage): in capture
// mode an OpDeliver, whose arrival Events joins into the send — the only
// source of it where the sender cannot know it (TCP); on a NewRun recorder
// the latency histograms. A quiet recorder returns before its mutex.
func (s *Stats) RecordArrival(m *msg.Message, now time.Duration) {
	if !s.Loud() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capture.Load() {
		s.recordMsg(OpDeliver, m, 0, now)
	}
	if s.latency {
		histogramOf(s.latByKind, m.Kind).add(m.Arrival - m.Sent)
	}
}

// RecordOp records one protocol step (capture mode only; see OpEvent).
// Callers fill every field but Seq, which is assigned here.
// The call must be placed so that the record order witnesses the claim
// being recorded: acquires after the lock is held, releases before the
// hand-off starts, completions before they become observable. Callers
// that must read a clock or do other work to build e ask Loud first.
func (s *Stats) RecordOp(e OpEvent) {
	if !s.capture.Load() {
		return
	}
	s.mu.Lock()
	s.record(e)
	s.mu.Unlock()
}

// Add folds the finished run recorded by run into s: message and link-write
// counters, fault counters, latency histograms and — while s is capturing —
// the run's sends, joined to their arrivals and renumbered after s's own.
// Deliveries and steps stay with the run: a per-run linearization witness.
func (s *Stats) Add(run *Stats) {
	run.lockFolded()
	defer run.mu.Unlock()
	s.lockFolded()
	defer s.mu.Unlock()
	if s.capture.Load() {
		for _, e := range run.events() {
			e.Seq += s.sends
			s.record(OpEvent{Kind: OpSend, Rank: -1, Prev: -1, Ticket: -1, Time: e.Sent, Event: e})
		}
	}
	s.add(&run.counts)
	s.writes += run.writes
	s.written += run.written
	for k, h := range run.latByKind {
		histogramOf(s.latByKind, k).merge(h)
	}
}

// Stream returns a copy of the captured records — sends, deliveries and
// protocol steps — in their one recorded order.
func (s *Stats) Stream() []OpEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]OpEvent(nil), s.stream...)
}

// OpEvents returns the captured deliveries and protocol steps, numbered
// among themselves.
func (s *Stats) OpEvents() []OpEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := make([]OpEvent, 0, len(s.stream)) // one allocation: cap covers the sends it skips
	for _, e := range s.stream {
		if e.Kind != OpSend {
			e.Seq = len(ops) + 1
			ops = append(ops, e)
		}
	}
	return ops
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

// PairCount returns the number of captured messages sent from src to dst,
// injected duplicates included. It needs capture: a quiet recorder reads 0.
func (s *Stats) PairCount(src, dst msg.Addr) int {
	n := 0
	for _, e := range s.Events() {
		if e.Src == src && e.Dst == dst {
			n++
		}
	}
	return n
}

// Events returns the captured sends, each joined to its arrival.
func (s *Stats) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events()
}

// events is the send view of the stream; s.mu is held. A delivery's
// arrival lands on the latest send of its (pair, PairSeq) recorded before
// it that is no injected duplicate and has a PairSeq — so a duplicate
// admitted first stands for its original, and a restarted pair joins its
// new sends.
func (s *Stats) events() []Event {
	type key struct {
		pr  msg.Pair
		seq uint64
	}
	var events []Event
	latest := make(map[key]int) // index into events
	for _, e := range s.stream {
		k := key{msg.PairOf(e.Src, e.Dst), e.PairSeq}
		switch e.Kind {
		case OpSend:
			if !e.Dup && e.PairSeq != 0 {
				latest[k] = len(events)
			}
			events = append(events, e.Event)
		case OpDeliver:
			if i, ok := latest[k]; ok {
				events[i].Arrival = e.Arrival
			}
		}
	}
	return events
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

// Fingerprint returns a deterministic digest of the captured sends, used
// by determinism and replay tests to compare two runs. It is a pure
// function of the global send order and, per message, of (kind, src,
// dst, payload size, per-pair sequence number, injected fault delay,
// duplicate marker): two runs with different fault seeds differ even when
// they exchange the same messages, and two runs that exchange the same
// messages in the same send order agree — across fabrics, and across sim
// schedule seeds for workloads whose message order is data-dependent.
// Arrival times (virtual on sim, wall elsewhere) and the deliveries and
// steps beside the sends are left out. Changing the digested fields or
// their encoding breaks those tests.
func (s *Stats) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, e := range s.stream {
		if e.Kind == OpSend {
			appendFingerprint(&b, e.Event, e.Event.Seq)
		}
	}
	return b.String()
}

// FingerprintEvents digests an arbitrary event slice with Fingerprint's
// per-event encoding, numbered by position in the slice rather than by
// the recorded Seq, so the digest of a filtered sub-stream compares to a
// capture that only ever saw it — e.g. a cluster worker's local trace,
// whose sends are the global ones restricted to sources on its node.
func FingerprintEvents(events []Event) string {
	var b strings.Builder
	for i, e := range events {
		appendFingerprint(&b, e, i+1)
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
