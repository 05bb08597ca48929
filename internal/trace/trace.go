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
// actor's counts in. A socket link reports its writes (RecordLinkWrites),
// a wall-clock fabric its actors' parks (RecordParks).
//
// A capturing recorder keeps one spine of sends, admissions and steps in
// the one order its mutex gave them. Records reads it in place; Timeline
// and TimelineCSV are its sends, each joined to its arrival.
//
// A recorder is loud while it captures or feeds latency histograms, and
// quiet otherwise. Only a loud one reads message stamps or op events, so
// Loud is what the layers above ask before they take a clock reading or
// build an event for it: a quiet run's admissions and op events cost an
// atomic load.
package trace

import (
	"fmt"
	"iter"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"armci/internal/msg"
)

// Stats is the recorder of one run: message counters, fault counters,
// and — when switched on — the captured spine and latency histograms. All
// methods are safe for concurrent use.
type Stats struct {
	mu sync.Mutex
	counts
	actors    []*Actor // their counts are folded into counts by every reader
	writes    int      // write(2) calls of the socket link (tcp only)
	written   int64    // the encoded bytes they carried, hellos included
	parks     int      // times a wall-clock actor parked (RecordParks)
	futile    int      // wake-ups from a park that found the wait unmet
	spine     []*chunk // capture mode: sends, deliveries and steps in record order
	recorded  int      // records in spine
	capture   atomic.Bool
	latency   bool // feed the histograms: set by NewRun, never changed
	latByKind map[msg.Kind]*Histogram
}

// Event is one captured message: the view Timeline returns of a send, and
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
	// carries the modeled arrival when the fabric computed one; Timeline
	// joins in the arrival its receiver admitted it at, so it is set on
	// every fabric — including TCP, where only the receiver knows it.
	Arrival time.Duration
	// Dup marks an injected duplicate delivery (fault injection), and
	// FaultDelay is the extra latency fault injection added. A send
	// record carries both, as the fault stage reported them beside the
	// message; a delivery record neither.
	Dup        bool
	FaultDelay time.Duration
}

// OpKind classifies a record of the captured spine: a message send, or a
// step of the *semantic* history of a run — lock hand-offs, fence/barrier
// crossings, the issue and completion of fence-counted stores, and
// post-dedup deliveries. The steps are what the conformance oracles in
// internal/check consume.
type OpKind uint8

const (
	// OpAcquire: a rank acquired a lock (recorded after the acquire
	// completes, before the critical section begins). Carries Lock, Rank,
	// Prev (MCS predecessor rank; -1 when the lock was taken free or the
	// lock has tickets), Ticket (hybrid/ticket number, else -1) and Epoch
	// (the lease epoch registered under, else 0).
	OpAcquire OpKind = iota + 1
	// OpRelease: a rank began releasing a lock (recorded before the
	// release hands the lock on, and for the lease lock before its epoch
	// CAS). Carries Lock, Rank and Epoch (the lease epoch of the tenure,
	// else 0).
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
	// was rejected (Lock, Rank: the deposed rank, Epoch: the stale epoch
	// its OpRelease carried). It witnesses that the release had no effect.
	OpStaleRelease
	// OpCrash: a rank fail-stopped holding a lock (crashheld). Carries
	// Rank.
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

// OpEvent is one record of the captured spine (capture mode only), as
// Records yields it: a message send or admission, or a protocol step. All
// records of a run share one order: because every record goes through the
// collector's mutex at the instant the event happens, the recorded order
// is consistent with the happens-before order of the run on every fabric —
// which is what makes the order usable as a linearization witness by the
// invariant oracles, and lets a send be ordered against a lock step. A
// step carries Rank, Time and the fields its kind names (see OpKind); the
// others are zero.
type OpEvent struct {
	// Seq numbers a record within its view, from 1: a send among the
	// sends (as Timeline does), any other record among the others.
	Seq int
	// Kind classifies the event.
	Kind OpKind
	// Rank is the acting user rank (the origin for OpIssue/OpComplete).
	Rank int
	// Node is the destination node of OpIssue/OpComplete.
	Node int
	// Lock is the lock index of a lock step.
	Lock int
	// Prev is the predecessor rank of an OpAcquire (see OpAcquire) or the
	// deposed rank of an OpRepair.
	Prev int
	// Ticket is the ticket number of an OpAcquire.
	Ticket int64
	// Epoch is the per-rank sync epoch of OpSyncEnter/OpSyncExit, or a
	// lease epoch: the one an OpAcquire claimed, an OpRelease or
	// OpStaleRelease presented, an OpRepair installed.
	Epoch int
	// Time is the fabric time at the record (virtual on sim, wall
	// otherwise): a send's is its Sent, a delivery's its admission.
	Time time.Duration
	// Event is the message of an OpSend or OpDeliver record, zero on a
	// step; a delivery's carries no Sent, Dup or FaultDelay. Its Src, Dst and PairSeq
	// identify the message; its own Seq and Kind, which the record's
	// shadow, are the send's number and the message kind.
	Event
}

// record is how the spine stores an OpEvent, in 80 bytes: ranks, nodes,
// locks, epochs, sizes and send numbers fit in 32 bits, endpoints in a
// msg.Pair, and a send's Sent is its time.
type record struct {
	kind                                     OpKind
	msgKind                                  msg.Kind
	dup                                      bool
	seq, rank, node, lock, prev, epoch, size int32
	ticket                                   int64
	pair                                     msg.Pair
	pairSeq                                  uint64
	time, arrival, faultDelay                time.Duration
}

// chunkLen is how many records a chunk of the spine holds. The spine grows
// a chunk at a time and never moves a record: no reader needs one slice.
const chunkLen = 256

type chunk [chunkLen]record

// storeMsg is the record of m's send (k = OpSend) or admission at time at.
func storeMsg(k OpKind, m *Event, at time.Duration) record {
	return record{
		kind: k, msgKind: m.Kind, dup: m.Dup, seq: int32(m.Seq), size: int32(m.Size),
		time: at, pair: msg.PairOf(m.Src, m.Dst), pairSeq: m.PairSeq,
		arrival: m.Arrival, faultDelay: m.FaultDelay,
	}
}

// message writes the message of r, an OpSend or OpDeliver, into e (in
// place: a 168-byte OpEvent returned by value costs several copies).
func (r *record) message(e *Event) {
	e.Seq, e.Kind, e.Src, e.Dst = int(r.seq), r.msgKind, r.pair.Src(), r.pair.Dst()
	e.Size, e.PairSeq, e.Arrival, e.Dup, e.FaultDelay = int(r.size), r.pairSeq, r.arrival, r.dup, r.faultDelay
	e.Sent = 0
	if r.kind == OpSend {
		e.Sent = r.time
	}
}

// view writes r into e as Records yields it, but for Seq.
func (r *record) view(e *OpEvent) {
	e.Kind, e.Rank, e.Node, e.Lock = r.kind, int(r.rank), int(r.node), int(r.lock)
	e.Prev, e.Ticket, e.Epoch, e.Time = int(r.prev), r.ticket, int(r.epoch), r.time
	r.message(&e.Event) // a step stores no message: it reads as zero
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

// SetTimeline toggles capture of the spine (for the oracles, timelines
// and determinism tests); counting is always on. Set it before the run: a
// message sent while the recorder was quiet carries no stamps.
func (s *Stats) SetTimeline(on bool) { s.capture.Store(on) }

// Loud reports whether the recorder reads what a quiet run never needs:
// message send and arrival stamps and op events. It takes no lock.
func (s *Stats) Loud() bool { return s.latency || s.capture.Load() }

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
// duplicate dup (nil when there is none), the fault decisions the send drew
// and the extra latency they added to m and dup. It takes only the actor's
// lock, unless the recorder captures: then it takes the recorder's, which
// puts the spine in one order.
func (a *Actor) RecordSend(m, dup *msg.Message, f FaultCounts, delay time.Duration) {
	s, c, mu := a.s, &a.counts, &a.mu
	capture := s.capture.Load()
	if capture {
		c, mu = &s.counts, &s.mu
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range [2]*msg.Message{m, dup} {
		if m == nil {
			continue
		}
		c.send(m)
		if capture {
			s.recordMsg(OpSend, m, s.sends, m.Sent, i == 1, delay)
		}
	}
	c.faults.add(f)
}

// record appends r to the spine; s.mu is held.
func (s *Stats) record(r record) {
	if s.recorded == len(s.spine)*chunkLen {
		s.spine = append(s.spine, new(chunk))
	}
	s.spine[s.recorded/chunkLen][s.recorded%chunkLen] = r
	s.recorded++
}

// recordMsg records the send (OpSend, the recorder's send number seq; dup
// for an injected duplicate, delay the fault stage's) or the admission
// (OpDeliver) of m at fabric time at; s.mu is held.
func (s *Stats) recordMsg(k OpKind, m *msg.Message, seq int, at time.Duration, dup bool, delay time.Duration) {
	s.record(storeMsg(k, &Event{
		Seq: seq, Kind: m.Kind, Src: m.Src, Dst: m.Dst, Size: m.PayloadBytes(),
		PairSeq: m.Seq, Arrival: m.Arrival, Dup: dup, FaultDelay: delay,
	}, at))
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

// RecordParks accounts the parks of a wall-clock fabric's actors, the
// goroutine hand-offs a run paid for: parks times an actor waited in its
// box, futile of which the wake-up found what it waited for still unmet.
// The fabric reports them when its actors are done.
func (s *Stats) RecordParks(parks, futile int) {
	s.mu.Lock()
	s.parks += parks
	s.futile += futile
	s.mu.Unlock()
}

// RecordArrival accounts the admission of m into the destination mailbox
// at fabric time now (the pipeline's post-dedup receive stage): in capture
// mode an OpDeliver, whose arrival Timeline joins into the send — the only
// source of it where the sender cannot know it (TCP); on a NewRun recorder
// the latency histograms. A quiet recorder returns before its mutex.
func (s *Stats) RecordArrival(m *msg.Message, now time.Duration) {
	if !s.Loud() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capture.Load() {
		s.recordMsg(OpDeliver, m, 0, now, false, 0)
	}
	if s.latency {
		histogramOf(s.latByKind, m.Kind).add(m.Arrival - m.Sent)
	}
}

// RecordOp records one protocol step (capture mode only): e's Kind, Rank,
// Time and the fields its kind carries (see OpKind); Seq is the reader's.
// The call must be placed so that the record order witnesses the claim
// being recorded: acquires after the lock is held, releases before the
// hand-off starts, completions before they become observable. Callers
// that must read a clock or do other work to build e ask Loud first.
func (s *Stats) RecordOp(e OpEvent) {
	if !s.capture.Load() {
		return
	}
	s.mu.Lock()
	s.record(record{
		kind: e.Kind, rank: int32(e.Rank), node: int32(e.Node), lock: int32(e.Lock),
		prev: int32(e.Prev), epoch: int32(e.Epoch), ticket: e.Ticket, time: e.Time,
	})
	s.mu.Unlock()
}

// Add folds the finished run recorded by run into s: message, link-write
// and park counters, fault counters, latency histograms and — while s is capturing —
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
			s.record(storeMsg(OpSend, &e, e.Sent))
		}
	}
	s.add(&run.counts)
	s.writes += run.writes
	s.written += run.written
	s.parks += run.parks
	s.futile += run.futile
	for k, h := range run.latByKind {
		histogramOf(s.latByKind, k).merge(h)
	}
}

// Records yields the captured spine — sends, deliveries and protocol
// steps — in its one recorded order, each numbered within its view (see
// OpEvent.Seq). It reads the records there when the loop starts, in place:
// a record never moves and is never rewritten, so the lock is held only
// to count them, and a loop body may call the recorder.
func (s *Stats) Records() iter.Seq[OpEvent] {
	return func(yield func(OpEvent) bool) {
		s.mu.Lock()
		spine, n := s.spine, s.recorded
		s.mu.Unlock()
		var e OpEvent
		ops := 0
		for i := range n {
			spine[i/chunkLen][i%chunkLen].view(&e)
			e.Seq = e.Event.Seq // a send keeps its send number
			if e.Kind != OpSend {
				ops++
				e.Seq = ops
			}
			if !yield(e) {
				return
			}
		}
	}
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

// Timeline returns the captured sends, each joined to its arrival: Sent
// and the actual Arrival.
func (s *Stats) Timeline() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events()
}

// events is the send view of the spine; s.mu is held. A delivery's
// arrival lands on the latest send of its (pair, PairSeq) recorded before
// it that is no injected duplicate and has a PairSeq — so a duplicate
// admitted first stands for its original, and a restarted pair joins its
// new sends.
func (s *Stats) events() []Event {
	var events []Event
	latest := make(map[[2]uint64]int) // (pair, PairSeq) -> index into events
	for i := range s.recorded {
		r := &s.spine[i/chunkLen][i%chunkLen]
		k := [2]uint64{uint64(r.pair), r.pairSeq}
		switch r.kind {
		case OpSend:
			if !r.dup && r.pairSeq != 0 {
				latest[k] = len(events)
			}
			events = append(events, Event{})
			r.message(&events[len(events)-1])
		case OpDeliver:
			if i, ok := latest[k]; ok {
				events[i].Arrival = r.arrival
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

// FingerprintEvents returns the determinism digest of a send view — a
// recorder's Timeline, or a filter of it, which compares to a capture that
// only ever saw it (a cluster worker's local trace). It is a pure function
// of the send order and, per message, of (position, kind, src, dst,
// payload size, per-pair sequence number, injected fault delay, duplicate
// marker): runs with different fault seeds differ even when they exchange
// the same messages; runs that exchange the same messages in the same
// order agree, across fabrics and schedule seeds. Arrival times are left
// out. Changing the digested fields or their encoding breaks the tests
// that pin it.
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
