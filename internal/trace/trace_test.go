package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"armci/internal/msg"
)

func send(s *Stats, kind msg.Kind, src, dst msg.Addr, n int) {
	s.Actor().RecordSend(&msg.Message{Kind: kind, Src: src, Dst: dst, Data: make([]byte, n)}, nil, FaultCounts{}, 0)
}

func TestCountsAndBytes(t *testing.T) {
	s := New()
	send(s, msg.KindPut, msg.User(0), msg.ServerOf(1), 100)
	send(s, msg.KindPut, msg.User(0), msg.ServerOf(2), 50)
	send(s, msg.KindFenceReq, msg.User(0), msg.ServerOf(1), 0)
	if s.Sends() != 3 {
		t.Fatalf("sends = %d", s.Sends())
	}
	if s.Count(msg.KindPut) != 2 || s.Count(msg.KindFenceReq) != 1 || s.Count(msg.KindGet) != 0 {
		t.Fatal("per-kind counts wrong")
	}
	wantBytes := int64((&msg.Message{Data: make([]byte, 100)}).PayloadBytes() +
		(&msg.Message{Data: make([]byte, 50)}).PayloadBytes() +
		(&msg.Message{}).PayloadBytes())
	if s.Bytes() != wantBytes {
		t.Fatalf("bytes = %d, want %d", s.Bytes(), wantBytes)
	}
}

func TestCaptureAndFingerprint(t *testing.T) {
	mk := func() *Stats {
		s := New()
		s.SetTimeline(true)
		send(s, msg.KindColl, msg.User(0), msg.User(1), 8)
		send(s, msg.KindColl, msg.User(1), msg.User(0), 8)
		return s
	}
	fp := func(s *Stats) string { return FingerprintEvents(s.Timeline()) }
	a, b := mk(), mk()
	if fp(a) != fp(b) {
		t.Fatal("identical streams produced different fingerprints")
	}
	c := New()
	c.SetTimeline(true)
	send(c, msg.KindColl, msg.User(1), msg.User(0), 8)
	send(c, msg.KindColl, msg.User(0), msg.User(1), 8)
	if fp(a) == fp(c) {
		t.Fatal("reordered streams produced equal fingerprints")
	}
	if tl := a.Timeline(); len(tl) != 2 || tl[0].Src != msg.User(0) || tl[0].Dst != msg.User(1) {
		t.Fatalf("captured %+v", tl)
	}
}

func TestCaptureOffByDefault(t *testing.T) {
	s := New()
	send(s, msg.KindPut, msg.User(0), msg.ServerOf(0), 1)
	if len(s.Timeline()) != 0 || countRecords(s) != 0 {
		t.Fatal("events captured without capture mode")
	}
	if s.Sends() != 1 {
		t.Fatal("counting should always be on")
	}
}

func TestSummaryFormat(t *testing.T) {
	s := New()
	send(s, msg.KindPut, msg.User(0), msg.ServerOf(0), 1)
	send(s, msg.KindColl, msg.User(0), msg.User(1), 1)
	sum := s.Summary()
	for _, want := range []string{"2 msgs", "put=1", "coll=1"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
}

// TestConcurrentRecording: half the senders record through the recorder,
// half through their own Actor, while a reader folds the actors' counts in
// under them; the totals come out whole.
func TestConcurrentRecording(t *testing.T) {
	s := New()
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := s.Actor()
			for i := 0; i < each; i++ {
				if w%2 == 0 {
					send(s, msg.KindPut, msg.User(w), msg.ServerOf(0), 4)
				} else {
					a.RecordSend(&msg.Message{Kind: msg.KindPut, Src: msg.User(w), Dst: msg.ServerOf(0)}, nil, FaultCounts{Jittered: 1}, 0)
				}
			}
		}()
	}
	read := make(chan struct{})
	go func() {
		defer close(read)
		for s.Sends() < workers*each {
		}
	}()
	wg.Wait()
	<-read
	if s.Sends() != workers*each || s.Count(msg.KindPut) != workers*each || s.Faults().Jittered != workers/2*each {
		t.Fatalf("sends = %d, puts = %d, jittered = %d; want %d, %d, %d",
			s.Sends(), s.Count(msg.KindPut), s.Faults().Jittered, workers*each, workers*each, workers/2*each)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{100, 200, 400, 800, 100_000} {
		h.add(d)
	}
	if h.Count != 5 || h.Min != 100 || h.Max != 100_000 {
		t.Fatalf("stats wrong: %+v", h)
	}
	if m := h.Mean(); m != (100+200+400+800+100_000)/5 {
		t.Fatalf("mean = %v", m)
	}
	if q := h.Quantile(0.5); q < 200 || q > 1024 {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(1); q != 100_000 {
		t.Fatalf("p100 = %v, want clamped to max", q)
	}
	var empty Histogram
	if empty.Mean() != 0 || empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram not zero")
	}
	// Merging is the same as having added the other's samples.
	var lo, hi, both Histogram
	for _, d := range []time.Duration{100, 200} {
		lo.add(d)
		both.add(d)
	}
	for _, d := range []time.Duration{50, 100_000} {
		hi.add(d)
		both.add(d)
	}
	lo.merge(&hi)
	lo.merge(&empty)
	if lo != both {
		t.Fatalf("merged %+v, want %+v", lo, both)
	}
}

// TestRecorderLatencyAndTimeline feeds the same four deliveries to each
// shape of recorder: a plain one only counts, a run of an aggregate also
// feeds the histograms, and a run of a capturing aggregate also keeps the
// timeline — which the aggregate holds after Add.
func TestRecorderLatencyAndTimeline(t *testing.T) {
	const n = 4
	a, b := msg.User(0), msg.User(1)
	feed := func(s *Stats) {
		for i := 1; i <= n; i++ {
			sent := time.Duration(i) * 100 * time.Microsecond
			m := &msg.Message{Kind: msg.KindSend, Src: a, Dst: b, Seq: uint64(i), Sent: sent}
			s.Actor().RecordSend(m, nil, FaultCounts{}, 0)
			m.Arrival = sent + time.Duration(10+i)*time.Microsecond // known only at the receiver
			s.RecordArrival(m, m.Arrival)
		}
	}
	fed := func(s *Stats) *Stats { feed(s); return s }
	capturing := New()
	capturing.SetTimeline(true)
	folded := New()
	folded.SetTimeline(true)
	folded.Add(fed(folded.NewRun()))

	cases := []struct {
		name                 string
		rec                  *Stats
		latency, events, ops int
	}{
		{"plain recorder", fed(New()), 0, 0, 0},
		{"run of a counting aggregate", fed(New().NewRun()), n, 0, 0},
		{"run of a capturing aggregate", fed(capturing.NewRun()), n, n, n},
		{"aggregate after Add", folded, n, n, 0}, // op events stay with the run
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.rec.Sends() != n {
				t.Fatalf("sends = %d", tc.rec.Sends())
			}
			h := tc.rec.KindHistogram(msg.KindSend)
			if h.Count != tc.latency || (tc.latency > 0 && (h.Min != 11*time.Microsecond || h.Max != 14*time.Microsecond)) {
				t.Fatalf("kind histogram: %+v", h)
			}
			if want := fmt.Sprintf("message latency by kind (%d deliveries)", tc.latency); !strings.HasPrefix(tc.rec.String(), want) {
				t.Fatalf("report %q, want prefix %q", tc.rec.String(), want)
			}
			tl := tc.rec.Timeline()
			if len(tl) != tc.events {
				t.Fatalf("timeline has %d events, want %d", len(tl), tc.events)
			}
			for i, e := range tl {
				if e.Seq != i+1 || e.PairSeq != uint64(i+1) || e.Arrival-e.Sent != time.Duration(11+i)*time.Microsecond {
					t.Fatalf("timeline[%d] = %+v", i, e)
				}
			}
			csv := tc.rec.TimelineCSV()
			if !strings.HasPrefix(csv, "seq,kind,src,dst,pair_seq,bytes,sent_us,arrival_us,latency_us\n") {
				t.Fatalf("timeline CSV header: %q", csv)
			}
			if lines := strings.Count(csv, "\n"); lines != tc.events+1 {
				t.Fatalf("timeline CSV has %d lines", lines)
			}
			if tc.events > 0 && !strings.Contains(csv, "\n1,send,p0,p1,1,") {
				t.Fatalf("timeline CSV rows: %q", csv)
			}
			if ops := countRecords(tc.rec) - len(tl); ops != tc.ops {
				t.Fatalf("%d deliver op events, want %d", ops, tc.ops)
			}
		})
	}
}

// TestLinkWritesFoldAndPrint: a socket link's writes are counted beside the
// sends they carried, Add folds them into the aggregate, and the report
// names them — only when there are any, so a report of a fabric without a
// socket reads as before.
func TestLinkWritesFoldAndPrint(t *testing.T) {
	agg := New()
	for i := 0; i < 2; i++ {
		run := agg.NewRun()
		for j := 0; j < 3; j++ {
			run.Actor().RecordSend(&msg.Message{Kind: msg.KindSend}, nil, FaultCounts{}, 0)
		}
		run.RecordLinkWrites(1, 100)
		run.RecordLinkWrites(1, 20)
		if w, b := run.LinkWrites(); w != 2 || b != 120 {
			t.Fatalf("run: %d writes, %d bytes", w, b)
		}
		agg.Add(run)
	}
	if w, b := agg.LinkWrites(); w != 4 || b != 240 {
		t.Fatalf("aggregate: %d writes, %d bytes", w, b)
	}
	if got, want := agg.String(), "(0 deliveries; link: sends=6 writes=4 written=240B):"; !strings.Contains(got, want) {
		t.Fatalf("report %q does not say %q", got, want)
	}
	if got := New().String(); strings.Contains(got, "link:") {
		t.Fatalf("report of a run with no link write: %q", got)
	}
}

// TestParksFoldAndPrint: a wall-clock fabric's parks are folded like the
// link writes and printed beside them, only when there are any.
func TestParksFoldAndPrint(t *testing.T) {
	agg := New()
	for i := 0; i < 2; i++ {
		run := agg.NewRun()
		run.RecordParks(5, 1)
		agg.Add(run)
	}
	if got, want := agg.String(), "(0 deliveries; parks=10 futile=2):"; !strings.Contains(got, want) {
		t.Fatalf("report %q does not say %q", got, want)
	}
	if got := New().String(); strings.Contains(got, "parks=") {
		t.Fatalf("report of a run with no park: %q", got)
	}
}

// TestTimelineJoinRule pins how Timeline joins each captured send to the
// arrival its receiver admitted it at: the latest send of the same pair and
// PairSeq recorded before the admission, counting only sends that are not
// injected duplicates and carry a sequence number.
func TestTimelineJoinRule(t *testing.T) {
	a, b := msg.User(0), msg.User(1)
	mk := func(seq uint64, sent time.Duration) *msg.Message {
		return &msg.Message{Kind: msg.KindSend, Src: a, Dst: b, Seq: seq, Sent: sent, Arrival: sent + 5}
	}
	arrive := func(s *Stats, m *msg.Message, at time.Duration) {
		c := *m
		c.Arrival = at
		s.RecordArrival(&c, at)
	}
	capturing := func() *Stats {
		s := New()
		s.SetTimeline(true)
		return s
	}
	type want struct {
		seq     int
		pairSeq uint64
		dup     bool
		arrival time.Duration
	}
	cases := []struct {
		name string
		feed func() *Stats // returns the recorder to read
		want []want
	}{
		{"a send and its arrival", func() *Stats {
			s := capturing()
			m := mk(1, 10)
			s.Actor().RecordSend(m, nil, FaultCounts{}, 0)
			arrive(s, m, 40)
			return s
		}, []want{{1, 1, false, 40}}},
		{"an injected duplicate's arrival lands on the original", func() *Stats {
			s := capturing()
			m := mk(1, 10)
			dup := *m
			dup.Arrival = 20
			s.Actor().RecordSend(m, &dup, FaultCounts{DupsInjected: 1}, 0)
			arrive(s, &dup, 30) // the copy wins; the original is suppressed
			return s
		}, []want{{1, 1, false, 30}, {2, 1, true, 20}}},
		{"a message without a sequence number is never joined", func() *Stats {
			s := capturing()
			m := mk(0, 10)
			s.Actor().RecordSend(m, nil, FaultCounts{}, 0)
			arrive(s, m, 40)
			return s
		}, []want{{1, 0, false, 15}}},
		{"a pair whose numbering restarted joins its new send", func() *Stats {
			s := capturing()
			first, second := mk(1, 10), mk(1, 100)
			s.Actor().RecordSend(first, nil, FaultCounts{}, 0)
			arrive(s, first, 40)
			s.Actor().RecordSend(second, nil, FaultCounts{}, 0)
			arrive(s, second, 140)
			return s
		}, []want{{1, 1, false, 40}, {2, 1, false, 140}}},
		{"an arrival with no captured send", func() *Stats {
			s := capturing()
			arrive(s, mk(7, 10), 40)
			s.Actor().RecordSend(mk(1, 50), nil, FaultCounts{}, 0)
			return s
		}, []want{{1, 1, false, 55}}},
		{"Add into a capturing aggregate", func() *Stats {
			agg := capturing()
			agg.Actor().RecordSend(mk(0, 1), nil, FaultCounts{}, 0)
			run := agg.NewRun()
			m := mk(1, 10)
			run.Actor().RecordSend(m, nil, FaultCounts{}, 0)
			arrive(run, m, 40)
			agg.Add(run)
			return agg
		}, []want{{1, 0, false, 6}, {2, 1, false, 40}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.feed()
			view := s.Timeline()
			if len(view) != len(tc.want) {
				t.Fatalf("%d events, want %d: %+v", len(view), len(tc.want), view)
			}
			for i, w := range tc.want {
				e := view[i]
				if got := (want{e.Seq, e.PairSeq, e.Dup, e.Arrival}); got != w {
					t.Errorf("event %d = %+v, want %+v", i, got, w)
				}
			}
		})
	}
}

// countRecords is how many records s's spine holds.
func countRecords(s *Stats) int {
	n := 0
	for range s.Records() {
		n++
	}
	return n
}

// TestStreamOrder: sends, admissions and steps share one order, and each
// record is numbered within its view — a send by the send count, as
// Timeline numbers it, a delivery or step by its position among the
// deliveries and steps. A message record yields the message it stored.
func TestStreamOrder(t *testing.T) {
	s := New()
	s.SetTimeline(true)
	m := &msg.Message{Kind: msg.KindPut, Src: msg.User(0), Dst: msg.NICOf(1, 4), Seq: 1,
		Data: make([]byte, 24), Sent: 5, Arrival: 9}
	s.RecordOp(OpEvent{Kind: OpIssue, Rank: 0, Node: 1})
	s.Actor().RecordSend(m, nil, FaultCounts{}, 3)
	s.RecordArrival(m, 7)
	s.RecordOp(OpEvent{Kind: OpAcquire, Rank: 2, Lock: 1, Prev: -1, Ticket: 9, Epoch: 4, Time: 8})
	var got []string
	var recs []OpEvent
	for e := range s.Records() {
		got = append(got, fmt.Sprintf("%s#%d", e.Kind, e.Seq))
		recs = append(recs, e)
	}
	if want := "op-issue#1 send#1 deliver#2 acquire#3"; strings.Join(got, " ") != want {
		t.Fatalf("records %v, want %s", got, want)
	}
	sent := Event{Seq: 1, Kind: msg.KindPut, Src: m.Src, Dst: m.Dst, Size: m.PayloadBytes(),
		PairSeq: 1, Sent: 5, Arrival: 9, FaultDelay: 3}
	if e := recs[1]; e.Event != sent || e.Time != 5 {
		t.Fatalf("send record: %+v", e)
	}
	admitted := sent
	admitted.Seq, admitted.Sent = 0, 0 // a delivery's time is its admission
	admitted.FaultDelay = 0            // and the fault stage's delay is the send's
	if e := recs[2]; e.Event != admitted || e.Time != 7 {
		t.Fatalf("delivery record: %+v", e)
	}
	if e := recs[3]; e != (OpEvent{Seq: 3, Kind: OpAcquire, Rank: 2, Lock: 1, Prev: -1, Ticket: 9, Epoch: 4, Time: 8}) {
		t.Fatalf("step record: %+v", e)
	}
	if ev := s.Timeline(); len(ev) != 1 || ev[0] != sent {
		t.Fatalf("timeline: %+v", ev)
	}
}

// TestRecordsWhileRecording: a reader ranges over the spine while a writer
// grows it across chunks. Each loop sees a prefix of the records in their
// order, and a loop body may call the recorder.
func TestRecordsWhileRecording(t *testing.T) {
	const n = 3*chunkLen + 7
	s := New()
	s.SetTimeline(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			s.RecordOp(OpEvent{Kind: OpIssue, Rank: i})
		}
	}()
	for seen := 0; seen < n; {
		seen = 0
		for e := range s.Records() {
			if seen++; e.Seq != seen || e.Rank != seen {
				t.Fatalf("record %d = %+v", seen, e)
			}
			s.Loud() // a loop body may call the recorder
		}
	}
	<-done
	for e := range s.Records() {
		if e.Seq == 2 {
			break // a loop may stop early
		}
	}
}

// BenchmarkRecordCaptured is the capture cost per message: one send, its
// arrival and one protocol step into a capturing recorder. A fresh recorder
// every 1024 iterations keeps the stream the size of a small run's.
func BenchmarkRecordCaptured(b *testing.B) {
	var s *Stats
	var a *Actor
	m := &msg.Message{Kind: msg.KindPut, Src: msg.User(0), Dst: msg.ServerOf(1)}
	step := OpEvent{Kind: OpAcquire, Prev: -1, Ticket: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			s = New()
			s.SetTimeline(true)
			a = s.Actor()
		}
		m.Seq = uint64(i%1024 + 1)
		a.RecordSend(m, nil, FaultCounts{}, 0)
		s.RecordArrival(m, time.Duration(i))
		s.RecordOp(step)
	}
}
