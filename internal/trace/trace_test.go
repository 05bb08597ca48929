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
	s.Actor().RecordSend(&msg.Message{Kind: kind, Src: src, Dst: dst, Data: make([]byte, n)}, nil, FaultCounts{})
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
	if s.PairCount(msg.User(0), msg.ServerOf(1)) != 2 {
		t.Fatalf("pair count = %d", s.PairCount(msg.User(0), msg.ServerOf(1)))
	}
}

func TestCaptureAndFingerprint(t *testing.T) {
	mk := func() *Stats {
		s := New()
		s.SetCapture(true)
		send(s, msg.KindColl, msg.User(0), msg.User(1), 8)
		send(s, msg.KindColl, msg.User(1), msg.User(0), 8)
		return s
	}
	a, b := mk(), mk()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical streams produced different fingerprints")
	}
	c := New()
	c.SetCapture(true)
	send(c, msg.KindColl, msg.User(1), msg.User(0), 8)
	send(c, msg.KindColl, msg.User(0), msg.User(1), 8)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("reordered streams produced equal fingerprints")
	}
	if len(a.Events()) != 2 {
		t.Fatalf("captured %d events", len(a.Events()))
	}
}

func TestCaptureOffByDefault(t *testing.T) {
	s := New()
	send(s, msg.KindPut, msg.User(0), msg.ServerOf(0), 1)
	if len(s.Events()) != 0 {
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
					a.RecordSend(&msg.Message{Kind: msg.KindPut, Src: msg.User(w), Dst: msg.ServerOf(0)}, nil, FaultCounts{Jittered: 1})
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
	if n := s.PairCount(msg.User(1), msg.ServerOf(0)); n != each {
		t.Fatalf("an actor's pair count = %d, want %d", n, each)
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
			s.Actor().RecordSend(m, nil, FaultCounts{})
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
			if tc.rec.Sends() != n || tc.rec.PairCount(a, b) != n {
				t.Fatalf("sends = %d, pair count = %d", tc.rec.Sends(), tc.rec.PairCount(a, b))
			}
			h := tc.rec.KindHistogram(msg.KindSend)
			if h.Count != tc.latency || (tc.latency > 0 && (h.Min != 11*time.Microsecond || h.Max != 14*time.Microsecond)) {
				t.Fatalf("kind histogram: %+v", h)
			}
			if hp := tc.rec.PairHistogram(a, b); hp.Count != tc.latency {
				t.Fatalf("pair histogram: %+v", hp)
			}
			if hp := tc.rec.PairHistogram(b, a); hp.Count != 0 {
				t.Fatalf("reverse pair histogram: %+v", hp)
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
			if ops := tc.rec.OpEvents(); len(ops) != tc.ops {
				t.Fatalf("%d deliver op events, want %d", len(ops), tc.ops)
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
			run.Actor().RecordSend(&msg.Message{Kind: msg.KindSend}, nil, FaultCounts{})
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
