package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"armci/internal/msg"
)

// Histogram is a log₂-bucketed latency distribution. Bucket i counts
// latencies in [2^(i-1), 2^i) nanoseconds (bucket 0 counts <= 1 ns).
type Histogram struct {
	Count   int
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [64]int
}

func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// bucketHi is the exclusive upper bound of bucket i.
func bucketHi(i int) time.Duration {
	if i >= 63 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1) << uint(i))
}

func (h *Histogram) add(d time.Duration) {
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	h.Buckets[bucketOf(d)]++
}

// merge folds o into h.
func (h *Histogram) merge(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
}

// histogramOf returns the histogram of key k, creating it on first use.
func histogramOf[K comparable](m map[K]*Histogram, k K) *Histogram {
	h := m[k]
	if h == nil {
		h = &Histogram{}
		m[k] = h
	}
	return h
}

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper bound of
// the bucket holding it.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	target := int(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	cum := 0
	for i, c := range h.Buckets {
		cum += c
		if cum > target {
			hi := bucketHi(i)
			if hi > h.Max {
				hi = h.Max
			}
			return hi
		}
	}
	return h.Max
}

// FaultCounts reports how many faults the pipeline's injection and
// reliability stages produced.
type FaultCounts struct {
	// Jittered counts messages that drew a non-zero jitter delay.
	Jittered int
	// Spiked counts messages that suffered a latency spike.
	Spiked int
	// DupsInjected counts duplicate copies handed to the fabric.
	DupsInjected int
	// DupsSuppressed counts duplicates dropped by receive-side dedup.
	DupsSuppressed int
	// Dropped counts message copies lost on the wire (including copies
	// of messages that later exhausted their retry budget).
	Dropped int
	// Retransmits counts retransmissions performed by the reliability
	// stage.
	Retransmits int
	// RetryExhausted counts messages that stayed lost through the whole
	// retransmission budget and failed the send.
	RetryExhausted int
	// Crashes counts injected fail-stop crashes (at most one per run).
	Crashes int
	// StaleEpochs counts messages rejected because they carried a
	// membership view epoch older than the receiver's — in-flight
	// traffic from a deposed incarnation fenced out after a respawn.
	StaleEpochs int
}

func (f *FaultCounts) add(o FaultCounts) {
	f.Jittered += o.Jittered
	f.Spiked += o.Spiked
	f.DupsInjected += o.DupsInjected
	f.DupsSuppressed += o.DupsSuppressed
	f.Dropped += o.Dropped
	f.Retransmits += o.Retransmits
	f.RetryExhausted += o.RetryExhausted
	f.Crashes += o.Crashes
	f.StaleEpochs += o.StaleEpochs
}

// Faults returns the fault counters.
func (s *Stats) Faults() FaultCounts {
	s.lockFolded()
	defer s.mu.Unlock()
	return s.faults
}

// KindHistogram returns a copy of the latency histogram of one message
// kind. Latency is arrival minus send time — virtual on the simulated
// fabric, wall on the concurrent ones.
func (s *Stats) KindHistogram(k msg.Kind) Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.latByKind[k]; h != nil {
		return *h
	}
	return Histogram{}
}

// TimelineCSV renders the captured sends as CSV (times in microseconds
// — virtual or wall, per the fabric that fed the recorder).
func (s *Stats) TimelineCSV() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	b.WriteString("seq,kind,src,dst,pair_seq,bytes,sent_us,arrival_us,latency_us\n")
	for _, e := range s.events() {
		fmt.Fprintf(&b, "%d,%s,%v,%v,%d,%d,%.3f,%.3f,%.3f\n",
			e.Seq, e.Kind, e.Src, e.Dst, e.PairSeq, e.Size,
			float64(e.Sent)/1000, float64(e.Arrival)/1000, float64(e.Arrival-e.Sent)/1000)
	}
	return b.String()
}

func sortedKinds[V any](m map[msg.Kind]V) []msg.Kind {
	kinds := make([]msg.Kind, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// String renders the per-kind latency histograms and fault counters as
// a human-readable report.
func (s *Stats) String() string {
	s.lockFolded()
	defer s.mu.Unlock()
	var b strings.Builder
	total := 0
	for _, h := range s.latByKind {
		total += h.Count
	}
	fmt.Fprintf(&b, "message latency by kind (%d deliveries", total)
	f := s.faults
	if f.Jittered+f.Spiked+f.DupsInjected > 0 {
		fmt.Fprintf(&b, "; faults: jittered=%d spiked=%d dups=%d/%d suppressed",
			f.Jittered, f.Spiked, f.DupsSuppressed, f.DupsInjected)
	}
	if f.Dropped+f.Retransmits+f.RetryExhausted+f.Crashes > 0 {
		fmt.Fprintf(&b, "; reliability: dropped=%d retransmits=%d exhausted=%d crashes=%d",
			f.Dropped, f.Retransmits, f.RetryExhausted, f.Crashes)
	}
	if s.writes > 0 {
		fmt.Fprintf(&b, "; link: sends=%d writes=%d written=%dB", s.sends, s.writes, s.written)
	}
	if s.parks > 0 {
		fmt.Fprintf(&b, "; parks=%d futile=%d", s.parks, s.futile)
	}
	b.WriteString("):\n")
	for _, k := range sortedKinds(s.latByKind) {
		h := s.latByKind[k]
		fmt.Fprintf(&b, "  %-10s n=%-6d mean=%-10v p50=%-10v p99=%-10v max=%v\n",
			k, h.Count, h.Mean().Round(time.Nanosecond),
			h.Quantile(0.50), h.Quantile(0.99), h.Max)
		peak := 0
		for _, c := range h.Buckets {
			if c > peak {
				peak = c
			}
		}
		for i, c := range h.Buckets {
			if c == 0 {
				continue
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketHi(i - 1)
			}
			bar := strings.Repeat("#", 1+c*39/peak)
			fmt.Fprintf(&b, "    [%8v, %8v)  %-40s %d\n", lo, bucketHi(i), bar, c)
		}
	}
	return b.String()
}
