package armci_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"armci"
	"armci/internal/msg"
)

func TestOptionsValidation(t *testing.T) {
	cases := []armci.Options{
		{Procs: 0},
		{Procs: -3},
		{Procs: 2, Preset: "warp-drive"},
		{Procs: 2, NumMutexes: 2, LockHomes: []int{0}},       // length mismatch
		{Procs: 2, Fabric: armci.FabricKind(99)},             // unknown fabric
		{Procs: 2, NumMutexes: 0, LockHomes: []int{0, 1, 2}}, // homes without mutexes
		{Procs: 2, NumMutexes: 1, LockHomes: []int{5}},       // home out of range
		{Procs: 2, Deadline: -time.Second},
		{Procs: 2, OpDeadline: -time.Millisecond},
		{Procs: 2, NIC: armci.NICAgent + 1}, // unknown NIC mode
	}
	for i, opt := range cases {
		if _, err := armci.Run(opt, func(p *armci.Proc) {}); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opt)
		}
	}
}

// TestNamesParseBack: every lock algorithm and fabric parses back from
// its String, and an unknown name is an error that lists the known ones.
func TestNamesParseBack(t *testing.T) {
	for a := armci.LockHybrid; a <= armci.LockLease; a++ {
		if got, err := armci.ParseLockAlg(a.String()); err != nil || got != a {
			t.Errorf("ParseLockAlg(%q) = %v, %v", a, got, err)
		}
	}
	for k := armci.FabricSim; k <= armci.FabricProc; k++ {
		if got, err := armci.ParseFabric(k.String()); err != nil || got != k {
			t.Errorf("ParseFabric(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := armci.ParseLockAlg("mcs"); err == nil || !strings.Contains(err.Error(), "queue-nocas") {
		t.Errorf("ParseLockAlg(mcs): error %v does not list the algorithms", err)
	}
	if _, err := armci.ParseFabric("udp"); err == nil || !strings.Contains(err.Error(), "proc") {
		t.Errorf("ParseFabric(udp): error %v does not list the fabrics", err)
	}
}

// TestOptionsRejectBadFaultPlans: normalize surfaces every invalid
// loss/crash/retry plan as a descriptive error before the fabric runs.
func TestOptionsRejectBadFaultPlans(t *testing.T) {
	cases := []struct {
		name   string
		faults armci.Faults
		want   string // substring of the expected error
	}{
		{"negative loss prob", armci.Faults{LossProb: -0.1}, "LossProb"},
		{"loss prob above 1", armci.Faults{LossProb: 1.5}, "LossProb"},
		{"NaN loss prob", armci.Faults{LossProb: math.NaN()}, "LossProb"},
		{"negative loss burst", armci.Faults{LossBurst: -1}, "LossBurst"},
		{"negative retry budget", armci.Faults{RetryBudget: -2}, "RetryBudget"},
		{"negative rto", armci.Faults{RTO: -time.Millisecond}, "RTO"},
		{"negative rto cap", armci.Faults{RTOCap: -time.Millisecond}, "RTOCap"},
		{"negative crash rank", armci.Faults{CrashRank: -1}, "CrashRank"},
		{"negative crash send count", armci.Faults{CrashAfterSends: -1}, "CrashAfterSends"},
		{"crash rank == procs", armci.Faults{CrashRank: 2, CrashAfterSends: 1}, "out of range"},
		{"crash rank beyond procs", armci.Faults{CrashRank: 7, CrashAfterSends: 3}, "out of range"},
		{"negative spike prob", armci.Faults{SpikeProb: -0.5}, "SpikeProb"},
		{"dup prob above 1", armci.Faults{DupProb: 2}, "DupProb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := armci.Run(armci.Options{Procs: 2, Faults: tc.faults}, func(p *armci.Proc) {
				t.Error("body ran despite invalid fault plan")
			})
			if err == nil {
				t.Fatalf("invalid plan %+v accepted", tc.faults)
			}
			if !contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestReportContents(t *testing.T) {
	rep, err := armci.Run(armci.Options{
		Procs:  2,
		Fabric: armci.FabricSim,
		Preset: armci.PresetMyrinet2000,
	}, func(p *armci.Proc) {
		ptrs := p.MallocWords(1)
		if p.Rank() == 0 {
			p.Store(ptrs[1], 1)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("virtual elapsed time not reported")
	}
	if rep.Stats.Sends() == 0 {
		t.Fatal("trace empty")
	}
}

// TestRecorderAddAggregates: two runs handed the same Options.Metrics
// leave it with the sum of both — sends, per-kind latency histogram
// counts, fault counters, captured events — while each Report.Stats
// holds only its own run.
func TestRecorderAddAggregates(t *testing.T) {
	metrics := armci.NewMetrics()
	metrics.SetTimeline(true)
	run := func(seed int64, rounds int) *armci.Report {
		t.Helper()
		rep, err := armci.Run(armci.Options{
			Procs:   3,
			Fabric:  armci.FabricSim,
			Preset:  armci.PresetMyrinet2000,
			Faults:  faultPlan(seed),
			Metrics: metrics,
		}, func(p *armci.Proc) {
			ptrs := p.Malloc(64)
			for i := 0; i < rounds; i++ {
				p.Put(ptrs[(p.Rank()+1)%p.Size()], make([]byte, 64))
				p.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(3, 4), run(5, 7)
	s1, s2 := r1.Stats, r2.Stats

	if s1.Sends() == 0 || s2.Sends() <= s1.Sends() {
		t.Fatalf("runs sent %d and %d messages; the longer run should send more", s1.Sends(), s2.Sends())
	}
	if got, want := metrics.Sends(), s1.Sends()+s2.Sends(); got != want {
		t.Fatalf("aggregate sends = %d, want %d+%d", got, s1.Sends(), s2.Sends())
	}
	if got, want := metrics.Bytes(), s1.Bytes()+s2.Bytes(); got != want {
		t.Fatalf("aggregate bytes = %d, want %d", got, want)
	}
	for _, k := range []msg.Kind{msg.KindPut, msg.KindColl} {
		h1, h2, h := s1.KindHistogram(k), s2.KindHistogram(k), metrics.KindHistogram(k)
		if h1.Count == 0 || h.Count != h1.Count+h2.Count || h.Sum != h1.Sum+h2.Sum {
			t.Fatalf("%v latency: aggregate n=%d sum=%v, runs n=%d+%d", k, h.Count, h.Sum, h1.Count, h2.Count)
		}
		if got, want := metrics.Count(k), s1.Count(k)+s2.Count(k); got != want {
			t.Fatalf("%v count: aggregate %d, want %d", k, got, want)
		}
	}
	f1, f2, f := s1.Faults(), s2.Faults(), metrics.Faults()
	if f1.Jittered == 0 || f1.DupsInjected == 0 {
		t.Fatalf("fault plan inert in run 1: %+v", f1)
	}
	if f.Jittered != f1.Jittered+f2.Jittered || f.Spiked != f1.Spiked+f2.Spiked ||
		f.DupsInjected != f1.DupsInjected+f2.DupsInjected || f.DupsSuppressed != f1.DupsSuppressed+f2.DupsSuppressed {
		t.Fatalf("aggregate faults %+v, runs %+v and %+v", f, f1, f2)
	}
	// The aggregate asked for a timeline, so each run captured its events
	// (numbered from 1) and the aggregate holds both, numbered through.
	e1, e2, all := s1.Timeline(), s2.Timeline(), metrics.Timeline()
	if len(e1) != s1.Sends() || len(e2) != s2.Sends() || e2[0].Seq != 1 {
		t.Fatalf("per-run capture: %d and %d events for %d and %d sends, run 2 starts at seq %d",
			len(e1), len(e2), s1.Sends(), s2.Sends(), e2[0].Seq)
	}
	if len(all) != len(e1)+len(e2) {
		t.Fatalf("aggregate timeline has %d events, want %d+%d", len(all), len(e1), len(e2))
	}
	if got := all[len(e1)]; got.Seq != len(e1)+1 || got.Kind != e2[0].Kind || got.Arrival != e2[0].Arrival {
		t.Fatalf("first folded event of run 2 = %+v, want %+v renumbered to %d", got, e2[0], len(e1)+1)
	}
}

// TestSimRunsAreDeterministic: two identical simulated runs produce the
// identical captured message stream and elapsed time — the property that
// makes the benchmark figures reproducible.
func TestSimRunsAreDeterministic(t *testing.T) {
	run := func() (string, time.Duration) {
		rep, err := armci.Run(armci.Options{
			Procs:        6,
			Fabric:       armci.FabricSim,
			Preset:       armci.PresetMyrinet2000,
			CaptureTrace: true,
			NumMutexes:   1,
		}, func(p *armci.Proc) {
			ptrs := p.Malloc(64)
			payload := bytes.Repeat([]byte{byte(p.Rank())}, 32)
			mu := p.Mutex(0, armci.LockQueue)
			for round := 0; round < 3; round++ {
				for q := 0; q < p.Size(); q++ {
					if q != p.Rank() {
						p.Put(ptrs[q], payload)
					}
				}
				p.Barrier()
				mu.Lock()
				mu.Unlock()
			}
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(rep.Stats), rep.Elapsed
	}
	fp1, t1 := run()
	fp2, t2 := run()
	if fp1 != fp2 {
		t.Fatal("identical runs produced different message streams")
	}
	if t1 != t2 {
		t.Fatalf("identical runs took %v and %v", t1, t2)
	}
}

// TestSMPNodes: with several ranks per node, co-located traffic bypasses
// the network entirely and locks exploit the local fast path.
func TestSMPNodes(t *testing.T) {
	rep, err := armci.Run(armci.Options{
		Procs:        4,
		ProcsPerNode: 4, // one SMP node: everything is local
		Fabric:       armci.FabricSim,
		NumMutexes:   1,
	}, func(p *armci.Proc) {
		if p.NumNodes() != 1 || p.MyNode() != 0 {
			panic("topology wrong")
		}
		ptrs := p.MallocWords(4)
		mu := p.Mutex(0, armci.LockQueue)
		for i := 0; i < 10; i++ {
			mu.Lock()
			v := p.Load(ptrs[0])
			p.Store(ptrs[0], v+1)
			mu.Unlock()
		}
		p.Barrier()
		if p.Rank() == 0 && p.Load(ptrs[0]) != 40 {
			panic(fmt.Sprintf("counter = %d", p.Load(ptrs[0])))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only collective messages (Malloc exchange + barriers) may cross
	// the fabric; no puts, gets, RMWs or lock messages.
	sum := rep.Stats.Summary()
	for _, forbidden := range []string{"put=", "rmw=", "lock-req=", "unlock="} {
		if contains(sum, forbidden) {
			t.Fatalf("single-node run sent remote traffic: %s", sum)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestFenceAckModePublic: the LAPI/VIA-like mode works through the public
// API on every fabric.
func TestFenceAckModePublic(t *testing.T) {
	for _, fk := range fabrics {
		t.Run(fk.String(), func(t *testing.T) {
			const procs = 4
			_, err := armci.Run(armci.Options{
				Procs:     procs,
				Fabric:    fk,
				FenceMode: armci.FenceAck,
			}, func(p *armci.Proc) {
				ptrs := p.MallocWords(procs)
				me := p.Rank()
				for q := 0; q < procs; q++ {
					if q != me {
						p.Store(ptrs[q].Add(int64(me)), int64(me+1))
					}
				}
				p.Barrier()
				for q := 0; q < procs; q++ {
					if q != me {
						if got := p.Load(ptrs[me].Add(int64(q))); got != int64(q+1) {
							panic(fmt.Sprintf("rank %d missing write from %d", me, q))
						}
					}
				}
				p.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestJitterStress: with random extra delays on every message, the sync
// and lock protocols stay correct on the concurrent fabric.
func TestJitterStress(t *testing.T) {
	const procs, iters = 4, 10
	_, err := armci.Run(armci.Options{
		Procs:      procs,
		Fabric:     armci.FabricChan,
		NumMutexes: 1,
		Faults:     armci.Faults{Jitter: 300 * time.Microsecond, Seed: 7},
	}, func(p *armci.Proc) {
		ptrs := p.MallocWords(procs)
		mu := p.Mutex(0, armci.LockQueue)
		me := p.Rank()
		for i := 0; i < iters; i++ {
			for q := 0; q < procs; q++ {
				if q != me {
					p.Store(ptrs[q].Add(int64(me)), int64(i+1))
				}
			}
			p.Barrier()
			for q := 0; q < procs; q++ {
				if q != me {
					if got := p.Load(ptrs[me].Add(int64(q))); got != int64(i+1) {
						panic(fmt.Sprintf("iter %d: stale value %d from %d", i, got, q))
					}
				}
			}
			mu.Lock()
			v := p.Load(ptrs[0].Add(int64(procs - 1)))
			p.Store(ptrs[0].Add(int64(procs-1)), v)
			mu.Unlock()
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFetchAddOnBytePtrPanics: word operations demand word pointers.
func TestFetchAddOnBytePtrPanics(t *testing.T) {
	_, err := armci.Run(armci.Options{Procs: 1, Fabric: armci.FabricSim}, func(p *armci.Proc) {
		b := p.MallocLocal(8)
		defer func() {
			if recover() == nil {
				panic("byte-pointer FetchAdd did not panic")
			}
		}()
		p.FetchAdd(b, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMutexMisuse: index errors and missing configuration panic loudly.
func TestMutexMisuse(t *testing.T) {
	_, err := armci.Run(armci.Options{Procs: 1, Fabric: armci.FabricSim, NumMutexes: 1}, func(p *armci.Proc) {
		for _, fn := range []func(){
			func() { p.Mutex(1, armci.LockQueue) },  // out of range
			func() { p.Mutex(-1, armci.LockQueue) }, // negative
			func() { p.Mutex(0, armci.LockAlg(9)) }, // unknown algorithm
		} {
			func() {
				defer func() {
					if recover() == nil {
						panic("expected a panic")
					}
				}()
				fn()
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = armci.Run(armci.Options{Procs: 1, Fabric: armci.FabricSim}, func(p *armci.Proc) {
		defer func() {
			if recover() == nil {
				panic("Mutex without NumMutexes did not panic")
			}
		}()
		p.Mutex(0, armci.LockQueue)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceFloatPublic: the float all-reduce is exact on integers and
// identical across ranks.
func TestAllReduceFloatPublic(t *testing.T) {
	const procs = 6
	results := make([]float64, procs)
	_, err := armci.Run(armci.Options{Procs: procs, Fabric: armci.FabricSim}, func(p *armci.Proc) {
		vec := []float64{float64(p.Rank() + 1), 0.5}
		p.AllReduceSumFloat64(vec)
		results[p.Rank()] = vec[0]
		if vec[1] != 3.0 {
			panic(fmt.Sprintf("fraction sum %v", vec[1]))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		if v != 21 {
			t.Fatalf("rank %d sum %v, want 21", r, v)
		}
	}
}
