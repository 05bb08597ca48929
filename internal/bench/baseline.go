// Baseline mode: a machine-readable snapshot of the repo's performance
// (BENCH_<n>.json) and the comparison gate that fails the build when a
// tracked metric regresses past its tolerance. The snapshot mixes two
// metric classes:
//
//   - deterministic metrics — simulated virtual times of the paper's
//     figures, allocation counts of the pooled hot paths, the protocol
//     event count of a fixed conformance sweep. These are exactly
//     reproducible, carry the tight default tolerance, and are the only
//     metrics a quick (CI) comparison judges.
//   - noisy metrics — wall-clock ns/op of the one hot path the
//     wall-clock benchmark (benchmark/) has no workload for, the procnet
//     session send. Machine-dependent; recorded for trend analysis and
//     judged only in full mode, with a wide tolerance.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"armci"
	"armci/internal/check"
	"armci/internal/cluster"
	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/sim"
	"armci/internal/trace"
)

// BaselineSchema is the BENCH_*.json schema version.
const BaselineSchema = 1

// Default tolerances: a deterministic metric fails the gate past 15%
// (the repo's regression budget); a noisy one only past 60%, and only
// in full mode. defaultAbs shields near-zero bases (0 allocs/op) from
// meaningless relative math: the delta must also exceed it.
const (
	defaultTol = 0.15
	noisyTol   = 0.60
	defaultAbs = 0.75
)

// Metric is one tracked value in a baseline.
type Metric struct {
	// Value is the measurement (lower is better for every metric).
	Value float64 `json:"value"`
	// Unit is a display unit: "us", "ns/op", "allocs/op", "events",
	// "ms".
	Unit string `json:"unit"`
	// Tol is the relative regression budget (0.15 = +15% fails).
	Tol float64 `json:"tol"`
	// Abs is the absolute slack: a regression must exceed both Tol
	// relatively and Abs absolutely. Keeps 0-alloc budgets comparable.
	Abs float64 `json:"abs"`
	// Noisy marks wall-clock metrics, which only full comparisons judge.
	Noisy bool `json:"noisy,omitempty"`
}

// Baseline is the BENCH_<n>.json document.
type Baseline struct {
	Schema  int               `json:"schema"`
	Created string            `json:"created,omitempty"`
	Commit  string            `json:"commit,omitempty"`
	Go      string            `json:"go"`
	Preset  string            `json:"preset"`
	Metrics map[string]Metric `json:"metrics"`
}

// CollectBaseline measures every tracked metric and assembles the
// document. commit is recorded verbatim (typically the git revision,
// resolved by the caller).
func CollectBaseline(commit string) (*Baseline, error) {
	b := &Baseline{
		Schema:  BaselineSchema,
		Created: time.Now().UTC().Format(time.RFC3339),
		Commit:  commit,
		Go:      runtime.Version(),
		Preset:  string(armci.PresetMyrinet2000),
		Metrics: map[string]Metric{},
	}
	det := func(name string, v float64, unit string) {
		b.Metrics[name] = Metric{Value: v, Unit: unit, Tol: defaultTol, Abs: defaultAbs}
	}

	// The figures: every gated column of every gated experiment, all
	// deterministic virtual times and counts.
	if err := gatedMetrics(det); err != nil {
		return nil, err
	}

	// Conformance sweep: a fixed 160-case matrix with a deterministic
	// protocol event count.
	cases := check.Matrix([]armci.FabricKind{armci.FabricSim}, nil,
		[]string{"queue", "hybrid", "ticket", "queue-nocas", "lease"},
		[]string{"barrier", "sync-old"}, nil, 6, 2, 1, 16)
	sweep := check.RunAllParallel(cases, 0, nil)
	if len(sweep.Violations) > 0 || len(sweep.Errs) > 0 || sweep.Panics > 0 {
		return nil, fmt.Errorf("bench: baseline sweep not clean: %d violations, %d errors, %d panics",
			len(sweep.Violations), len(sweep.Errs), sweep.Panics)
	}
	det("explore/cases", float64(sweep.Cases), "cases")
	det("explore/events", float64(sweep.Events), "events")

	// Workload sweep: the four named workloads through the harness
	// matrix. The event count pins the generated programs — a grammar or
	// generator change that alters them moves this number.
	wcases := check.Matrix([]armci.FabricKind{armci.FabricSim},
		[]string{"stencil", "paramserver", "prodcons", "mixed"}, nil,
		[]string{"barrier", "sync-old"}, nil, 6, 2, 1, 8)
	wsweep := check.RunAllParallel(wcases, 0, nil)
	if len(wsweep.Violations) > 0 || len(wsweep.Errs) > 0 || wsweep.Panics > 0 {
		return nil, fmt.Errorf("bench: baseline workload sweep not clean: %d violations, %d errors, %d panics",
			len(wsweep.Violations), len(wsweep.Errs), wsweep.Panics)
	}
	det("explore/workloads/cases", float64(wsweep.Cases), "cases")
	det("explore/workloads/events", float64(wsweep.Events), "events")

	// Hot-path micro-benchmarks: the exact allocs/op budgets of the
	// pooled paths, and the wall-clock ns/op of the procnet send only —
	// benchmark/ times the kernel and the pipeline (sim.event_ns,
	// pipeline.sendto_ns) but has no proc workload.
	det("hotpath/kernel_schedule/allocs_op", float64(testing.Benchmark(benchKernelSchedule).AllocsPerOp()), "allocs/op")
	det("hotpath/pipeline_sendrecv/allocs_op", float64(testing.Benchmark(benchPipelineSendRecv).AllocsPerOp()), "allocs/op")
	b.Metrics["hotpath/procnet_send/ns_op"] = Metric{
		Value: float64(testing.Benchmark(benchSessionSend).NsPerOp()), Unit: "ns/op",
		Tol: noisyTol, Abs: defaultAbs, Noisy: true,
	}
	return b, nil
}

// benchKernelSchedule mirrors sim.BenchmarkKernelSchedule: one Sleep per
// iteration through the pooled event heap.
func benchKernelSchedule(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// benchPipelineSendRecv mirrors pipeline.BenchmarkPipelineSendRecv: one
// message through SendTo plus Inbound.
func benchPipelineSendRecv(b *testing.B) {
	b.ReportAllocs()
	p := pipeline.New(pipeline.Config{Params: model.Myrinet2000(), ChargeModel: true, Stats: trace.New()})
	src, dst := msg.User(0), msg.User(1)
	var now time.Duration
	clock := func() time.Duration { return now }
	m := &msg.Message{Kind: msg.KindSend}
	emit := func(d pipeline.Delivery) {
		if !p.Inbound(d.Msg, d.At) {
			b.Fatal("delivery suppressed with no faults configured")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Microsecond
		if err := p.SendTo(src, dst, m, clock, nil, emit); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSessionSend mirrors cluster.BenchmarkSessionSend: the procnet hot
// path — encode one small message into the pair connection's buffer and
// write it, each in a fresh generation: one encode plus one write a frame.
// Only the noisy ns/op is tracked: allocs/op would also count whatever
// the concurrent receive side happens to allocate inside the timing
// window, which is not deterministic.
func benchSessionSend(b *testing.B) {
	const cookie = 1
	co, err := cluster.NewCoordinator(cluster.Config{Procs: 2, Cookie: cookie})
	if err != nil {
		b.Fatalf("NewCoordinator: %v", err)
	}
	defer co.Close()
	env := func(node int) cluster.WorkerEnv {
		return cluster.WorkerEnv{Addr: co.Addr(), Node: node, Procs: 2, ProcsPerNode: 1, Cookie: cookie}
	}
	var received atomic.Int64
	sessions := make([]*cluster.Session, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		var h cluster.Handlers
		if node == 1 {
			h.Data = func(*msg.Message) { received.Add(1) }
		}
		wg.Add(1)
		go func(node int, h cluster.Handlers) {
			defer wg.Done()
			sessions[node], errs[node] = cluster.Join(env(node), h)
		}(node, h)
	}
	wg.Wait()
	for node, jerr := range errs {
		if jerr != nil {
			b.Fatalf("join node %d: %v", node, jerr)
		}
		defer sessions[node].Close()
	}

	var from cluster.Sender
	m := &msg.Message{Kind: msg.KindPut, Src: msg.User(0), Dst: msg.User(1), Data: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i + 1)
		sessions[0].SendMsg(&from, m.Seq, 1, m)
	}
	b.StopTimer()
	// Let the receiver finish before teardown closes its socket.
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// Regression is one metric that moved past its budget.
type Regression struct {
	Name string
	// Base and Cur are the baseline and current values.
	Base, Cur float64
	Unit      string
	// Rel is Cur/Base - 1 (meaningless when Base is 0; see Abs).
	Rel float64
}

func (r Regression) String() string {
	if r.Base == 0 {
		return fmt.Sprintf("%s: %.3g -> %.3g %s", r.Name, r.Base, r.Cur, r.Unit)
	}
	return fmt.Sprintf("%s: %.4g -> %.4g %s (%+.1f%%)", r.Name, r.Base, r.Cur, r.Unit, 100*r.Rel)
}

// CompareBaselines judges current against base: every metric tracked by
// base must exist in current and stay within its budget. quick skips
// noisy metrics. missing lists baseline metrics current no longer
// reports — also a gate failure (a silently dropped metric is how
// regressions go unwatched).
func CompareBaselines(base, current *Baseline, quick bool) (regressions []Regression, missing []string) {
	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bm := base.Metrics[name]
		if quick && bm.Noisy {
			continue
		}
		cm, ok := current.Metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		tol, abs := bm.Tol, bm.Abs
		if tol <= 0 {
			tol = defaultTol
		}
		if abs <= 0 {
			abs = defaultAbs
		}
		delta := cm.Value - bm.Value
		if delta <= abs {
			continue
		}
		if bm.Value > 0 && delta <= tol*bm.Value {
			continue
		}
		rel := 0.0
		if bm.Value > 0 {
			rel = delta / bm.Value
		}
		regressions = append(regressions, Regression{
			Name: name, Base: bm.Value, Cur: cm.Value, Unit: bm.Unit, Rel: rel,
		})
	}
	return regressions, missing
}

// WriteBaseline marshals the document to path.
func WriteBaseline(b *Baseline, path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaseline loads a BENCH_*.json document.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return nil, fmt.Errorf("bench: %s has schema %d, this build understands %d", path, b.Schema, BaselineSchema)
	}
	if len(b.Metrics) == 0 {
		return nil, fmt.Errorf("bench: %s tracks no metrics", path)
	}
	return &b, nil
}
