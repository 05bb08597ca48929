// Package armci is a Go reproduction of the ARMCI remote-memory
// communication system and of the optimized synchronization operations of
// Buntinas, Saify, Panda and Nieplocha, "Optimizing Synchronization
// Operations for Remote Memory Communication Systems" (IPPS 2003).
//
// The package emulates a cluster of user processes and per-node data
// servers inside one Go program. Processes issue one-sided operations
// (put, get, accumulate, read-modify-write) against globally addressable
// memory; operations on remote nodes travel as messages to that node's
// data server, exactly as in ARMCI's client-server architecture. Four
// execution fabrics are available:
//
//   - FabricSim — a deterministic discrete-event simulation with a
//     calibrated cost model: virtual-time results reproduce the paper's
//     figures;
//   - FabricChan — real goroutines and in-process message queues, for
//     correctness and stress testing;
//   - FabricTCP — real goroutines whose every message crosses a loopback
//     TCP socket, the "emulated over sockets" configuration;
//   - FabricProc — one SMP node per OS process, launched and rendezvoused
//     by cmd/armci-run: the multi-process cluster runtime, where every
//     message crosses a socket and every inter-node one a real process
//     boundary, worker to worker.
//
// The synchronization operations under study are exposed on Proc:
// AllFence+MPIBarrier (the original GA_Sync path), Barrier (the paper's
// combined fence+barrier), and Mutex with the original hybrid algorithm,
// the paper's software queuing lock, and the future-work no-CAS variant.
package armci

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"armci/internal/cluster"
	"armci/internal/collective"
	"armci/internal/core"
	"armci/internal/model"
	"armci/internal/pipeline"
	"armci/internal/proc"
	"armci/internal/server"
	"armci/internal/shmem"
	"armci/internal/trace"
	"armci/internal/transport"
)

// Re-exported memory types. Ptr names one remotely accessible location as
// the paper's (rank, address) tuple; Strided describes ARMCI's
// non-contiguous transfers; Pair is the two-long operand of the atomic
// operations the paper adds.
type (
	Ptr     = shmem.Ptr
	Strided = shmem.Strided
	Pair    = shmem.Pair
	AccOp   = shmem.AccOp
)

// Re-exported accumulate element types.
const (
	AccFloat64 = shmem.AccFloat64
	AccInt64   = shmem.AccInt64
)

// Faults configures deterministic fault injection on any fabric: uniform
// jitter, per-pair latency spikes, bounded duplicate delivery, message
// loss recovered by the ack/retransmit reliability stage (LossProb,
// LossBurst, RetryBudget, RTO, RTOCap), and fail-stop rank crashes
// (CrashRank, CrashAfterSends) — all derived from a seed so a fault
// pattern replays identically across runs and fabrics. Per-pair FIFO
// order is preserved, duplicates are suppressed at the receiver and lost
// messages are retransmitted, so protocol code still observes reliable
// exactly-once delivery; a run that cannot (retry budget exhausted, rank
// crashed) fails fast with a *FaultError. The zero value disables faults.
type Faults = pipeline.Faults

// FaultError is the structured, rank-attributed error a run returns when
// an injected fault could not be masked: a crash, an exhausted
// retransmission budget, or a per-operation timeout. Inspect it with
// errors.As:
//
//	var fe *armci.FaultError
//	if errors.As(err, &fe) { ... fe.Rank, fe.Op, fe.Kind ... }
type FaultError = pipeline.FaultError

// FaultKind classifies a FaultError.
type FaultKind = pipeline.FaultKind

// FaultError kinds.
const (
	// FaultCrash: an injected Crash fault fail-stopped the rank.
	FaultCrash = pipeline.FaultCrash
	// FaultRetryExhausted: a message stayed lost through the whole
	// retransmission budget.
	FaultRetryExhausted = pipeline.FaultRetryExhausted
	// FaultOpTimeout: one blocking operation exceeded Options.OpDeadline.
	FaultOpTimeout = pipeline.FaultOpTimeout
	// FaultPeerLost: a multi-process worker died or went silent; Rank
	// names the dead worker's first rank (FabricProc only).
	FaultPeerLost = pipeline.FaultPeerLost
)

// Coalesce switches the engine's per-destination small-op coalescing
// stage: eligible puts, accumulates and notify stores (at most
// pipeline.MaxEntryBytes each) bound for the same node are buffered in
// program order and shipped as one batched wire frame, flushed when the
// next entry would grow the encoded frame past pipeline.MaxFrameBytes
// (16 KiB, one link write) and at every ordering point (fence, barrier,
// notify flag, or any other message to the same node). The zero value
// disables coalescing.
type Coalesce struct {
	Enabled bool
}

// NICMode selects how much of the synchronization traffic the NIC
// answers (§5 of the paper, future work).
type NICMode uint8

const (
	// NICNone: the host data servers answer everything.
	NICNone NICMode = iota
	// NICFence: every data server answers fence round-trips at NIC cost
	// (model.Params.NICService) without a host wake-up or the
	// ServiceFence PCI drain, and the combined Barrier runs one
	// pipelined fence round-trip per written node instead of the counter
	// exchange. The NIC answers on the server's own channel, so per-pair
	// FIFO still proves completion.
	NICFence
	// NICAgent: a NIC agent per node serves atomic operations and fence
	// confirmations at NIC cost (no server wake-up, sub-microsecond
	// service), while bulk puts and gets still flow through the host
	// data servers. Fence confirmations then check per-origin completion
	// counters instead of message FIFO.
	NICAgent
)

// Metrics is the run recorder (the type of Report.Stats) in its second
// role: passed in Options.Metrics it aggregates an experiment's runs —
// message and fault counters, per-kind latency histograms and (with
// SetTimeline) the captured sends, joined to their arrivals.
type Metrics = trace.Stats

// NewMetrics returns an empty recorder to pass in Options.Metrics.
func NewMetrics() *Metrics { return trace.New() }

// Contig returns the strided descriptor of a contiguous n-byte run.
func Contig(n int) Strided { return shmem.Contig(n) }

// FenceMode selects how put completion is detected (§3.1.1 of the paper).
type FenceMode = proc.FenceMode

// Fence modes: FenceRequest is the GM-like explicit-confirmation mode used
// in the paper's evaluation; FenceAck is the LAPI/VIA-like per-put-ack
// mode.
const (
	FenceRequest = proc.FenceRequest
	FenceAck     = proc.FenceAck
)

// BarrierAlg selects the barrier exchange pattern.
type BarrierAlg = collective.BarrierAlg

// Barrier algorithms.
const (
	BarrierAuto          = collective.BarrierAuto
	BarrierPairwise      = collective.BarrierPairwise
	BarrierDissemination = collective.BarrierDissemination
	BarrierCentral       = collective.BarrierCentral
	BarrierKnomial       = collective.BarrierKnomial
	BarrierHierarchical  = collective.BarrierHierarchical
)

// FabricKind selects the execution fabric.
type FabricKind uint8

const (
	// FabricSim is the deterministic discrete-event fabric.
	FabricSim FabricKind = iota
	// FabricChan is the concurrent in-process fabric.
	FabricChan
	// FabricTCP is the concurrent loopback-socket fabric.
	FabricTCP
	// FabricProc is the multi-process fabric: this process hosts one SMP
	// node of a cluster launched by armci-run, and messages cross real
	// inter-process TCP connections. Requires the cluster worker
	// environment (see internal/cluster and cmd/armci-run).
	FabricProc
)

// fabricNames holds each FabricKind's name, read by String and
// ParseFabric.
var fabricNames = [...]string{FabricSim: "sim", FabricChan: "chan", FabricTCP: "tcp", FabricProc: "proc"}

func (k FabricKind) String() string {
	if int(k) < len(fabricNames) {
		return fabricNames[k]
	}
	return fmt.Sprintf("FabricKind(%d)", uint8(k))
}

// ParseFabric resolves a fabric name — the shared vocabulary of every
// command-line tool that selects fabrics — the inverse of
// FabricKind.String.
func ParseFabric(s string) (FabricKind, error) {
	if i := slices.Index(fabricNames[:], s); i >= 0 {
		return FabricKind(i), nil
	}
	return 0, fmt.Errorf("armci: unknown fabric %q (want %s)", s, strings.Join(fabricNames[:], ", "))
}

// CostPreset names a cost model for the simulated fabric.
type CostPreset string

// Cost presets.
const (
	// PresetZero disables all modeled costs (pure protocol execution).
	PresetZero CostPreset = "zero"
	// PresetMyrinet2000 is calibrated to the paper's testbed.
	PresetMyrinet2000 CostPreset = "myrinet2000"
	// PresetFastEthernet is a higher-latency ablation preset.
	PresetFastEthernet CostPreset = "fast-ethernet"
	// PresetLowLatency is a faster-interconnect ablation preset.
	PresetLowLatency CostPreset = "low-latency"
)

func (p CostPreset) params() (model.Params, error) {
	switch p {
	case PresetZero, "":
		return model.Zero(), nil
	case PresetMyrinet2000:
		return model.Myrinet2000(), nil
	case PresetFastEthernet:
		return model.FastEthernet(), nil
	case PresetLowLatency:
		return model.LowLatency(), nil
	}
	return model.Params{}, fmt.Errorf("armci: unknown cost preset %q", p)
}

// Options configures an emulated cluster run.
type Options struct {
	// Procs is the number of user processes. Required.
	Procs int
	// ProcsPerNode is how many consecutive ranks share an SMP node;
	// default 1 (the paper's configuration). Intra-node traffic costs
	// model.Params.LocalLatency, inter-node traffic the full Latency —
	// the gradient the hierarchical barrier exploits.
	ProcsPerNode int
	// Fabric selects the execution substrate; default FabricSim.
	Fabric FabricKind
	// Preset selects the cost model; default PresetZero. Only FabricSim
	// and FabricChan apply modeled costs.
	Preset CostPreset
	// FenceMode selects put-completion detection; default FenceRequest.
	FenceMode FenceMode
	// BarrierAlg selects the barrier pattern; default BarrierAuto. It
	// also selects the combined barrier's stage-1 allreduce pattern
	// (BarrierKnomial and BarrierHierarchical route the counter
	// exchange over their trees).
	BarrierAlg BarrierAlg
	// BarrierRadix sets the k-nomial tree radix used by BarrierKnomial
	// and the tree-based reductions; 0 selects collective.DefaultRadix
	// (4). Must be >= 2 when set.
	BarrierRadix int
	// NIC selects the NIC's share of the synchronization traffic;
	// default NICNone.
	NIC NICMode
	// NumMutexes is how many cluster locks to create. Lock i is homed at
	// rank LockHomes[i] if given, else at rank i modulo Procs.
	NumMutexes int
	// LeaseTTL is the lease duration of LockLease mutexes: a holder that
	// has not advanced the lock state for this long may be deposed by a
	// waiter once a fail-stop crash is on record. Virtual time on
	// FabricSim, wall time otherwise. It must exceed the longest critical
	// section plus one hand-off; 0 selects a default of 10ms
	// (core.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// LockHomes optionally places each lock; len must equal NumMutexes.
	LockHomes []int
	// Coalesce switches per-destination small-op coalescing on the send
	// path. Zero value: every operation is its own wire frame.
	Coalesce Coalesce
	// CaptureTrace records the run's spine for inspection: every message
	// send and admission and every protocol step, in one order.
	CaptureTrace bool
	// Faults configures deterministic fault injection (jitter, latency
	// spikes, duplicate delivery) on every fabric. Zero value: no faults.
	Faults Faults
	// Metrics, if non-nil, makes the run feed per-kind message latency
	// histograms (and, with Metrics.SetTimeline, capture its stream) and
	// folds the finished run into it — its sends, not its steps — so one
	// collector aggregates every run it is handed to. Report.Stats
	// stays per-run.
	Metrics *Metrics
	// ScheduleSeed, when non-zero, randomizes (reproducibly) which of the
	// simultaneously runnable simulated processes runs next on FabricSim —
	// schedule exploration for protocol testing. Seed 0 is the FIFO
	// baseline: processes run in arrival order, the schedule every other
	// test sees. Must be >= 0; ignored by FabricChan and FabricTCP.
	ScheduleSeed int64
	// Deadline bounds the run (virtual time for FabricSim, wall time
	// otherwise); 0 uses the fabric default.
	Deadline time.Duration
	// OpDeadline bounds every single blocking operation — one message
	// receive by a user process, or one memory wait by any actor — as
	// opposed to Deadline, which bounds the whole run. An operation that
	// exceeds it fails the run fast with a rank-attributed *FaultError
	// (FaultOpTimeout), which is how a rank wedged by a crashed or
	// unreachable peer is detected without waiting out the run deadline.
	// Virtual time on FabricSim, wall time otherwise; 0 disables the
	// bound.
	OpDeadline time.Duration
}

// normalize validates the knobs this layer owns and resolves the cost
// preset. The knobs it hands to the fabric unchanged — deadlines, the
// schedule seed, the fault plan — are validated once, by the fabric's
// constructor, before any actor runs.
func (o *Options) normalize() (model.Params, error) {
	if o.Procs <= 0 {
		return model.Params{}, fmt.Errorf("armci: Options.Procs must be positive, got %d", o.Procs)
	}
	if o.LockHomes != nil && len(o.LockHomes) != o.NumMutexes {
		return model.Params{}, fmt.Errorf("armci: %d lock homes for %d mutexes", len(o.LockHomes), o.NumMutexes)
	}
	for i, h := range o.LockHomes {
		if h < 0 || h >= o.Procs {
			return model.Params{}, fmt.Errorf("armci: LockHomes[%d] = %d out of range [0,%d)", i, h, o.Procs)
		}
	}
	if o.LeaseTTL < 0 {
		return model.Params{}, fmt.Errorf("armci: Options.LeaseTTL must be >= 0, got %v", o.LeaseTTL)
	}
	if o.BarrierRadix != 0 && o.BarrierRadix < 2 {
		return model.Params{}, fmt.Errorf("armci: Options.BarrierRadix must be >= 2, got %d", o.BarrierRadix)
	}
	if o.NIC > NICAgent {
		return model.Params{}, fmt.Errorf("armci: unknown Options.NIC mode %d", o.NIC)
	}
	return o.Preset.params()
}

// Report summarizes a completed run.
type Report struct {
	// Elapsed is the cluster's end-to-end time: virtual for FabricSim,
	// wall for the concurrent fabrics.
	Elapsed time.Duration
	// Stats is the recorder of the run: message and fault counters, plus
	// the captured spine (Stats.Records) under Options.CaptureTrace.
	Stats *trace.Stats
}

// Run builds a cluster per opt, executes body once per rank (concurrently
// on the real fabrics, deterministically interleaved on the simulated
// one), and tears everything down. The body receives the rank's Proc
// handle, which is valid only until body returns.
//
// When the run fails — in particular when an injected fault aborts it
// with a *FaultError — Run returns the partial Report (trace and metrics
// up to the failure) alongside the error; only option/setup errors yield
// a nil Report.
func Run(opt Options, body func(p *Proc)) (*Report, error) {
	params, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	stats := trace.New()
	if opt.Metrics != nil {
		stats = opt.Metrics.NewRun()
	}
	if opt.CaptureTrace {
		stats.SetTimeline(true)
	}
	cfg := transport.Config{
		Procs:        opt.Procs,
		ProcsPerNode: opt.ProcsPerNode,
		Model:        params,
		Trace:        stats,
		Faults:       opt.Faults,
		ScheduleSeed: opt.ScheduleSeed,
		Deadline:     opt.Deadline,
		OpDeadline:   opt.OpDeadline,
	}

	var fabric transport.Fabric
	var simF *transport.SimFabric
	switch opt.Fabric {
	case FabricSim:
		simF, err = transport.NewSim(cfg)
		fabric = simF
	case FabricChan:
		fabric, err = transport.NewChan(cfg)
	case FabricTCP:
		fabric, err = transport.NewTCP(cfg)
	case FabricProc:
		var env cluster.WorkerEnv
		var ok bool
		env, ok, err = cluster.FromEnv()
		if err == nil && !ok {
			err = fmt.Errorf("armci: FabricProc requires the cluster worker environment (%s etc.); start this program under armci-run, which sets it for every worker", cluster.EnvAddr)
		}
		if err == nil {
			fabric, err = transport.NewProc(cfg, env)
		}
	default:
		err = fmt.Errorf("armci: unknown fabric %v", opt.Fabric)
	}
	if err != nil {
		return nil, err
	}

	space := fabric.Space()
	numNodes := fabric.Config().Procs
	numNodes = (numNodes + fabric.Config().ProcsPerNode - 1) / fabric.Config().ProcsPerNode
	layout := proc.NewLayout(space, opt.Procs, numNodes)

	var locks *proc.LockTable
	if opt.NumMutexes > 0 {
		homes := opt.LockHomes
		if homes == nil {
			homes = make([]int, opt.NumMutexes)
			for i := range homes {
				homes[i] = i % opt.Procs
			}
		}
		locks = proc.NewLockTable(space, homes)
	}

	nicFence, nicAgent := opt.NIC == NICFence, opt.NIC == NICAgent
	for n := 0; n < numNodes; n++ {
		fabric.SpawnServer(n, func(env transport.Env) transport.Handler {
			return server.New(env, layout, server.Options{
				FenceMode: opt.FenceMode,
				Locks:     locks,
				NICFence:  nicFence,
			}).HandleOne
		})
	}
	if nicAgent {
		for n := 0; n < numNodes; n++ {
			// NIC agents live in the server ID space above the node
			// count and share the server lifecycle.
			fabric.SpawnServer(numNodes+n, func(env transport.Env) transport.Handler {
				return server.NewAgent(env, layout, server.Options{
					FenceMode: opt.FenceMode,
				}).HandleOne
			})
		}
	}
	for r := 0; r < opt.Procs; r++ {
		fabric.SpawnUser(r, func(env transport.Env) {
			eng := proc.NewEngine(env, layout, opt.FenceMode)
			eng.SetNICAssist(nicAgent)
			eng.SetCoalescing(opt.Coalesce.Enabled)
			comm := collective.New(env)
			if opt.BarrierRadix != 0 {
				comm.SetRadix(opt.BarrierRadix)
			}
			sync := core.NewSync(eng, comm)
			sync.BarrierAlg = opt.BarrierAlg
			sync.NICFence = nicFence
			body(&Proc{eng: eng, comm: comm, sync: sync, locks: locks, leaseTTL: opt.LeaseTTL})
		})
	}

	start := time.Now()
	runErr := fabric.Run()
	if opt.Metrics != nil {
		opt.Metrics.Add(stats)
	}
	rep := &Report{Stats: stats}
	if simF != nil {
		rep.Elapsed = simF.Now()
	} else {
		rep.Elapsed = time.Since(start)
	}
	if runErr != nil {
		// Surface the partial report alongside the error: on a fault
		// abort (see FaultError) the trace and metrics collected up to
		// the failure are exactly what a caller wants to inspect.
		return rep, runErr
	}
	return rep, nil
}
