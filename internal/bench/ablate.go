package bench

import (
	"fmt"
	"strings"

	"armci"
	"armci/ga"
)

// AblationOpts configures the design-choice ablations called out in
// DESIGN.md.
type AblationOpts struct {
	Opts
	// Procs is the cluster size (default 16).
	Procs int
}

// AblationRow compares two configurations of one design choice.
type AblationRow struct {
	Name   string
	A, B   string  // configuration labels
	AUS    float64 // mean time of configuration A, microseconds
	BUS    float64
	Metric string // what was measured
}

// AblationResult is the set of ablations.
type AblationResult struct {
	Opts AblationOpts
	Rows []AblationRow
}

// Ablations measures the design alternatives:
//
//   - stage-3 barrier pattern: pairwise binary exchange vs central;
//   - AllFence serialization: the paper's serial round trips vs pipelined;
//   - fence mode: GM-like confirmation requests vs LAPI/VIA-like per-put
//     acks, under the original sync;
//   - queuing-lock release: compare&swap vs the future-work swap-only
//     release, on the uncontended single-process remote case.
func Ablations(opts AblationOpts) (*AblationResult, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.Procs <= 0 {
		opts.Procs = 16
	}
	res := &AblationResult{Opts: opts}

	// Barrier stage-3 algorithm.
	pair, err := barrierTime(opts, armci.BarrierPairwise)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate barrier pairwise: %w", err)
	}
	central, err := barrierTime(opts, armci.BarrierCentral)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate barrier central: %w", err)
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "barrier pattern", A: "binary-exchange", B: "central",
		AUS: pair, BUS: central, Metric: "ARMCI_Barrier time",
	})

	// AllFence serialization.
	serial, err := syncVariantTime(opts, ga.SyncOld, armci.FenceRequest)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate allfence serial: %w", err)
	}
	pipelined, err := syncVariantTime(opts, ga.SyncOldPipelined, armci.FenceRequest)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate allfence pipelined: %w", err)
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "allfence round trips", A: "serialized (paper)", B: "pipelined",
		AUS: serial, BUS: pipelined, Metric: "GA_Sync(old) time",
	})

	// Fence mode.
	ackMode, err := syncVariantTime(opts, ga.SyncOld, armci.FenceAck)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate fence ack: %w", err)
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "fence mode", A: "request/confirm (GM)", B: "per-put acks (VIA)",
		AUS: serial, BUS: ackMode, Metric: "GA_Sync(old) time",
	})

	// Queuing-lock release variant, uncontended remote case (the case the
	// CAS round trip hurts).
	cas, err := lockRun(opts.Opts, armci.Options{Procs: 2}, 100, 1, armci.LockQueue)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate lock cas: %w", err)
	}
	swapOnly, err := lockRun(opts.Opts, armci.Options{Procs: 2}, 100, 1, armci.LockQueueNoCAS)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate lock nocas: %w", err)
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "queue-lock release", A: "compare&swap (paper)", B: "swap-only (future work)",
		AUS: cas.ReleaseUS, BUS: swapOnly.ReleaseUS, Metric: "uncontended remote release time",
	})

	// NIC-assisted control traffic (§5 future work): the queuing lock's
	// weak spot — the uncontended release compare&swap round trip —
	// served by the host data server versus a polling NIC agent.
	hostRel, err := lockRun(opts.Opts, armci.Options{Procs: 2}, 60, 1, armci.LockQueue)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate host lock: %w", err)
	}
	nicRel, err := lockRun(opts.Opts, armci.Options{Procs: 2, NICAssist: true}, 60, 1, armci.LockQueue)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate nic lock: %w", err)
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "NIC-assisted atomics", A: "host data server", B: "NIC agent (§5)",
		AUS: hostRel.ReleaseUS, BUS: nicRel.ReleaseUS, Metric: "uncontended remote release time",
	})

	// Non-contiguous transfer: ARMCI's strided put moves a 2-D tile in
	// one message; the naive equivalent sends one put per row.
	strided, err := tileTime(opts, true)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate strided: %w", err)
	}
	rowwise, err := tileTime(opts, false)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate rowwise: %w", err)
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "tile transfer", A: "strided put (ARMCI)", B: "one put per row",
		AUS: strided, BUS: rowwise, Metric: "32x32-double tile put+fence",
	})

	// SMP co-location: with several ranks per node, the queuing lock's
	// hand-offs between co-located waiters touch no network at all.
	colocated, err := lockRun(opts.Opts, armci.Options{Procs: 8, ProcsPerNode: 4}, 60, -1, armci.LockQueue)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate colocated lock: %w", err)
	}
	spread, err := lockRun(opts.Opts, armci.Options{Procs: 8, ProcsPerNode: 1}, 60, -1, armci.LockQueue)
	if err != nil {
		return nil, fmt.Errorf("bench: ablate spread lock: %w", err)
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "queue lock on SMP", A: "8 ranks on 2 nodes", B: "8 ranks on 8 nodes",
		AUS: colocated.TotalUS, BUS: spread.TotalUS, Metric: "lock request+release time",
	})
	return res, nil
}

// tileTime measures a 32x32 float64 tile update into a remote 64-wide
// matrix, strided versus row-by-row, fenced.
func tileTime(opts AblationOpts, strided bool) (float64, error) {
	const rows, rowBytes, ld = 32, 32 * 8, 64 * 8
	return opts.meanLap(armci.Options{Procs: 2}, opts.Reps, func(p *armci.Proc, l *laps) {
		ptrs := p.Malloc(64 * 64 * 8)
		if p.Rank() == 0 {
			tile := make([]byte, rows*rowBytes)
			l.loop(p, func(_ int, lap func(func())) {
				lap(func() {
					if strided {
						p.PutStrided(ptrs[1], armci.Strided{
							Count:  []int{rowBytes, rows},
							Stride: []int64{ld},
						}, tile)
					} else {
						for r := 0; r < rows; r++ {
							p.Put(ptrs[1].Add(int64(r*ld)), tile[r*rowBytes:(r+1)*rowBytes])
						}
					}
					p.Fence(p.NodeOf(1))
				})
			})
		}
		p.Barrier()
	})
}

// barrierTime measures the combined barrier with the given stage-3
// pattern under an all-to-all write workload.
func barrierTime(opts AblationOpts, alg armci.BarrierAlg) (float64, error) {
	procs := opts.Procs
	return opts.meanLap(armci.Options{Procs: procs, BarrierAlg: alg}, opts.Reps, func(p *armci.Proc, l *laps) {
		me := p.Rank()
		ptrs := p.Malloc(64)
		payload := make([]byte, 64)
		l.loop(p, func(_ int, lap func(func())) {
			for q := 0; q < procs; q++ {
				if q != me {
					p.Put(ptrs[q], payload)
				}
			}
			p.MPIBarrier()
			lap(p.Barrier)
		})
	})
}

// syncVariantTime measures a GA_Sync variant under a fence mode with the
// Figure 7 workload (4x4 patches into a 128x128 array).
func syncVariantTime(opts AblationOpts, mode ga.SyncMode, fm armci.FenceMode) (float64, error) {
	return opts.meanLap(armci.Options{Procs: opts.Procs, FenceMode: fm}, opts.Reps, func(p *armci.Proc, l *laps) {
		a, err := ga.Create(p, "ablate", 128, 128)
		if err != nil {
			panic(err)
		}
		a.SetSyncMode(mode)
		l.loop(p, gaSyncStep(p, a, 4))
	})
}

// FormatAblations renders the ablation table.
func FormatAblations(r *AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (N=%d, %s fabric, %s model)\n",
		r.Opts.Procs, r.Opts.Fabric, presetName(r.Opts.Preset))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %-24s %10.1f us   %-24s %10.1f us   (%s)\n",
			row.Name, row.A, row.AUS, row.B, row.BUS, row.Metric)
	}
	return b.String()
}
