package bench

import (
	"fmt"

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

// ablation is one design choice: two labelled configurations, what is
// measured, and how to measure each.
type ablation struct {
	name, a, b, metric string
	measureA, measureB func(AblationOpts) (float64, error)
}

// ablations are the design alternatives, in display order.
var ablations = []ablation{
	// Stage-3 barrier pattern.
	{"barrier pattern", "binary-exchange", "central", "ARMCI_Barrier time",
		barrierTime(armci.BarrierPairwise), barrierTime(armci.BarrierCentral)},
	// AllFence serialization: the paper's serial round trips vs pipelined.
	{"allfence round trips", "serialized (paper)", "pipelined", "GA_Sync(old) time",
		syncVariantTime(ga.SyncOld, armci.FenceRequest), syncVariantTime(ga.SyncOldPipelined, armci.FenceRequest)},
	// Fence mode: GM-like confirmation requests vs LAPI/VIA-like per-put
	// acks, under the original sync.
	{"fence mode", "request/confirm (GM)", "per-put acks (VIA)", "GA_Sync(old) time",
		syncVariantTime(ga.SyncOld, armci.FenceRequest), syncVariantTime(ga.SyncOld, armci.FenceAck)},
	// Queuing-lock release: compare&swap vs the future-work swap-only
	// release, on the uncontended remote case (the one the CAS round
	// trip hurts).
	{"queue-lock release", "compare&swap (paper)", "swap-only (future work)", "uncontended remote release time",
		lockTime(armci.Options{Procs: 2}, 100, 1, armci.LockQueue, true),
		lockTime(armci.Options{Procs: 2}, 100, 1, armci.LockQueueNoCAS, true)},
	// NIC-assisted control traffic (§5 future work): that same release
	// round trip served by the host data server vs a polling NIC agent.
	{"NIC-assisted atomics", "host data server", "NIC agent (§5)", "uncontended remote release time",
		lockTime(armci.Options{Procs: 2}, 60, 1, armci.LockQueue, true),
		lockTime(armci.Options{Procs: 2, NIC: armci.NICAgent}, 60, 1, armci.LockQueue, true)},
	// Non-contiguous transfer: ARMCI's strided put moves a 2-D tile in
	// one message; the naive equivalent sends one put per row.
	{"tile transfer", "strided put (ARMCI)", "one put per row", "32x32-double tile put+fence",
		tileTime(true), tileTime(false)},
	// SMP co-location: with several ranks per node, the queuing lock's
	// hand-offs between co-located waiters touch no network at all.
	{"queue lock on SMP", "8 ranks on 2 nodes", "8 ranks on 8 nodes", "lock request+release time",
		lockTime(armci.Options{Procs: 8, ProcsPerNode: 4}, 60, -1, armci.LockQueue, false),
		lockTime(armci.Options{Procs: 8, ProcsPerNode: 1}, 60, -1, armci.LockQueue, false)},
}

// Ablations measures both configurations of every design alternative
// called out in DESIGN.md, one row each.
func Ablations(opts AblationOpts) (*Table, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.Procs <= 0 {
		opts.Procs = 16
	}
	t := &Table{
		Cols: []Col{{Key: "name"}, {Key: "a"}, {Key: "a_us", Prec: 1}, {Key: "b"}, {Key: "b_us", Prec: 1}, {Key: "metric"}},
		Sections: []Section{{
			Title: fmt.Sprintf("Ablations (N=%d, %s fabric, %s model)", opts.Procs, opts.Fabric, opts.Preset),
			Cols:  "name a a_us b b_us metric", Layout: "%-22s %-24s %10.1f us   %-24s %10.1f us   (%s)",
		}},
	}
	for _, ab := range ablations {
		aUS, err := ab.measureA(opts)
		if err != nil {
			return nil, fmt.Errorf("bench: ablate %s, %s: %w", ab.name, ab.a, err)
		}
		bUS, err := ab.measureB(opts)
		if err != nil {
			return nil, fmt.Errorf("bench: ablate %s, %s: %w", ab.name, ab.b, err)
		}
		t.Rows = append(t.Rows, []any{ab.name, ab.a, aUS, ab.b, bUS, ab.metric})
	}
	return t, nil
}

// lockTime measures the one lock of lockRun on the cluster ao: its
// release time alone, or request+release.
func lockTime(ao armci.Options, iters, only int, alg armci.LockAlg, release bool) func(AblationOpts) (float64, error) {
	return func(opts AblationOpts) (float64, error) {
		s, err := lockRun(opts.Opts, ao, iters, only, alg)
		if release {
			return s.ReleaseUS, err
		}
		return s.TotalUS, err
	}
}

// tileTime measures a 32x32 float64 tile update into a remote 64-wide
// matrix, strided versus row-by-row, fenced.
func tileTime(strided bool) func(AblationOpts) (float64, error) {
	const rows, rowBytes, ld = 32, 32 * 8, 64 * 8
	body := func(p *armci.Proc, l *laps) {
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
	}
	return func(opts AblationOpts) (float64, error) {
		return opts.meanLap(armci.Options{Procs: 2}, opts.Reps, body)
	}
}

// barrierTime measures the combined barrier with the given stage-3
// pattern under an all-to-all write workload.
func barrierTime(alg armci.BarrierAlg) func(AblationOpts) (float64, error) {
	body := func(p *armci.Proc, l *laps) {
		me, procs := p.Rank(), p.Size()
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
	}
	return func(opts AblationOpts) (float64, error) {
		return opts.meanLap(armci.Options{Procs: opts.Procs, BarrierAlg: alg}, opts.Reps, body)
	}
}

// syncVariantTime measures a GA_Sync variant under a fence mode with the
// Figure 7 workload (4x4 patches into a 128x128 array).
func syncVariantTime(mode ga.SyncMode, fm armci.FenceMode) func(AblationOpts) (float64, error) {
	body := func(p *armci.Proc, l *laps) {
		a, err := ga.Create(p, "ablate", 128, 128)
		if err != nil {
			panic(err)
		}
		a.SetSyncMode(mode)
		l.loop(p, gaSyncStep(p, a, 4))
	}
	return func(opts AblationOpts) (float64, error) {
		return opts.meanLap(armci.Options{Procs: opts.Procs, FenceMode: fm}, opts.Reps, body)
	}
}
