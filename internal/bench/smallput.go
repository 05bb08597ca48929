package bench

import (
	"fmt"

	"armci"
	"armci/internal/msg"
)

// The sustained small-put experiment streams smallPutOps puts of
// smallPutBytes each per rank and repetition before fencing — the "many
// tiny updates" regime.
const (
	smallPutOps   = 256
	smallPutBytes = 8
)

// SmallPut measures sustained small-put throughput — the workload the
// per-destination coalescer exists to accelerate — with coalescing off
// and on: each of procs ranks (default 8, one per node so every put is
// remote) streams its puts into its right neighbor's buffer and fences.
// Uncoalesced, each put is one wire message and the destination server
// pays its fixed per-message service cost 256 times; coalesced, the same
// puts arrive as a handful of batched frames that pay it once per frame.
// The record holds, per variant, the mean virtual time for one rank to
// issue its puts and fence and the sustained rate in operations per
// second, then the coalescing speedup and its inverse in percent.
func SmallPut(o Opts, procs int) (*Table, error) {
	o = o.withDefaults()
	if procs <= 0 {
		procs = 8
	}
	unco, _, err := smallPutTime(o, procs, false)
	if err != nil {
		return nil, fmt.Errorf("bench: smallput uncoalesced: %w", err)
	}
	co, frames, err := smallPutTime(o, procs, true)
	if err != nil {
		return nil, fmt.Errorf("bench: smallput coalesced: %w", err)
	}
	opsPerSec := func(us float64) float64 { return smallPutOps / (us / 1e6) }
	return &Table{
		Cols: []Col{
			{Key: "uncoalesced_us", Prec: 1, Metric: "smallput/uncoalesced/us"}, {Key: "uncoalesced_ops"},
			{Key: "coalesced_us", Prec: 1, Metric: "smallput/coalesced/us"}, {Key: "coalesced_ops"},
			// The mechanism behind the coalesced time: batched frames one
			// rank sends per burst.
			{Key: "coalesced_frames", Prec: 1, Metric: "smallput/coalesced/frames", Unit: "frames"},
			{Key: "factor", Prec: 2},
			// In percent so the gate's absolute slack stays negligible
			// against it.
			{Key: "ratio_pct", Prec: 1, Metric: "smallput/ratio_pct", Unit: "pct"},
		},
		Rows: [][]any{{unco, opsPerSec(unco), co, opsPerSec(co), frames, unco / co, 100 * co / unco}},
		Sections: []Section{{
			Title: fmt.Sprintf("Sustained small puts: %d ranks x %d puts of %d bytes (%s fabric, %s model, %d reps)",
				procs, smallPutOps, smallPutBytes, o.Fabric, o.Preset, o.Reps),
			Cols: "uncoalesced_us uncoalesced_ops coalesced_us coalesced_ops coalesced_frames factor",
			Layout: fmt.Sprintf("%14s %14s %14s %14s\n%14s %%14.1f %%14.0f\n%14s %%14.1f %%14.0f %%14.1f\n%14s %%14.2f",
				"", "time (us)", "ops/sec", "frames/burst", "uncoalesced", "coalesced", "speedup"),
		}},
	}, nil
}

// smallPutFloor is the structural floor of the baseline gate: a baseline
// recording a lost coalescing speedup must never be writable.
func smallPutFloor(t *Table) error {
	if pct := t.Float(0, "ratio_pct"); pct > 50 {
		return fmt.Errorf("bench: coalescing speedup degraded to %.2fx (ratio %.1f%%), below the structural 2x floor",
			t.Float(0, "factor"), pct)
	}
	return nil
}

// smallPutTime measures the mean per-rank time for one variant, and the
// batched frames one rank sends per burst.
func smallPutTime(o Opts, procs int, coalesce bool) (us, frames float64, err error) {
	l, err := o.run(armci.Options{
		Procs:        procs,
		ProcsPerNode: 1,
		Coalesce:     armci.Coalesce{Enabled: coalesce},
	}, o.Reps, func(p *armci.Proc, l *laps) {
		me, n := p.Rank(), p.Size()
		bufs := p.Malloc(smallPutOps * smallPutBytes)
		dst := (me + 1) % n
		dstNode := p.NodeOf(dst)
		data := make([]byte, smallPutBytes)
		for i := range data {
			data[i] = byte(me + 1)
		}
		l.loop(p, func(_ int, lap func(func())) {
			// Absorb skew so the timing reflects the put stream alone.
			p.MPIBarrier()
			lap(func() {
				for i := 0; i < smallPutOps; i++ {
					p.Put(bufs[dst].Add(int64(i*smallPutBytes)), data)
				}
				p.Fence(dstNode)
			})
		})
	})
	if err != nil {
		return 0, 0, err
	}
	bursts := procs * (o.Warmup + o.Reps)
	return mean(l.col(0)), float64(l.report.Stats.Count(msg.KindBatch)) / float64(bursts), nil
}
