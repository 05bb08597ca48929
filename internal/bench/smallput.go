package bench

import (
	"fmt"
	"strings"

	"armci"
)

// SmallPutOpts configures the sustained small-put throughput experiment:
// the workload the per-destination coalescer exists to accelerate.
type SmallPutOpts struct {
	Opts
	// Procs is the number of user processes, one per node so every put
	// is remote (default 8).
	Procs int
	// OpsPerRank is how many puts each rank issues per repetition before
	// fencing (default 256).
	OpsPerRank int
	// Bytes is the payload of each put (default 8 — the "many tiny
	// updates" regime).
	Bytes int
}

// SmallPutResult compares the same stream of small puts sent one wire
// message per operation against the coalesced path that packs them into
// batched frames.
type SmallPutResult struct {
	Opts SmallPutOpts
	// UncoalescedUS and CoalescedUS are the mean virtual times, in
	// microseconds, for one rank to issue OpsPerRank puts and fence.
	UncoalescedUS, CoalescedUS float64
	// UncoalescedOps and CoalescedOps are the corresponding sustained
	// rates in operations per second.
	UncoalescedOps, CoalescedOps float64
	// Factor is UncoalescedUS / CoalescedUS — the coalescing speedup.
	Factor float64
}

// SmallPut measures sustained small-put throughput with coalescing off
// and on: every rank streams OpsPerRank puts of Bytes each into its
// right neighbor's buffer and fences. Uncoalesced, each put is one wire
// message and the destination server pays its fixed per-message service
// cost 256 times; coalesced, the same puts arrive as a handful of
// batched frames that pay it once per frame.
func SmallPut(opts SmallPutOpts) (*SmallPutResult, error) {
	opts.Opts = opts.Opts.withDefaults()
	if opts.Procs <= 0 {
		opts.Procs = 8
	}
	if opts.OpsPerRank <= 0 {
		opts.OpsPerRank = 256
	}
	if opts.Bytes <= 0 {
		opts.Bytes = 8
	}
	unco, err := smallPutTime(opts, false)
	if err != nil {
		return nil, fmt.Errorf("bench: smallput uncoalesced: %w", err)
	}
	co, err := smallPutTime(opts, true)
	if err != nil {
		return nil, fmt.Errorf("bench: smallput coalesced: %w", err)
	}
	res := &SmallPutResult{
		Opts:          opts,
		UncoalescedUS: unco,
		CoalescedUS:   co,
	}
	if unco > 0 {
		res.UncoalescedOps = float64(opts.OpsPerRank) / (unco / 1e6)
	}
	if co > 0 {
		res.CoalescedOps = float64(opts.OpsPerRank) / (co / 1e6)
		res.Factor = unco / co
	}
	return res, nil
}

// smallPutTime measures the mean per-rank time for one variant.
func smallPutTime(opts SmallPutOpts, coalesce bool) (float64, error) {
	return opts.meanLap(armci.Options{
		Procs:        opts.Procs,
		ProcsPerNode: 1,
		Coalesce:     armci.Coalesce{Enabled: coalesce},
	}, opts.Reps, func(p *armci.Proc, l *laps) {
		me, n := p.Rank(), p.Size()
		bufs := p.Malloc(opts.OpsPerRank * opts.Bytes)
		dst := (me + 1) % n
		dstNode := p.NodeOf(dst)
		data := make([]byte, opts.Bytes)
		for i := range data {
			data[i] = byte(me + 1)
		}
		l.loop(p, func(_ int, lap func(func())) {
			// Absorb skew so the timing reflects the put stream alone.
			p.MPIBarrier()
			lap(func() {
				for i := 0; i < opts.OpsPerRank; i++ {
					p.Put(bufs[dst].Add(int64(i*opts.Bytes)), data)
				}
				p.Fence(dstNode)
			})
		})
	})
}

// FormatSmallPut renders the throughput comparison.
func FormatSmallPut(r *SmallPutResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sustained small puts: %d ranks x %d puts of %d bytes (%s fabric, %s model, %d reps)\n",
		r.Opts.Procs, r.Opts.OpsPerRank, r.Opts.Bytes,
		r.Opts.Fabric, presetName(r.Opts.Preset), r.Opts.Reps)
	fmt.Fprintf(&b, "%14s %14s %14s\n", "", "time (us)", "ops/sec")
	fmt.Fprintf(&b, "%14s %14.1f %14.0f\n", "uncoalesced", r.UncoalescedUS, r.UncoalescedOps)
	fmt.Fprintf(&b, "%14s %14.1f %14.0f\n", "coalesced", r.CoalescedUS, r.CoalescedOps)
	fmt.Fprintf(&b, "%14s %14.2f\n", "speedup", r.Factor)
	return b.String()
}
