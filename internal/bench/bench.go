// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§4):
//
//	Fig. 7(a,b) — GA_Sync() time and factor of improvement, original
//	              (serialized AllFence + MPI_Barrier) vs the new combined
//	              ARMCI_Barrier, as a function of the process count;
//	Fig. 8(a,b) — average time to request AND release a lock, hybrid vs
//	              software queuing lock, plus the factor of improvement;
//	Fig. 9      — the request+acquire component alone;
//	Fig. 10     — the release component alone;
//	§3.1.2      — the sparse-writer crossover between the original
//	              AllFence and the new barrier.
//
// Experiments run by default on the simulated fabric with the calibrated
// Myrinet-2000 cost model, where results are deterministic virtual times;
// they can also run on the concurrent fabrics for wall-clock sanity
// checks of the same shape.
package bench

import (
	"fmt"
	"time"

	"armci"
)

// Opts are the common experiment knobs.
type Opts struct {
	// Fabric is the execution fabric (default FabricSim).
	Fabric armci.FabricKind
	// Preset is the cost model (default PresetMyrinet2000).
	Preset armci.CostPreset
	// Reps is the number of timed repetitions averaged per point
	// (default 10; the paper uses 100 for Fig. 7 and 10 000 for the
	// lock tests — the simulator is deterministic, so fewer suffice).
	Reps int
	// Warmup repetitions run before timing starts (default 2).
	Warmup int
	// Faults is the deterministic fault-injection plan applied to every
	// run of the experiment (zero value: no faults).
	Faults armci.Faults
	// Metrics, if non-nil, aggregates per-kind message latency histograms
	// and fault counters across the experiment's runs.
	Metrics *armci.Metrics
}

// run executes body on a cluster configured by ao plus the experiment's
// fabric, cost model, fault plan and metrics collector, handing every
// rank the run's lap recorder. reps is the number of timed steps a
// laps.loop records after o.Warmup untimed ones. An armci.Run error
// comes back as is; callers add the experiment's context.
func (o Opts) run(ao armci.Options, reps int, body func(p *armci.Proc, l *laps)) (*laps, error) {
	ao.Fabric, ao.Preset = o.Fabric, o.Preset
	ao.Faults, ao.Metrics = o.Faults, o.Metrics
	l := &laps{warmup: o.Warmup, reps: reps, cols: make([][][]float64, ao.Procs)}
	var err error
	l.report, err = armci.Run(ao, func(p *armci.Proc) { body(p, l) })
	if err != nil {
		return nil, err
	}
	return l, nil
}

// meanLap is run for the experiments that time one section per step:
// the mean of lap 0 over every timed step of every rank.
func (o Opts) meanLap(ao armci.Options, reps int, body func(p *armci.Proc, l *laps)) (float64, error) {
	l, err := o.run(ao, reps, body)
	if err != nil {
		return 0, err
	}
	return mean(l.col(0)), nil
}

func (o Opts) withDefaults() Opts {
	if o.Preset == "" {
		o.Preset = armci.PresetMyrinet2000
	}
	if o.Reps <= 0 {
		o.Reps = 10
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	} else if o.Warmup == 0 {
		o.Warmup = 2
	}
	return o
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mean averages a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// laps is the paper's one measurement method (§4): time a section on
// the rank's own clock, repeat, drop the warm-up, average over
// repetitions and processes. Samples are in microseconds, one column
// per timed section of a step; every rank appends only to its own
// columns, so ranks share nothing while the run is live.
type laps struct {
	warmup, reps int
	cols         [][][]float64 // [rank][lap][timed step]
	report       *armci.Report
}

// add records v as rank's next sample of lap k.
func (l *laps) add(rank, k int, v float64) {
	for len(l.cols[rank]) <= k {
		l.cols[rank] = append(l.cols[rank], make([]float64, 0, l.reps))
	}
	l.cols[rank][k] = append(l.cols[rank][k], v)
}

// loop runs warmup+reps steps on p. Each lap(section) call inside a
// step times section; the k-th lap of every timed step lands in the
// k-th column this loop opened (a second loop on the same rank opens
// fresh columns after the first's).
func (l *laps) loop(p *armci.Proc, step func(rep int, lap func(section func()))) {
	me := p.Rank()
	base := len(l.cols[me])
	for rep := 0; rep < l.warmup+l.reps; rep++ {
		k := base
		step(rep, func(section func()) {
			t0 := p.Now()
			section()
			dt := p.Now() - t0
			if rep >= l.warmup {
				l.add(me, k, us(dt))
			}
			k++
		})
	}
}

// col returns every rank's samples of lap k in rank-then-repetition
// order (the order keeps the figures' float sums reproducible).
func (l *laps) col(k int) []float64 {
	var all []float64
	for _, rank := range l.cols {
		if k < len(rank) {
			all = append(all, rank[k]...)
		}
	}
	return all
}

// checkPow2 rejects process counts the paper's pairwise algorithms need
// to be powers of two... dissemination handles any N, so this is only a
// guard for experiments explicitly using the pairwise barrier.
func checkPow2(n int) error {
	if n&(n-1) != 0 {
		return fmt.Errorf("bench: process count %d is not a power of two", n)
	}
	return nil
}
