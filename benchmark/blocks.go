package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"armci"
)

// kind is one of a workload's two operations (the primary "op" and the
// contrasting "alt"), as one rank runs it. A block is b calls of run on
// every rank between two MPIBarriers.
type kind struct {
	// label names the operation in reports.
	label string
	// b is the number of operations per rank per block, sized so a block
	// lasts 10-50 ms: long enough that the two barriers and a scheduler
	// hiccup are a small share, short enough for hundreds of blocks.
	b int
	// serial is how many of the ranks' operations the system serialises:
	// 1 when every rank's b operations run side by side (a collective
	// sync, a per-rank get), Size for the contended lock, where the block
	// holds b*Size hand-offs one after another. A block's sample is its
	// wall time divided by b*serial.
	serial int
	// run performs operation number i (1-based, counted per kind across
	// the whole run, identical on every rank).
	run func(i int)
	// check is the oracle, run by every rank at the block boundary after
	// the closing barrier: last is the number of the block's final
	// operation, fabricPerOp the fabric-clock time per operation of the
	// block (virtual on the simulated fabric; 0 when the blocks do not
	// follow the timed protocol and their fabric time means nothing). It
	// returns how many expectations failed; any failure fails every
	// operation of the block.
	check func(last int, fabricPerOp time.Duration) int

	n   int           // operations run so far
	fab time.Duration // fabric-clock time per operation of the last block
}

// handoff is the reference every block is measured against: the time of
// one goroutine hand-off round trip over unbuffered channels, taken by
// rank 0 right after the block while the other ranks wait in the next
// opening barrier.
//
// A 2-core shared VM runs the same code 15-30 % slower for minutes at a
// time (README.md, "Why blocks are divided by a hand-off"): ten runs of
// one workload then spread 15-24 % between their quartiles whatever
// statistic summarises a run, because the whole run sits in one phase.
// The hand-off slows by the same factor as the workloads do in such a
// phase (it is the Go scheduler's park/ready path, which every fabric
// wake-up also takes) and no change to the program can move it, so
// dividing each block by the hand-off measured next to it cancels the
// phase and leaves 2-6 %.
type handoff struct {
	ping, pong chan struct{}
}

// handoffNominalNS is the hand-off round trip on a quiet 2-core box; a
// block's sample is scaled by handoffNominalNS/measured, so in a quiet
// phase op_us is the plain wall-clock µs per operation.
const handoffNominalNS = 500

// handoffRounds is how many round trips one reference sample averages,
// about a millisecond.
const handoffRounds = 2000

func newHandoff() *handoff {
	h := &handoff{ping: make(chan struct{}), pong: make(chan struct{})}
	go func() {
		for range h.ping {
			h.pong <- struct{}{}
		}
		close(h.pong)
	}()
	return h
}

// measureNS returns the ns per round trip of handoffRounds round trips.
func (h *handoff) measureNS() float64 {
	t0 := time.Now()
	for i := 0; i < handoffRounds; i++ {
		h.ping <- struct{}{}
		<-h.pong
	}
	return float64(time.Since(t0)) / handoffRounds
}

// stop ends the echo goroutine and waits for it. Nobody may be inside
// measureNS.
func (h *handoff) stop() {
	close(h.ping)
	<-h.pong
}

// series collects one kind's block samples on rank 0. The buffers are
// allocated before the timed phase; record never grows them.
type series struct {
	us        []float64 // block time per operation scaled to the nominal hand-off, µs
	rawUS     []float64 // the same blocks' plain wall time per operation, µs
	handoffNS []float64 // the hand-off measured after each block
	// Totals over the kind's blocks, all goroutines of the process.
	mallocs   uint64        // heap allocations
	bytes     uint64        // heap bytes allocated
	gcs       uint32        // completed GC cycles
	cpu       time.Duration // process CPU time, user+system
	wall      time.Duration // block wall time
	attempted int
	failed    int
}

// maxBlocks bounds the samples kept per kind: a 60 s phase of 10 ms
// blocks alternating two kinds is 3000 of each.
const maxBlocks = 4096

func newSeries() *series {
	return &series{
		us:        make([]float64, 0, maxBlocks),
		rawUS:     make([]float64, 0, maxBlocks),
		handoffNS: make([]float64, 0, maxBlocks),
	}
}

// perOp divides a total over the kind's blocks by its operations.
func (s *series) perOp(total float64) float64 {
	if s.attempted == 0 {
		return 0
	}
	return total / float64(s.attempted)
}

func (s *series) record(dt time.Duration, ops int, handoffNS float64, now, last counters, failed bool) {
	if len(s.us) < cap(s.us) {
		raw := float64(dt) / float64(time.Microsecond) / float64(ops)
		s.rawUS = append(s.rawUS, raw)
		s.handoffNS = append(s.handoffNS, handoffNS)
		s.us = append(s.us, raw*handoffNominalNS/handoffNS)
	}
	s.mallocs += now.mallocs - last.mallocs
	s.bytes += now.bytes - last.bytes
	s.gcs += now.gcs - last.gcs
	s.cpu += now.cpu - last.cpu
	s.wall += dt
	s.attempted += ops
	if failed {
		s.failed += ops
	}
}

// counters is what rank 0 reads at every block boundary.
type counters struct {
	mallocs, bytes uint64
	gcs            uint32
	cpu            time.Duration
}

// phases are the durations of a run. The warm-up ends at the first
// boundary between block cycles after warm; the timed phase likewise
// after timed.
type phases struct {
	warm, timed time.Duration
}

// outcome is what one untraced run of a workload measured.
type outcome struct {
	// mu orders rank 0's writes before the caller's reads when a run is
	// aborted and rank 0 is still unwinding.
	mu        sync.Mutex
	setup     time.Duration // entering the workload to the end of warm-up
	op, alt   *series
	opLabel   string // what the two kinds are, for the report
	altLabel  string
	attempted int
	failed    int
	// inflight is the number of operations of the block now running; a
	// run that dies marks them failed.
	inflight atomic.Int64
	// err is the fault or panic that ended the run early, if any.
	err error
}

// finish totals the operation counts; a run that died fails the block
// that was in flight, which never reached its oracle.
func (o *outcome) finish(w *workload, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted = o.op.attempted + o.alt.attempted
	o.failed = o.op.failed + o.alt.failed
	if err != nil {
		o.err = fmt.Errorf("%s: %w", w.name, err)
		n := int(o.inflight.Load())
		o.attempted += n
		o.failed += n
	}
}

// loop is one rank's view of the block protocol.
type loop struct {
	p     *armci.Proc
	rank0 bool
	rec   *recorder // rank 0's span recorder on a traced run, else nil
	ctl   []int64   // [stop, oracle failures], summed across ranks at every boundary
	ms    runtime.MemStats
	last  counters // at the previous boundary (rank 0)
	fails int64    // oracle failures of all ranks so far, the same on every rank
	// oneKind marks a run whose blocks do not alternate op and alt: the
	// fabric time per operation then differs from the timed protocol's
	// and is withheld from the oracle.
	oneKind bool
	floor   *handoff
	out     *outcome
	start   time.Time     // start of the current phase (rank 0's clock decides)
	dur     time.Duration // length of the current phase
}

func newLoop(p *armci.Proc, rec *recorder, floor *handoff, out *outcome) *loop {
	return &loop{p: p, rank0: p.Rank() == 0, rec: rec, ctl: make([]int64, 2), floor: floor, out: out}
}

func (l *loop) read() counters {
	runtime.ReadMemStats(&l.ms)
	var ru syscall.Rusage
	// Getrusage cannot fail with RUSAGE_SELF and a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return counters{mallocs: l.ms.Mallocs, bytes: l.ms.TotalAlloc, gcs: l.ms.NumGC, cpu: cpu}
}

// block runs one barrier-delimited block of b operations of k on this
// rank. Rank 0 times it from the return of the opening barrier to the
// return of the closing one — the interval in which all ranks' operations
// ran — and, once every rank's oracle verdict has arrived through the
// control all-reduce, records the sample in s (nil during warm-up). The
// all-reduce also carries rank 0's decision to stop, so all ranks leave
// together.
func (l *loop) block(k *kind, b int, s *series) (stop bool) {
	ops := b * k.serial
	if l.rank0 {
		l.out.inflight.Store(int64(ops))
	}
	l.p.MPIBarrier()
	f0 := l.p.Now()
	t0 := time.Now()
	for i := 0; i < b; i++ {
		k.n++
		k.run(k.n)
	}
	l.p.MPIBarrier()
	dt := time.Since(t0)
	k.fab = (l.p.Now() - f0) / time.Duration(b)

	fab := k.fab
	if l.oneKind {
		fab = 0
	}
	l.ctl[0], l.ctl[1] = 0, int64(k.check(k.n, fab))
	if l.rank0 && time.Since(l.start) >= l.dur {
		l.ctl[0] = 1
	}
	l.p.AllReduceSumInt64(l.ctl)
	l.fails += l.ctl[1]
	if l.rank0 {
		// Every rank has finished its oracle check (it contributed to
		// the all-reduce) and will wait for rank 0 in the next opening
		// barrier, so what is read here belongs to this block, and the
		// hand-off is measured on an otherwise idle process.
		now := l.read()
		if s != nil {
			ref := l.floor.measureNS()
			l.out.mu.Lock()
			s.record(dt, ops, ref, now, l.last, l.ctl[1] != 0)
			l.out.mu.Unlock()
		}
		l.last = now
		l.out.inflight.Store(0)
	}
	return l.ctl[0] != 0
}

// step is one block of a cycle: which kind, where its sample goes (nil:
// nowhere), and whether rank 0 records spans during it.
type step struct {
	k      *kind
	s      *series
	traced bool
}

// cycle repeats steps in order for d, always finishing the cycle it is
// in, so every step has run the same number of blocks. Alternating the
// kinds spreads a slow moment of the machine over all of them instead of
// charging it to one. shrink divides the block sizes (the warm-up runs
// half blocks so it ends within 20 ms of its nominal length).
func (l *loop) cycle(d time.Duration, shrink int, steps ...step) {
	l.start, l.dur = time.Now(), d
	for stop := false; !stop; {
		for _, st := range steps {
			if l.rec != nil {
				l.rec.on = st.traced
			}
			if l.block(st.k, (st.k.b+shrink-1)/shrink, st.s) {
				stop = true
			}
		}
	}
}

// runBlocks executes w once, untraced, and reports what rank 0 measured.
func runBlocks(w *workload, seed int64, ph phases) *outcome {
	out := &outcome{op: newSeries(), alt: newSeries()}
	floor := newHandoff()
	begin := time.Now()
	_, err := armci.Run(w.options(), func(p *armci.Proc) {
		op, alt := w.setup(p, seed, nil)
		l := newLoop(p, nil, floor, out)
		l.cycle(ph.warm, 2, step{k: op}, step{k: alt})
		if l.rank0 {
			out.mu.Lock()
			out.setup, out.opLabel, out.altLabel = time.Since(begin), op.label, alt.label
			out.mu.Unlock()
		}
		l.cycle(ph.timed, 1, step{k: op, s: out.op}, step{k: alt, s: out.alt})
	})
	if err == nil {
		floor.stop() // after an abort rank 0 may still be inside it
	}
	out.finish(w, err)
	return out
}
