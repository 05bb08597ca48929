package main

import (
	"fmt"
	"math"
	"syscall"
	"time"

	"armci"
	"armci/ga"
	"armci/internal/model"
	"armci/internal/msg"
)

// The traced run: everything the end-to-end run leaves out because it
// would disturb it. It runs the workload with spans on rank 0, counts
// messages over fixed-count runs, tours every public call on the
// workload's fabric, times the stand-alone layer kernels and floors, and
// prints one value per per-layer metric of BENCHMARK.json.

// tracedBlocks runs w in cycles of four blocks — op and alt untraced,
// then op and alt with rank 0 recording spans — so the traced and the
// untraced samples see the same moments of the machine and their ratio
// is the tracing overhead.
func tracedBlocks(w *workload, seed int64, ph phases) (plain, traced *outcome, rec *recorder) {
	plain = &outcome{op: newSeries(), alt: newSeries()}
	traced = &outcome{op: newSeries(), alt: newSeries()}
	rec = newRecorder(1 << 18)
	floor := newHandoff()
	_, err := armci.Run(w.options(), func(p *armci.Proc) {
		var mine *recorder
		if p.Rank() == 0 {
			mine = rec
		}
		op, alt := w.setup(p, seed, mine)
		l := newLoop(p, mine, floor, plain)
		l.cycle(ph.warm, 2, step{k: op}, step{k: alt})
		l.cycle(ph.timed, 1,
			step{k: op, s: plain.op}, step{k: alt, s: plain.alt},
			step{k: op, s: traced.op, traced: true}, step{k: alt, s: traced.alt, traced: true})
	})
	if err == nil {
		floor.stop()
	}
	plain.finish(w, err)
	traced.finish(w, nil)
	return plain, traced, rec
}

// fixedRun runs exactly rounds rounds of w's block protocol, untimed:
// in each round one block of every kind choose returns. It reports the
// run's collectors, the oracle failures, and leaves each kind's last
// fabric-clock time per operation in kinds (rank 0's). Two such runs over
// the same rounds differ by exactly their operations' messages, whatever
// set-up and the blocks' own collectives cost.
func fixedRun(w *workload, seed int64, rounds int, m *armci.Metrics, choose func(op, alt *kind) []*kind) (rep *armci.Report, kinds []*kind, fails int64, err error) {
	o := w.options()
	o.Metrics = m
	out := &outcome{} // untimed blocks record nothing
	rep, err = armci.Run(o, func(p *armci.Proc) {
		l := newLoop(p, nil, nil, out)
		l.start, l.dur = time.Now(), math.MaxInt64 // never stops early
		ks := choose(w.setup(p, seed, nil))
		l.oneKind = len(ks) == 1
		for r := 0; r < rounds; r++ {
			for _, k := range ks {
				l.block(k, k.b, nil)
			}
		}
		if l.rank0 {
			kinds, fails = ks, l.fails
		}
	})
	if err != nil {
		return rep, nil, fails, fmt.Errorf("%s: fixed-count run: %w", w.name, err)
	}
	return rep, kinds, fails, nil
}

func onlyOp(op, _ *kind) []*kind   { return []*kind{op} }
func onlyAlt(_, alt *kind) []*kind { return []*kind{alt} }
func both(op, alt *kind) []*kind   { return []*kind{op, alt} }

// idle is a block of the same collectives and no operations.
func idle(op, _ *kind) []*kind {
	return []*kind{{b: op.b, serial: op.serial, run: func(int) {}, check: func(int, time.Duration) int { return 0 }}}
}

// counts are the exact per-operation message counts of a workload.
type counts struct {
	sendsPerOp, sendsPerAlt float64
	bytesPerOp, bytesPerAlt float64
	batchFramesPerAlt       float64
	msgP50US                float64 // send-to-delivery latency of the op run's messages
	fails                   int64
}

// countMessages takes the per-operation counts as the difference between
// a fixed-count run of one kind and a run of as many idle blocks.
func countMessages(w *workload, seed int64, rounds int) (counts, error) {
	var c counts
	base, _, _, err := fixedRun(w, seed, rounds, nil, idle)
	if err != nil {
		return c, err
	}
	lat := armci.NewMetrics()
	lat.SetTimeline(true)
	opRep, opK, f1, err := fixedRun(w, seed, rounds, lat, onlyOp)
	if err != nil {
		return c, err
	}
	altRep, altK, f2, err := fixedRun(w, seed, rounds, nil, onlyAlt)
	if err != nil {
		return c, err
	}
	opN := float64(rounds * opK[0].b * opK[0].serial)
	altN := float64(rounds * altK[0].b * altK[0].serial)
	c.sendsPerOp = float64(opRep.Stats.Sends()-base.Stats.Sends()) / opN
	c.sendsPerAlt = float64(altRep.Stats.Sends()-base.Stats.Sends()) / altN
	c.bytesPerOp = float64(opRep.Stats.Bytes()-base.Stats.Bytes()) / opN
	c.bytesPerAlt = float64(altRep.Stats.Bytes()-base.Stats.Bytes()) / altN
	c.batchFramesPerAlt = float64(altRep.Stats.Count(msg.KindBatch)-base.Stats.Count(msg.KindBatch)) / altN
	var lats []float64
	for _, s := range lat.Timeline() {
		lats = append(lats, float64(s.Arrival-s.Sent)/float64(time.Microsecond))
	}
	c.msgP50US = median(lats)
	c.fails = f1 + f2
	return c, nil
}

// modelRounds is how many rounds of both kinds the simulated workload
// needs for its virtual time per operation to reach the value it then
// keeps in every block (it does by the third).
const modelRounds = 4

// modelVT returns the virtual µs per operation of model-sim16's two
// kinds: the paper's Fig. 7 point at 16 ranks as this simulator models
// it, deterministic and independent of the seed.
func modelVT(seed int64) (newUS, oldUS float64, err error) {
	_, ks, _, err := fixedRun(findWorkload("model-sim16"), seed, modelRounds, nil, both)
	if err != nil {
		return 0, 0, err
	}
	return float64(ks[0].fab) / float64(time.Microsecond), float64(ks[1].fab) / float64(time.Microsecond), nil
}

// tour calls every public function the per-layer account names, reps
// times each, on w's fabric at w's rank count, all ranks calling
// symmetrically with a barrier between steps; rank 0 records the spans.
// With coalesce it runs the one step that needs the coalescer on: a burst
// of small puts.
func tour(w *workload, coalesce bool, reps int) (*recorder, error) {
	rec := newRecorder(1 << 16)
	rec.on = true
	o := w.options()
	o.Coalesce = armci.Coalesce{Enabled: coalesce}
	_, err := armci.Run(o, func(p *armci.Proc) {
		c := &calls{p: p}
		if p.Rank() == 0 {
			c.rec = rec
		}
		me, n := p.Rank(), p.Size()
		right := (me + 1) % n
		node := p.NodeOf(right)
		mem := p.Malloc(4096)
		words := p.MallocWords(1)
		payload, word, acc := make([]byte, syncPayload), make([]byte, 8), make([]byte, 512)
		step := func(f func()) {
			p.MPIBarrier()
			for i := 0; i < reps; i++ {
				f()
			}
		}
		putAll := func() {
			for q := 0; q < n; q++ {
				if q != me {
					p.Put(mem[q].Add(int64(syncPayload*me)), payload)
				}
			}
		}
		if coalesce {
			step(func() {
				for i := 0; i < burstWords; i++ {
					c.Put(mem[right].Add(int64(8*i)), word)
				}
				p.Fence(node)
			})
			p.MPIBarrier()
			return
		}
		step(func() { c.Put(mem[right], payload); c.Fence(node) })
		step(func() { putAll(); c.AllFence() })
		step(func() { c.Get(mem[right], 8) })
		step(func() { c.Load(words[right]) })
		step(func() { c.Accumulate(mem[right].Add(2048), acc); p.Fence(node) })
		step(func() {
			t := c.rec.begin()
			putAll()
			c.Barrier()
			c.rec.end(spanSyncOp, t, 0)
		})
		step(func() { putAll(); c.SyncOld() })
		step(c.MPIBarrier)
		vec := make([]int64, n)
		step(func() { c.AllReduce(vec) })
		queue, hybrid := p.Mutex(0, armci.LockQueue), p.Mutex(1, armci.LockHybrid)
		step(func() { c.Lock(queue, spanLockAcquire); c.Unlock(queue, spanLockRelease) })
		step(func() { c.Lock(hybrid, spanHybridAcquire); c.Unlock(hybrid, spanHybridRelease) })
		// Uncontended: rank 0 alone cycles the lock homed at rank 1.
		remote := p.Mutex(2, armci.LockQueue)
		p.MPIBarrier()
		if me == 0 {
			for i := 0; i < reps; i++ {
				t := c.rec.begin()
				remote.Lock()
				remote.Unlock()
				c.rec.end(spanLockUncontended, t, 0)
			}
		}
		// The stencil's patches: get the own block with its halo, put the
		// own block, sync.
		a, gerr := ga.Create(p, "tour", 64, 64)
		if gerr != nil {
			panic(gerr)
		}
		rlo, rhi, clo, chi := a.Distribution(me)
		buf := make([]float64, (rhi-rlo)*(chi-clo))
		step(func() {
			c.GAGet(a, max(0, rlo-1), min(64, rhi+1), max(0, clo-1), min(64, chi+1))
			c.GAPut(a, rlo, rhi, clo, chi, buf)
			c.GASync(a)
		})
		p.MPIBarrier()
	})
	if err != nil {
		return nil, fmt.Errorf("%s: tour: %w", w.name, err)
	}
	return rec, nil
}

// runTraced produces every per-layer metric for w, in the order
// BENCHMARK.json lists them, and writes rank 0's spans under dir.
func runTraced(w *workload, seed int64, ph phases, dir string) ([]namedMetric, int, int, error) {
	// Everything but the block phase scales with the requested length: a
	// 12 s request gives each kernel 0.2 s and each tour step 200 calls.
	scale := ph.timed.Seconds() / 12
	kernel := time.Duration(scale * float64(200*time.Millisecond))
	reps := max(10, int(200*scale))
	rounds := max(1, int(4*scale))
	o := w.options()
	n := o.Procs

	plain, traced, rec := tracedBlocks(w, seed, phases{warm: ph.warm / 2, timed: ph.timed / 2})
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	if plain.err != nil {
		return nil, attempted, failed, plain.err
	}
	if _, err := rec.write(dir, w.name); err != nil {
		return nil, attempted, failed, fmt.Errorf("%s: span file: %w", w.name, err)
	}
	cnt, err := countMessages(w, seed, rounds)
	if err != nil {
		return nil, attempted, failed, err
	}
	failed += int(cnt.fails)
	vtNew, vtOld, err := modelVT(seed)
	if err != nil {
		return nil, attempted, failed, err
	}
	callRec, err := tour(w, false, reps)
	if err != nil {
		return nil, attempted, failed, err
	}
	burst, err := tour(w, true, max(2, reps/20))
	if err != nil {
		return nil, attempted, failed, err
	}
	k, err := measureKernels(kernel)
	if err != nil {
		return nil, attempted, failed, err
	}
	bringUp, err := bringUpMS(w, max(10, int(100*scale)))
	if err != nil {
		return nil, attempted, failed, err
	}

	// The round trip and the floor of w's own fabric. The simulated
	// fabric has no wall floor: its sync is held against the model's own
	// 2·log₂N one-way latencies, in virtual time.
	us := func(id spanID) float64 { return median(callRec.durationsUS(id)) }
	fabricRTT, syncXFloor := k.tcpRTT, us(spanSyncOp)/(math.Log2(float64(n))*k.tcpFloor)
	switch o.Fabric {
	case armci.FabricChan:
		fabricRTT, syncXFloor = k.chanRTT, us(spanSyncOp)/(math.Log2(float64(n))*k.chanFloor)
	case armci.FabricSim:
		if fabricRTT, err = envRTTUS(armci.FabricSim, o.Preset, kernel); err != nil {
			return nil, attempted, failed, err
		}
		oneWay := float64(model.Myrinet2000().Latency) / float64(time.Microsecond)
		syncXFloor = vtNew / (2 * math.Log2(float64(n)) * oneWay)
	}
	opTail, _ := tailPercentile(rec.durationsUS(spanOp))
	altTail, _ := tailPercentile(rec.durationsUS(spanAlt))
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	wall := plain.op.wall + plain.alt.wall + traced.op.wall + traced.alt.wall
	gcs := plain.op.gcs + plain.alt.gcs + traced.op.gcs + traced.alt.gcs

	m := func(name string, v float64, unit string) namedMetric { return namedMetric{name, metric{v, unit}} }
	return []namedMetric{
		m("proc.put_issue_us", us(spanPut), "us"),
		m("proc.fence_us", us(spanFence), "us"),
		m("proc.allfence_us", us(spanAllFence), "us"),
		m("proc.get_us", us(spanGet), "us"),
		m("proc.rmw_us", us(spanRmw), "us"),
		m("proc.acc_us", us(spanAcc), "us"),
		m("proc.coalesced_put_issue_ns", 1e3*median(burst.durationsUS(spanPut)), "ns"),
		m("core.barrier_us", us(spanBarrier), "us"),
		m("core.syncold_us", us(spanSyncOld), "us"),
		m("core.lock_acquire_us", us(spanLockAcquire), "us"),
		m("core.lock_release_us", us(spanLockRelease), "us"),
		m("core.hybrid_acquire_us", us(spanHybridAcquire), "us"),
		m("core.hybrid_release_us", us(spanHybridRelease), "us"),
		m("core.lock_uncontended_us", us(spanLockUncontended), "us"),
		m("core.sync_x_floor", syncXFloor, "x"),
		m("collective.mpibarrier_us", us(spanMPIBarrier), "us"),
		m("collective.allreduce_us", us(spanAllReduce), "us"),
		m("ga.get_patch_us", us(spanGAGet), "us"),
		m("ga.put_patch_us", us(spanGAPut), "us"),
		m("ga.sync_us", us(spanGASync), "us"),
		m("pipeline.sends_per_op", cnt.sendsPerOp, "count"),
		m("pipeline.sends_per_alt", cnt.sendsPerAlt, "count"),
		m("pipeline.bytes_per_op", cnt.bytesPerOp, "B"),
		m("pipeline.bytes_per_alt", cnt.bytesPerAlt, "B"),
		m("pipeline.batch_frames_per_alt", cnt.batchFramesPerAlt, "count"),
		m("pipeline.msg_us_p50", cnt.msgP50US, "us"),
		m("pipeline.sendto_ns", k.sendTo, "ns"),
		m("wire.encode_ns", k.encode, "ns"),
		m("wire.decode_ns", k.decode, "ns"),
		m("wire.batch_encode_ns", k.batchEncode, "ns"),
		m("wire.batch_decode_ns", k.batchDecode, "ns"),
		m("transport.chan_rtt_us", k.chanRTT, "us"),
		m("transport.tcp_rtt_us", k.tcpRTT, "us"),
		m("floor.chan_rtt_us", k.chanFloor, "us"),
		m("floor.tcp_rtt_us", k.tcpFloor, "us"),
		m("floor.handoff_ns", median(plain.op.handoffNS), "ns"),
		m("transport.chan_x_floor", k.chanRTT/k.chanFloor, "x"),
		m("transport.tcp_x_floor", k.tcpRTT/k.tcpFloor, "x"),
		m("transport.bringup_ms", bringUp, "ms"),
		m("server.get_service_us", us(spanGet)-fabricRTT, "us"),
		m("shmem.copy64_ns", k.copy64, "ns"),
		m("shmem.copy8k_ns", k.copy8k, "ns"),
		m("sim.event_ns", k.event, "ns"),
		m("model.vt_new_us", vtNew, "us"),
		m("model.vt_old_us", vtOld, "us"),
		m("model.vt_factor", vtOld/vtNew, "x"),
		m("runtime.cpu_us_per_op", plain.op.perOp(float64(plain.op.cpu)/float64(time.Microsecond)), "us"),
		m("runtime.bytes_per_op", plain.op.perOp(float64(plain.op.bytes)), "B"),
		m("runtime.gc_per_s", float64(gcs)/wall.Seconds(), "1/s"),
		m("runtime.peak_rss_mb", float64(ru.Maxrss)/1024, "MB"),
		m("api.op_us_raw", median(plain.op.rawUS), "us"),
		m("api.alt_us_raw", median(plain.alt.rawUS), "us"),
		m("api.op_us_p99", opTail, "us"),
		m("api.alt_us_p99", altTail, "us"),
		m("api.samples", float64(len(rec.durationsUS(spanOp))), "count"),
		m("trace.overhead_pct", 100*(medianRatio(traced.op.us, plain.op.us)-1), "%"),
	}, attempted, failed, nil
}
