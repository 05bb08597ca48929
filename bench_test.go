// Benchmarks regenerating the paper's evaluation, one per table/figure.
//
// The Fig* benchmarks execute the corresponding experiment on the
// deterministic simulated fabric with the calibrated Myrinet-2000 cost
// model and report the paper's quantity as a custom metric in *virtual*
// microseconds (vt_us): the wall-time ns/op column measures only how fast
// the simulator itself runs. The Wire* benchmarks measure the real
// fabrics in wall time.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package armci_test

import (
	"fmt"
	"runtime/metrics"
	"testing"

	"armci"
	"armci/internal/bench"
)

// simOpts are the common experiment options used by the Fig benchmarks:
// few reps, because the simulation is deterministic.
func simOpts() bench.Opts {
	return bench.Opts{Fabric: armci.FabricSim, Preset: armci.PresetMyrinet2000, Reps: 3, Warmup: 1}
}

// BenchmarkFig7aGASync regenerates Figure 7(a): GA_Sync time under the
// original implementation (AllFence+MPI_Barrier, metric vt_us_old) and
// the new combined barrier (metric vt_us_new) for each process count.
func BenchmarkFig7aGASync(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			var row bench.Fig7Row
			for i := 0; i < b.N; i++ {
				res, err := bench.Fig7(bench.Fig7Opts{Opts: simOpts(), ProcCounts: []int{n}})
				if err != nil {
					b.Fatal(err)
				}
				row = res.Rows[0]
			}
			b.ReportMetric(row.OldUS, "vt_us_old")
			b.ReportMetric(row.NewUS, "vt_us_new")
		})
	}
}

// BenchmarkFig7bFactor regenerates Figure 7(b): the factor of improvement
// of the combined barrier over the original GA_Sync.
func BenchmarkFig7bFactor(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			var factor float64
			for i := 0; i < b.N; i++ {
				res, err := bench.Fig7(bench.Fig7Opts{Opts: simOpts(), ProcCounts: []int{n}})
				if err != nil {
					b.Fatal(err)
				}
				factor = res.Rows[0].Factor
			}
			b.ReportMetric(factor, "factor")
		})
	}
}

// lockRow runs the lock experiment at one process count and returns the
// accessor of its one row's cells.
func lockRow(b *testing.B, n int) func(key string) float64 {
	b.Helper()
	res, err := bench.Lock(bench.LockOpts{Opts: simOpts(), ProcCounts: []int{n}, Iters: 50})
	if err != nil {
		b.Fatal(err)
	}
	return func(key string) float64 { return res.Float(0, key) }
}

// BenchmarkFig8aLockTotal regenerates Figure 8(a): mean time to request
// and release a lock, hybrid (vt_us_cur) vs queuing lock (vt_us_new).
func BenchmarkFig8aLockTotal(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			var row func(string) float64
			for i := 0; i < b.N; i++ {
				row = lockRow(b, n)
			}
			b.ReportMetric(row("cur_total_us"), "vt_us_cur")
			b.ReportMetric(row("new_total_us"), "vt_us_new")
		})
	}
}

// BenchmarkFig8bFactor regenerates Figure 8(b): the lock factor of
// improvement.
func BenchmarkFig8bFactor(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			var row func(string) float64
			for i := 0; i < b.N; i++ {
				row = lockRow(b, n)
			}
			b.ReportMetric(row("factor"), "factor")
		})
	}
}

// BenchmarkFig9LockAcquire regenerates Figure 9: the request+acquire
// component alone.
func BenchmarkFig9LockAcquire(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			var row func(string) float64
			for i := 0; i < b.N; i++ {
				row = lockRow(b, n)
			}
			b.ReportMetric(row("cur_acquire_us"), "vt_us_cur")
			b.ReportMetric(row("new_acquire_us"), "vt_us_new")
		})
	}
}

// BenchmarkFig10LockRelease regenerates Figure 10: the release component
// alone.
func BenchmarkFig10LockRelease(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			var row func(string) float64
			for i := 0; i < b.N; i++ {
				row = lockRow(b, n)
			}
			b.ReportMetric(row("cur_release_us"), "vt_us_cur")
			b.ReportMetric(row("new_release_us"), "vt_us_new")
		})
	}
}

// BenchmarkCrossover regenerates the §3.1.2 analysis: old vs new sync
// versus the number of servers actually written to (N=16). The paper
// predicts the old implementation wins below log2(N)/2 = 2 targets.
func BenchmarkCrossover(b *testing.B) {
	for _, k := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("targets=%d", k), func(b *testing.B) {
			var res *bench.Table
			for i := 0; i < b.N; i++ {
				var err error
				res, err = bench.Crossover(bench.CrossoverOpts{
					Opts: simOpts(), Procs: 16, KValues: []int{k},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Float(0, "old_us"), "vt_us_old")
			b.ReportMetric(res.Float(0, "new_us"), "vt_us_new")
		})
	}
}

// BenchmarkWireSync measures the real concurrent fabrics in wall time:
// one all-process sync (old and new) at 8 processes. The absolute values
// are Go-scheduler numbers, not cluster numbers; the point is that the
// protocol code itself is cheap and the new path moves fewer messages.
func BenchmarkWireSync(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping socket-crossing wall-time benchmark in -short mode")
	}
	for _, fk := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
		for _, mode := range []string{"old", "new"} {
			b.Run(fmt.Sprintf("%v/%s", fk, mode), func(b *testing.B) {
				const procs = 8
				_, err := armci.Run(armci.Options{Procs: procs, Fabric: fk}, func(p *armci.Proc) {
					ptrs := p.Malloc(64)
					payload := make([]byte, 64)
					p.MPIBarrier()
					for i := 0; i < b.N; i++ {
						for q := 0; q < procs; q++ {
							if q != p.Rank() {
								p.Put(ptrs[q], payload)
							}
						}
						if mode == "old" {
							p.SyncOld()
						} else {
							p.Barrier()
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkCoalescedBurst is the coalesced small-put path on its own —
// the alternate operation of the rma-tcp2 workload without the socket:
// 2 ranks on the chan fabric, rank 0 issuing 256 puts of 8 B from one
// reused buffer to rank 1 and then a Fence, per iteration. allocs/op
// counts one whole burst: the engine, the coalescer, the pipeline and
// the data server applying its 16 frames.
func BenchmarkCoalescedBurst(b *testing.B) {
	const puts, size = 256, 8
	b.ReportAllocs()
	_, err := armci.Run(armci.Options{
		Procs: 2, Fabric: armci.FabricChan, Coalesce: armci.Coalesce{Enabled: true},
	}, func(p *armci.Proc) {
		dst := p.Malloc(puts * size)
		p.MPIBarrier()
		if p.Rank() == 0 {
			payload := make([]byte, size)
			node := p.NodeOf(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < puts; k++ {
					p.Put(dst[1].Add(int64(k*size)), payload)
				}
				p.Fence(node)
			}
			b.StopTimer()
		}
		p.MPIBarrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTCPGet is the operation of the rma-tcp2 workload on its own: 2
// ranks on the tcp fabric, rank 0 reading 8 B of rank 1's memory with a
// blocking Get per iteration — one request and one response frame, each
// encoded, written, read and decoded. Besides time and allocations per
// Get it reports, from runtime/metrics, gc/block — the collector's cycles
// per block of 512 Gets, the workload's op block — and gc-ns/op, the CPU
// the collector spent per Get: what the garbage of a round trip costs the
// loop.
func BenchmarkTCPGet(b *testing.B) {
	const block = 512
	b.ReportAllocs()
	gcs := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	_, err := armci.Run(armci.Options{Procs: 2, Fabric: armci.FabricTCP}, func(p *armci.Proc) {
		buf := p.Malloc(8)
		p.MPIBarrier()
		if p.Rank() == 0 {
			for range block {
				p.Get(buf[1], 8) // dial the pairs, warm the arenas
			}
			metrics.Read(gcs)
			cycles, cpu := gcs[0].Value.Uint64(), gcs[1].Value.Float64()
			b.ResetTimer()
			for range b.N {
				p.Get(buf[1], 8)
			}
			b.StopTimer()
			metrics.Read(gcs)
			b.ReportMetric(float64(gcs[0].Value.Uint64()-cycles)*block/float64(b.N), "gc/block")
			b.ReportMetric((gcs[1].Value.Float64()-cpu)*1e9/float64(b.N), "gc-ns/op")
		}
		p.MPIBarrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWireLock measures one lock+unlock cycle per op on the real
// in-process fabric under contention, per algorithm.
func BenchmarkWireLock(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping contended wall-time benchmark in -short mode")
	}
	for _, alg := range []armci.LockAlg{armci.LockHybrid, armci.LockQueue, armci.LockQueueNoCAS} {
		b.Run(alg.String(), func(b *testing.B) {
			const procs = 4
			_, err := armci.Run(armci.Options{
				Procs: procs, Fabric: armci.FabricChan, NumMutexes: 1,
			}, func(p *armci.Proc) {
				mu := p.Mutex(0, alg)
				p.MPIBarrier()
				for i := 0; i < b.N; i++ {
					mu.Lock()
					mu.Unlock()
				}
				p.MPIBarrier()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
