package armci_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"armci"
	"armci/ga"
	"armci/internal/msg"
)

// Integration tests: small applications — a stencil, a histogram, a task
// farm, a sample sort and a bank — asserted on every fabric, so the full
// stack (GA patches, strided transfers, accumulate, fetch-and-add,
// collectives, point-to-point sends, locks, syncs) is exercised end to end
// by `go test` alone.

// TestIntegrationStencil runs a small Jacobi heat iteration and checks
// that heat diffuses and energy stays plausible on every fabric and both
// GA_Sync implementations.
func TestIntegrationStencil(t *testing.T) {
	for _, fk := range fabrics {
		for _, mode := range []ga.SyncMode{ga.SyncNew, ga.SyncOld} {
			t.Run(fmt.Sprintf("%v/%v", fk, mode), func(t *testing.T) {
				const procs, n, iters = 4, 16, 8
				var center, corner float64
				_, err := armci.Run(armci.Options{Procs: procs, Fabric: fk}, func(p *armci.Proc) {
					grids := [2]*ga.Array{}
					for i := range grids {
						a, err := ga.Create(p, fmt.Sprintf("g%d", i), n, n)
						if err != nil {
							panic(err)
						}
						a.SetSyncMode(mode)
						grids[i] = a
					}
					if p.Rank() == 0 {
						hot := []float64{100, 100, 100, 100}
						for i := range grids {
							grids[i].Put(n/2-1, n/2+1, n/2-1, n/2+1, hot)
						}
					}
					grids[0].Sync()
					grids[1].Sync()
					rlo, rhi, clo, chi := grids[0].Distribution(p.Rank())
					for it := 0; it < iters; it++ {
						src, dst := grids[it%2], grids[(it+1)%2]
						hrlo, hrhi := max(rlo-1, 0), min(rhi+1, n)
						hclo, hchi := max(clo-1, 0), min(chi+1, n)
						w := hchi - hclo
						halo := src.Get(hrlo, hrhi, hclo, hchi)
						at := func(r, c int) float64 {
							if r < 0 || r >= n || c < 0 || c >= n {
								return 0
							}
							return halo[(r-hrlo)*w+(c-hclo)]
						}
						out := make([]float64, (rhi-rlo)*(chi-clo))
						for r := rlo; r < rhi; r++ {
							for c := clo; c < chi; c++ {
								out[(r-rlo)*(chi-clo)+(c-clo)] =
									0.25 * (at(r-1, c) + at(r+1, c) + at(r, c-1) + at(r, c+1))
							}
						}
						dst.Put(rlo, rhi, clo, chi, out)
						dst.Sync()
					}
					if p.Rank() == 0 {
						center = grids[iters%2].Get(n/2, n/2+1, n/2, n/2+1)[0]
						corner = grids[iters%2].Get(0, 1, 0, 1)[0]
					}
					p.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
				if center <= 0 || center >= 100 {
					t.Fatalf("center temperature %v not diffusing plausibly", center)
				}
				if corner >= center {
					t.Fatalf("corner (%v) hotter than center (%v)", corner, center)
				}
			})
		}
	}
}

// TestIntegrationHistogram cross-checks the accumulate-based and
// lock-striped histograms on every fabric.
func TestIntegrationHistogram(t *testing.T) {
	for _, fk := range fabrics {
		t.Run(fk.String(), func(t *testing.T) {
			const procs, samples, bins = 3, 300, 8
			var accHist, lockHist []float64
			_, err := armci.Run(armci.Options{
				Procs: procs, Fabric: fk, NumMutexes: 2,
			}, func(p *armci.Proc) {
				me := p.Rank()
				hist := p.Malloc(8 * bins)
				contrib := make([]float64, bins)
				x := uint64(me + 1)
				for i := 0; i < samples; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					contrib[x%bins]++
				}
				data := make([]byte, 8*bins)
				for b, v := range contrib {
					binary.LittleEndian.PutUint64(data[8*b:], math.Float64bits(v))
				}
				p.Accumulate(armci.AccFloat64, hist[0], armci.Contig(8*bins), data, 1.0)
				p.Barrier()
				counters := p.MallocWords(bins)
				for s := 0; s < 2; s++ {
					mu := p.Mutex(s, armci.LockQueue)
					mu.Lock()
					for b := s; b < bins; b += 2 {
						cell := counters[0].Add(int64(b))
						p.Store(cell, p.Load(cell)+int64(contrib[b]))
					}
					if p.NodeOf(0) != p.MyNode() {
						p.Fence(p.NodeOf(0))
					}
					mu.Unlock()
				}
				p.Barrier()
				if me == 0 {
					raw := p.Get(hist[0], 8*bins)
					accHist = make([]float64, bins)
					lockHist = make([]float64, bins)
					for b := 0; b < bins; b++ {
						accHist[b] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*b:]))
						lockHist[b] = float64(p.Load(counters[0].Add(int64(b))))
					}
				}
				p.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			var total float64
			for b := range accHist {
				if accHist[b] != lockHist[b] {
					t.Fatalf("bin %d: acc %v vs lock %v", b, accHist[b], lockHist[b])
				}
				total += accHist[b]
			}
			if total != procs*samples {
				t.Fatalf("total %v, want %d", total, procs*samples)
			}
		})
	}
}

// TestIntegrationTaskfarm checks exactly-once task claiming on every
// fabric, then has every worker hand its claims back with one negative
// fetch-and-add: the counter must return to zero.
func TestIntegrationTaskfarm(t *testing.T) {
	for _, fk := range fabrics {
		t.Run(fk.String(), func(t *testing.T) {
			const procs, tasks = 4, 30
			claimed := make([][]int64, procs)
			_, err := armci.Run(armci.Options{Procs: procs, Fabric: fk}, func(p *armci.Proc) {
				ctr := p.MallocWords(1)[0] // the claim counter, homed at rank 0
				for p.Rank() != 0 {
					idx := p.FetchAdd(ctr, 1)
					if idx >= tasks {
						break
					}
					claimed[p.Rank()] = append(claimed[p.Rank()], idx)
				}
				p.Barrier()
				if p.Rank() != 0 {
					p.FetchAdd(ctr, -int64(len(claimed[p.Rank()])+1)) // +1: the claim past the last task
				}
				p.Barrier()
				if p.Rank() == 0 && p.Load(ctr) != 0 {
					panic(fmt.Sprintf("counter %d after every claim was handed back", p.Load(ctr)))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]bool, tasks)
			count := 0
			for _, rows := range claimed {
				for _, idx := range rows {
					if seen[idx] {
						t.Fatalf("task %d claimed twice", idx)
					}
					seen[idx] = true
					count++
				}
			}
			if count != tasks {
				t.Fatalf("claimed %d tasks, want %d", count, tasks)
			}
		})
	}
}

// TestIntegrationSampleSort runs the distributed sample sort on every
// fabric and verifies global order and conservation.
func TestIntegrationSampleSort(t *testing.T) {
	for _, fk := range fabrics {
		t.Run(fk.String(), func(t *testing.T) {
			const procs, keys = 4, 200
			violations := 0
			_, err := armci.Run(armci.Options{Procs: procs, Fabric: fk}, func(p *armci.Proc) {
				me, n := p.Rank(), p.Size()
				rng := rand.New(rand.NewSource(int64(me) + 42))
				local := make([]int64, keys)
				for i := range local {
					local[i] = rng.Int63n(1 << 30)
				}
				sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
				// Each rank's samples fill its own n slots, so the sum is
				// every rank's samples on every rank: all pick the same
				// splitters.
				pool := make([]int64, n*n)
				for i := 0; i < n; i++ {
					pool[me*n+i] = local[(i*len(local))/n]
				}
				p.AllReduceSumInt64(pool)
				sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
				var splitters []int64
				for i := 1; i < n; i++ {
					splitters = append(splitters, pool[(i*len(pool))/n])
				}
				buckets := make([][]int64, n)
				b := 0
				for _, k := range local {
					for b < n-1 && k >= splitters[b] {
						b++
					}
					buckets[b] = append(buckets[b], k)
				}
				for q := 0; q < n; q++ {
					if q != me {
						userSend(p, q, 1, i64b(buckets[q]))
					}
				}
				merged := append([]int64(nil), buckets[me]...)
				for q := 0; q < n; q++ {
					if q != me {
						merged = append(merged, b2i64(userRecv(p, q, 1))...)
					}
				}
				sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
				myMin := int64(math.MaxInt64)
				if len(merged) > 0 {
					myMin = merged[0]
				}
				if me > 0 {
					userSend(p, me-1, 2, i64b([]int64{myMin}))
				}
				if me < n-1 {
					rightMin := b2i64(userRecv(p, me+1, 2))[0]
					if len(merged) > 0 && merged[len(merged)-1] > rightMin {
						violations++
					}
				}
				total := []int64{int64(len(merged))}
				p.AllReduceSumInt64(total)
				if total[0] != int64(n*keys) {
					panic(fmt.Sprintf("total %d keys", total[0]))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if violations != 0 {
				t.Fatalf("%d global-order violations", violations)
			}
		})
	}
}

// TestIntegrationBank moves money between accounts, each guarded by its
// own mutex homed with it, so every transfer holds two locks at once: the
// nesting that needs one queue node per (process, lock) rather than per
// process (DESIGN §7). Locks are taken in account order and released in
// reverse; a conserved total proves no update was lost. LockTicket is left
// out: its callers must be on the lock's home node.
func TestIntegrationBank(t *testing.T) {
	algs := []armci.LockAlg{armci.LockHybrid, armci.LockQueue, armci.LockQueueNoCAS, armci.LockLease}
	for _, fk := range fabrics {
		for _, alg := range algs {
			t.Run(fmt.Sprintf("%v/%v", fk, alg), func(t *testing.T) {
				const procs, accounts, transfers, initial = 4, 8, 40, 1000
				var total int64
				_, err := armci.Run(armci.Options{
					Procs: procs, Fabric: fk, NumMutexes: accounts, // lock i homed at rank i%procs
				}, func(p *armci.Proc) {
					me, n := p.Rank(), p.Size()
					// Account i is word i/n of rank i%n's allocation,
					// beside its lock.
					ptrs := p.MallocWords(accounts / n)
					table := make([]armci.Ptr, accounts)
					locks := make([]armci.Mutex, accounts)
					for i := range table {
						table[i] = ptrs[i%n].Add(int64(i / n))
						locks[i] = p.Mutex(i, alg)
					}
					if me == 0 {
						for _, a := range table {
							p.Store(a, initial)
						}
					}
					p.Barrier()
					rng := rand.New(rand.NewSource(int64(me) + 1))
					for range transfers {
						from := rng.Intn(accounts)
						to := (from + 1 + rng.Intn(accounts-1)) % accounts
						amount := int64(rng.Intn(50) + 1)
						lo, hi := min(from, to), max(from, to)
						locks[lo].Lock()
						locks[hi].Lock()
						if fb := p.Load(table[from]); fb >= amount {
							p.Store(table[from], fb-amount)
							p.Store(table[to], p.Load(table[to])+amount)
							for _, a := range []int{from, to} {
								if node := p.NodeOf(a % n); node != p.MyNode() {
									p.Fence(node)
								}
							}
						}
						locks[hi].Unlock()
						locks[lo].Unlock()
					}
					p.Barrier()
					if me == 0 {
						for _, a := range table {
							total += p.Load(a)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if total != accounts*initial {
					t.Fatalf("total balance %d, want %d: mutual exclusion failed", total, accounts*initial)
				}
			})
		}
	}
}

// userSend and userRecv are a rank's tagged point-to-point messages, the
// MPI_Send/MPI_Recv that ARMCI coexists with: a msg.KindSend on the
// rank's own endpoint, matched by source and tag, sharing the fabric with
// the one-sided traffic but never touching a data server. The payload is
// copied, so the caller may reuse its buffer at once.
func userSend(p *armci.Proc, to, tag int, data []byte) {
	p.Env().Send(msg.User(to), &msg.Message{Kind: msg.KindSend, Tag: tag, Data: append([]byte(nil), data...)})
}

func userRecv(p *armci.Proc, from, tag int) []byte {
	return p.Env().Recv(msg.MatchSrcTag(msg.KindSend, msg.User(from), tag)).Data
}

func i64b(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		for k := 0; k < 8; k++ {
			out[8*i+k] = byte(x >> (8 * k))
		}
	}
	return out
}

func b2i64(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		var x uint64
		for k := 0; k < 8; k++ {
			x |= uint64(b[8*i+k]) << (8 * k)
		}
		out[i] = int64(x)
	}
	return out
}
