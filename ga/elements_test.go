package ga_test

import (
	"fmt"
	"math/rand"
	"testing"

	"armci"
	"armci/ga"
	"armci/internal/msg"
)

// Element-wise access is a 1×1 patch Put or Get; a shared counter is one
// word from MallocWords driven by FetchAdd (NGA_Read_inc in ARMCI terms).

type elem struct{ r, c int }

func putElems(a *ga.Array, elems []elem, vals []float64) {
	for i, e := range elems {
		a.Put(e.r, e.r+1, e.c, e.c+1, vals[i:i+1])
	}
}

func getElems(a *ga.Array, elems []elem) []float64 {
	out := make([]float64, len(elems))
	for i, e := range elems {
		out[i] = a.Get(e.r, e.r+1, e.c, e.c+1)[0]
	}
	return out
}

// TestGatherScatterEdgeShapes is the table of element shapes that break
// owner addressing first: a single element, repeated reads of one
// element, a whole row and column crossing every block boundary — each
// at one rank, a non-power-of-two count, and a square count.
func TestGatherScatterEdgeShapes(t *testing.T) {
	for _, procs := range []int{1, 3, 4, 6} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			const n = 8
			runGA(t, procs, func(p *armci.Proc) {
				a, err := ga.Create(p, "edge", n, n)
				if err != nil {
					panic(err)
				}
				if p.Rank() == 0 {
					elems := []elem{{3, 5}}
					for c := 0; c < n; c++ {
						elems = append(elems, elem{6, c})
					}
					for r := 0; r < n; r++ {
						elems = append(elems, elem{r, 1})
					}
					vals := make([]float64, len(elems))
					for i, e := range elems {
						vals[i] = float64(10*e.r + e.c + 1)
					}
					putElems(a, elems, vals)
				}
				a.Sync()

				if p.Rank() == p.Size()-1 {
					probe := []elem{{3, 5}, {3, 5}, {6, 0}, {6, 7}, {0, 1}, {7, 1}, {5, 5}}
					want := []float64{36, 36, 61, 68, 2, 72, 0}
					got := getElems(a, probe)
					for i := range probe {
						if got[i] != want[i] {
							panic(fmt.Sprintf("element %v = %v, want %v", probe[i], got[i], want[i]))
						}
					}
				}
				a.Sync()
			})
		})
	}
}

// TestScatterLengthMismatchPanics pins the documented contract: a put
// whose buffer disagrees with its patch must refuse loudly.
func TestScatterLengthMismatchPanics(t *testing.T) {
	runGA(t, 2, func(p *armci.Proc) {
		a, err := ga.Create(p, "mismatch", 4, 4)
		if err != nil {
			panic(err)
		}
		if p.Rank() == 0 {
			defer func() {
				if recover() == nil {
					panic("put accepted 1 value for a 2-element patch")
				}
			}()
			a.Put(0, 1, 0, 2, []float64{1})
		}
	})
}

// TestCounterEdgeIncrements exercises the FetchAdd counter at one rank
// and at non-power-of-two sizes, with zero and negative increments mixed
// in: the claimed intervals must tile exactly with no slot double-claimed.
func TestCounterEdgeIncrements(t *testing.T) {
	for _, procs := range []int{1, 3, 5} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runGA(t, procs, func(p *armci.Proc) {
				home := p.Size() - 1
				c := p.MallocWords(1)[home]

				// A zero increment is a pure read and must not perturb.
				_ = p.FetchAdd(c, 0)

				const claims = 5
				got := make([]int64, claims)
				for i := range got {
					got[i] = p.FetchAdd(c, 2)
				}
				p.Barrier()
				// Every rank claimed disjoint stride-2 intervals; the final
				// value is the total.
				if p.Rank() == home {
					if v := p.FetchAdd(c, 0); v != int64(2*claims*p.Size()) {
						panic(fmt.Sprintf("counter = %d, want %d", v, 2*claims*p.Size()))
					}
				}
				seen := make(map[int64]bool)
				for _, v := range got {
					if v%2 != 0 || seen[v] {
						panic(fmt.Sprintf("rank %d claimed overlapping or misaligned interval at %d (claims %v)", p.Rank(), v, got))
					}
					seen[v] = true
				}
				p.Barrier()

				// Negative increments roll the counter back down to zero.
				for i := 0; i < claims; i++ {
					p.FetchAdd(c, -2)
				}
				p.Barrier()
				if p.Rank() == 0 {
					if v := p.FetchAdd(c, 0); v != 0 {
						panic(fmt.Sprintf("counter after rollback = %d, want 0", v))
					}
				}
			})
		})
	}
}

// TestGatherScatterRoundTrip: scattered elements written by one rank are
// read back exactly by another, in caller order.
func TestGatherScatterRoundTrip(t *testing.T) {
	const procs, n = 4, 12
	runGA(t, procs, func(p *armci.Proc) {
		a, err := ga.Create(p, "gs", n, n)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(5))
		var elems []elem
		var vals []float64
		seen := map[elem]bool{}
		for len(elems) < 20 {
			e := elem{rng.Intn(n), rng.Intn(n)}
			if seen[e] {
				continue
			}
			seen[e] = true
			elems = append(elems, e)
			vals = append(vals, float64(100+len(elems)))
		}
		if p.Rank() == 1 {
			putElems(a, elems, vals)
		}
		a.Sync()
		if p.Rank() == 3 {
			got := getElems(a, elems)
			for i := range vals {
				if got[i] != vals[i] {
					panic(fmt.Sprintf("element %v = %v, want %v", elems[i], got[i], vals[i]))
				}
			}
			// Untouched elements stay zero.
			if !seen[elem{0, 0}] {
				if zero := getElems(a, []elem{{0, 0}}); zero[0] != 0 {
					panic("untouched element non-zero")
				}
			}
		}
		a.Sync()
	})
}

// TestGatherBatchesPerOwner: a read touching every block costs one get
// message per remote owner, not one per element.
func TestGatherBatchesPerOwner(t *testing.T) {
	const procs, n = 4, 8
	runGA(t, procs, func(p *armci.Proc) {
		a, err := ga.Create(p, "batch", n, n)
		if err != nil {
			panic(err)
		}
		if p.Rank() == 0 {
			before := p.Env().Trace().Count(msg.KindGet)
			a.Get(0, n, 0, n)
			// Blocks owned by ranks 1..3 are remote: exactly 3 gets
			// (rank 0's own block is read locally).
			if got := p.Env().Trace().Count(msg.KindGet) - before; got != 3 {
				panic(fmt.Sprintf("get sent %d get messages, want 3", got))
			}
		}
		a.Sync()
	})
}

// TestScatterValidation: length mismatch and out-of-range panic.
func TestScatterValidation(t *testing.T) {
	runGA(t, 2, func(p *armci.Proc) {
		a, _ := ga.Create(p, "v", 4, 4)
		for _, fn := range []func(){
			func() { a.Put(0, 1, 0, 1, []float64{1, 2}) },
			func() { a.Put(4, 5, 0, 1, []float64{1}) },
			func() { a.Get(0, 1, -1, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						panic("invalid element op accepted")
					}
				}()
				fn()
			}()
		}
		a.Sync()
	})
}

// TestCounterTaskClaiming: the NGA_Read_inc pattern — workers atomically
// claim disjoint task indices; every task is claimed exactly once.
func TestCounterTaskClaiming(t *testing.T) {
	const procs, tasks = 4, 40
	claimed := make([][]int64, procs)
	_, err := armci.Run(armci.Options{Procs: procs, Fabric: armci.FabricChan}, func(p *armci.Proc) {
		ctr := p.MallocWords(1)[1]
		for {
			idx := p.FetchAdd(ctr, 1)
			if idx >= tasks {
				break
			}
			claimed[p.Rank()] = append(claimed[p.Rank()], idx)
		}
		p.Barrier()
		if p.Rank() == 1 && p.FetchAdd(ctr, 0) < tasks {
			panic("counter below task count after completion")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, tasks)
	total := 0
	for r := range claimed {
		for _, idx := range claimed[r] {
			if seen[idx] {
				t.Fatalf("task %d claimed twice", idx)
			}
			seen[idx] = true
			total++
		}
	}
	if total != tasks {
		t.Fatalf("%d tasks claimed, want %d", total, tasks)
	}
}

// TestGatherScatterAllFabrics: element puts and gets on the concurrent
// fabrics too (messages over channels and real TCP sockets).
func TestGatherScatterAllFabrics(t *testing.T) {
	for _, fk := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
		t.Run(fk.String(), func(t *testing.T) {
			const procs, n = 4, 8
			_, err := armci.Run(armci.Options{Procs: procs, Fabric: fk}, func(p *armci.Proc) {
				a, err := ga.Create(p, "xf", n, n)
				if err != nil {
					panic(err)
				}
				elems := []elem{{0, 0}, {3, 5}, {7, 7}, {4, 4}}
				vals := []float64{1, 2, 3, 4}
				if p.Rank() == 0 {
					putElems(a, elems, vals)
				}
				a.Sync()
				got := getElems(a, elems)
				for i := range vals {
					if got[i] != vals[i] {
						panic(fmt.Sprintf("rank %d: element %v = %v, want %v",
							p.Rank(), elems[i], got[i], vals[i]))
					}
				}
				a.Sync()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCopy: GA_Copy as a whole-array Get then Put — two arrays created
// back to back hold disjoint memory.
func TestCopy(t *testing.T) {
	runGA(t, 4, func(p *armci.Proc) {
		src, err := ga.Create(p, "src", 9, 7)
		if err != nil {
			panic(err)
		}
		dst, err := ga.Create(p, "dst", 9, 7)
		if err != nil {
			panic(err)
		}
		if p.Rank() == 0 {
			vals := make([]float64, 9*7)
			for i := range vals {
				vals[i] = 100 + float64(i)
			}
			src.Put(0, 9, 0, 7, vals)
		}
		src.Sync()
		if p.Rank() == 1 {
			dst.Put(0, 9, 0, 7, src.Get(0, 9, 0, 7))
		}
		dst.Sync()
		got := dst.Get(0, 9, 0, 7)
		for i, v := range got {
			if v != 100+float64(i) {
				panic(fmt.Sprintf("element %d = %v", i, v))
			}
		}
		dst.Sync()
	})
}
