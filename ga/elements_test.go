package ga_test

import (
	"fmt"
	"math/rand"
	"testing"

	"armci"
	"armci/ga"
	"armci/internal/msg"
)

// TestGatherScatterRoundTrip: scattered elements written by one rank are
// read back exactly by another, in caller order.
func TestGatherScatterRoundTrip(t *testing.T) {
	const procs, n = 4, 12
	runGA(t, procs, func(p *armci.Proc) {
		a, err := ga.Create(p, "gs", n, n)
		if err != nil {
			panic(err)
		}
		a.Fill(0)
		rng := rand.New(rand.NewSource(5))
		var elems []ga.Elem
		var vals []float64
		seen := map[ga.Elem]bool{}
		for len(elems) < 20 {
			e := ga.Elem{R: rng.Intn(n), C: rng.Intn(n)}
			if seen[e] {
				continue
			}
			seen[e] = true
			elems = append(elems, e)
			vals = append(vals, float64(100+len(elems)))
		}
		if p.Rank() == 1 {
			a.Scatter(elems, vals)
		}
		a.Sync()
		if p.Rank() == 3 {
			got := a.Gather(elems)
			for i := range vals {
				if got[i] != vals[i] {
					panic(fmt.Sprintf("element %v = %v, want %v", elems[i], got[i], vals[i]))
				}
			}
			// Untouched elements stay zero.
			if !seen[(ga.Elem{R: 0, C: 0})] {
				if zero := a.Gather([]ga.Elem{{R: 0, C: 0}}); zero[0] != 0 {
					panic("untouched element non-zero")
				}
			}
		}
		a.Sync()
	})
}

// TestGatherBatchesPerOwner: a gather touching every block costs one
// vector message per owner, not one per element.
func TestGatherBatchesPerOwner(t *testing.T) {
	const procs, n = 4, 8
	_, err := armci.Run(armci.Options{Procs: procs, Fabric: armci.FabricSim}, func(p *armci.Proc) {
		a, err := ga.Create(p, "batch", n, n)
		if err != nil {
			panic(err)
		}
		a.Fill(1)
		if p.Rank() == 0 {
			// 16 elements spread over all four blocks.
			var elems []ga.Elem
			for i := 0; i < n; i += 2 {
				for j := 0; j < n; j += 2 {
					elems = append(elems, ga.Elem{R: i, C: j})
				}
			}
			before := p.Env().Trace().Count(msg.KindGetV)
			a.Gather(elems)
			// Blocks owned by ranks 1..3 are remote: exactly 3 vector
			// gets (rank 0's own block is read locally).
			if got := p.Env().Trace().Count(msg.KindGetV) - before; got != 3 {
				panic(fmt.Sprintf("gather sent %d vector gets, want 3", got))
			}
		}
		a.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScatterValidation: length mismatch and out-of-range panic.
func TestScatterValidation(t *testing.T) {
	runGA(t, 2, func(p *armci.Proc) {
		a, _ := ga.Create(p, "v", 4, 4)
		for _, fn := range []func(){
			func() { a.Scatter([]ga.Elem{{R: 0, C: 0}}, []float64{1, 2}) },
			func() { a.Scatter([]ga.Elem{{R: 4, C: 0}}, []float64{1}) },
			func() { a.Gather([]ga.Elem{{R: 0, C: -1}}) },
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
		ctr := ga.NewCounter(p, 1)
		for {
			idx := ctr.ReadInc(1)
			if idx >= tasks {
				break
			}
			claimed[p.Rank()] = append(claimed[p.Rank()], idx)
		}
		p.Barrier()
		if p.Rank() == 1 && ctr.Value() < tasks {
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

// TestCounterHomeValidation rejects out-of-range homes.
func TestCounterHomeValidation(t *testing.T) {
	runGA(t, 2, func(p *armci.Proc) {
		defer func() {
			if recover() == nil {
				panic("bad counter home accepted")
			}
		}()
		ga.NewCounter(p, 7)
	})
}

// TestGatherScatterAllFabrics: element scatter/gather on the concurrent
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
				a.Fill(0)
				elems := []ga.Elem{{R: 0, C: 0}, {R: 3, C: 5}, {R: 7, C: 7}, {R: 4, C: 4}}
				vals := []float64{1, 2, 3, 4}
				if p.Rank() == 0 {
					a.Scatter(elems, vals)
				}
				a.Sync()
				got := a.Gather(elems)
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
