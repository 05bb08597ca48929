package collective

import (
	"fmt"
	"testing"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/trace"
	"armci/internal/transport"
)

// runClusterPPN is runCluster with a node topology: consecutive ranks
// share a node, ppn per node.
func runClusterPPN(t *testing.T, procs, ppn int, params model.Params, stats *trace.Stats,
	body func(env transport.Env, c *Comm)) *transport.SimFabric {
	t.Helper()
	f, err := transport.NewSim(transport.Config{Procs: procs, ProcsPerNode: ppn, Model: params, Trace: stats})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < procs; r++ {
		f.SpawnUser(r, func(env transport.Env) {
			body(env, New(env))
		})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return f
}

// ceilLog returns ⌈log_radix n⌉ computed by integer multiplication.
func ceilLog(n, radix int) int {
	d, pow := 0, 1
	for pow < n {
		pow *= radix
		d++
	}
	return d
}

// TestKnomialTreeEdgeShapes is the construction table test: for every
// radix ∈ {2,3,4,8} and the sizes that break digit arithmetic first
// (N=1, N=radix, N=radix^k±1, radix>N), the parent/children lists of all
// ranks must partition [0,N) into exactly one tree rooted at 0, children
// must be strictly increasing, and the tree depth must be ⌈log_r N⌉ or
// one less (exactly ⌈log_r N⌉ when N is a power of the radix).
func TestKnomialTreeEdgeShapes(t *testing.T) {
	sizes := func(r int) []int {
		s := []int{1, 2, r - 1, r, r + 1, r*r - 1, r * r, r*r + 1, r*r*r - 1, r * r * r, r*r*r + 1}
		// radix > N shapes: every rank is a direct child of the root.
		s = append(s, r/2+1)
		var out []int
		for _, n := range s {
			if n >= 1 {
				out = append(out, n)
			}
		}
		return out
	}
	for _, radix := range []int{2, 3, 4, 8} {
		for _, n := range sizes(radix) {
			t.Run(fmt.Sprintf("radix=%d/n=%d", radix, n), func(t *testing.T) {
				parents := make([]int, n)
				childOf := make(map[int]int) // child rank -> parent that lists it
				for me := 0; me < n; me++ {
					parent, children := KnomialTree(n, me, radix)
					parents[me] = parent
					for i, ch := range children {
						if ch <= me || ch >= n {
							t.Fatalf("rank %d lists child %d outside (%d,%d)", me, ch, me, n)
						}
						if i > 0 && ch <= children[i-1] {
							t.Fatalf("rank %d children not strictly increasing: %v", me, children)
						}
						if prev, dup := childOf[ch]; dup {
							t.Fatalf("rank %d claimed by parents %d and %d", ch, prev, me)
						}
						childOf[ch] = me
					}
				}
				// Every rank except the root is someone's child, and the
				// parent fields agree with the children lists.
				if parents[0] != -1 {
					t.Fatalf("root parent = %d, want -1", parents[0])
				}
				for me := 1; me < n; me++ {
					p, ok := childOf[me]
					if !ok {
						t.Fatalf("rank %d appears in no children list", me)
					}
					if p != parents[me] {
						t.Fatalf("rank %d: parent %d but listed as child of %d", me, parents[me], p)
					}
				}
				// Depth: follow parent chains; acyclic by the child>parent
				// ordering above, so chains terminate at the root.
				depth := 0
				for me := 0; me < n; me++ {
					d := 0
					for r := me; parents[r] != -1; r = parents[r] {
						d++
					}
					if d > depth {
						depth = d
					}
				}
				want := ceilLog(n, radix)
				if n == 1 {
					if depth != 0 {
						t.Fatalf("single-rank tree has depth %d", depth)
					}
					return
				}
				if depth != want && depth != want-1 {
					t.Fatalf("depth %d, want ⌈log_%d %d⌉ = %d (or one less)", depth, radix, n, want)
				}
				if pow := powOf(n, radix); pow && depth != want {
					t.Fatalf("N=%d is radix^%d but depth %d != %d", n, want, depth, want)
				}
			})
		}
	}
}

func powOf(n, radix int) bool {
	for p := 1; p <= n; p *= radix {
		if p == n {
			return true
		}
	}
	return false
}

// TestKnomialTreeRejectsBadArgs pins the loud-failure contract.
func TestKnomialTreeRejectsBadArgs(t *testing.T) {
	for _, bad := range []func(){
		func() { KnomialTree(4, 0, 1) },
		func() { KnomialTree(4, 4, 2) },
		func() { KnomialTree(4, -1, 2) },
		func() { KnomialTree(0, 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("KnomialTree accepted invalid arguments")
				}
			}()
			bad()
		}()
	}
}

// TestKnomialBarrierSafety runs the fundamental invariant over radices
// and sizes, including non-powers of the radix: no rank may leave the
// barrier before the last rank entered.
func TestKnomialBarrierSafety(t *testing.T) {
	for _, radix := range []int{2, 3, 4, 8} {
		for _, procs := range []int{2, 5, 8, 16, 27} {
			t.Run(fmt.Sprintf("radix=%d/procs=%d", radix, procs), func(t *testing.T) {
				enter := make([]time.Duration, procs)
				exit := make([]time.Duration, procs)
				runCluster(t, procs, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
					c.SetRadix(radix)
					env.Clock().Sleep(time.Duration(env.Rank()*41) * time.Microsecond)
					enter[env.Rank()] = env.Clock().Now()
					c.Barrier(BarrierKnomial)
					exit[env.Rank()] = env.Clock().Now()
				})
				var lastEnter, firstExit time.Duration
				for r := 0; r < procs; r++ {
					if enter[r] > lastEnter {
						lastEnter = enter[r]
					}
					if r == 0 || exit[r] < firstExit {
						firstExit = exit[r]
					}
				}
				if firstExit < lastEnter {
					t.Fatalf("rank left at %v before the last entered at %v", firstExit, lastEnter)
				}
			})
		}
	}
}

// TestKnomialBarrierMessageCount pins the complexity: a tree barrier
// moves exactly 2(N−1) messages regardless of radix — the reason it
// wins over dissemination's N·⌈log₂N⌉ at large N.
func TestKnomialBarrierMessageCount(t *testing.T) {
	for _, radix := range []int{2, 4} {
		for _, procs := range []int{6, 16, 27} {
			stats := trace.New()
			runCluster(t, procs, model.Zero(), stats, func(env transport.Env, c *Comm) {
				c.SetRadix(radix)
				c.Barrier(BarrierKnomial)
			})
			if got, want := stats.Count(msg.KindColl), 2*(procs-1); got != want {
				t.Fatalf("radix %d N=%d moved %d messages, want %d", radix, procs, got, want)
			}
		}
	}
}

// TestHierarchicalBarrierSafety covers node shapes from one-rank-per-node
// (pure leader dissemination) through single-node (pure central) and an
// uneven last node.
func TestHierarchicalBarrierSafety(t *testing.T) {
	shapes := []struct{ procs, ppn int }{
		{8, 2}, {12, 4}, {6, 3}, {5, 2}, {7, 1}, {6, 6}, {9, 4},
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("procs=%d/ppn=%d", s.procs, s.ppn), func(t *testing.T) {
			enter := make([]time.Duration, s.procs)
			exit := make([]time.Duration, s.procs)
			runClusterPPN(t, s.procs, s.ppn, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
				env.Clock().Sleep(time.Duration((s.procs-env.Rank())*23) * time.Microsecond)
				enter[env.Rank()] = env.Clock().Now()
				c.Barrier(BarrierHierarchical)
				exit[env.Rank()] = env.Clock().Now()
			})
			var lastEnter, firstExit time.Duration
			for r := 0; r < s.procs; r++ {
				if enter[r] > lastEnter {
					lastEnter = enter[r]
				}
				if r == 0 || exit[r] < firstExit {
					firstExit = exit[r]
				}
			}
			if firstExit < lastEnter {
				t.Fatalf("rank left at %v before the last entered at %v", firstExit, lastEnter)
			}
		})
	}
}

// TestHierarchicalBarrierWireTraffic proves the point of the two-level
// scheme: member gather/release stays on-node, so only the leader
// dissemination crosses node boundaries — nodes·⌈log₂ nodes⌉ wire
// messages versus N·⌈log₂ N⌉ for the flat algorithm.
func TestHierarchicalBarrierWireTraffic(t *testing.T) {
	const procs, ppn = 8, 4 // 2 nodes
	stats := trace.New()
	stats.SetTimeline(true)
	runClusterPPN(t, procs, ppn, model.Zero(), stats, func(env transport.Env, c *Comm) {
		c.Barrier(BarrierHierarchical)
	})
	node := func(a msg.Addr) int { return a.ID() / ppn }
	total, wire := 0, 0
	for _, e := range stats.Timeline() {
		if e.Kind != msg.KindColl {
			continue
		}
		total++
		if node(e.Src) != node(e.Dst) {
			wire++
		}
	}
	// Per node: (ppn−1) gathers + (ppn−1) releases; leaders: 2 nodes × 1
	// dissemination round.
	if want := 2*2*(ppn-1) + 2; total != want {
		t.Fatalf("hierarchical barrier moved %d messages, want %d", total, want)
	}
	if want := 2; wire != want {
		t.Fatalf("%d messages crossed node boundaries, want %d", wire, want)
	}
}

// TestAllReduceSumInt64Alg checks the tree and hierarchical reductions
// against directly computed sums across sizes, radices and node shapes.
func TestAllReduceSumInt64Alg(t *testing.T) {
	shapes := []struct {
		alg   BarrierAlg
		radix int
		procs int
		ppn   int
	}{
		{BarrierKnomial, 2, 6, 1}, {BarrierKnomial, 3, 9, 1}, {BarrierKnomial, 4, 16, 1},
		{BarrierKnomial, 4, 17, 1}, {BarrierKnomial, 8, 5, 1},
		{BarrierHierarchical, 4, 8, 2}, {BarrierHierarchical, 4, 12, 4},
		{BarrierHierarchical, 2, 5, 2}, {BarrierHierarchical, 4, 6, 6}, {BarrierHierarchical, 4, 7, 1},
		{BarrierAuto, 4, 6, 2}, // dispatcher falls back to binary exchange
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%v/r=%d/procs=%d/ppn=%d", s.alg, s.radix, s.procs, s.ppn), func(t *testing.T) {
			const width = 5
			results := make([][]int64, s.procs)
			runClusterPPN(t, s.procs, s.ppn, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
				c.SetRadix(s.radix)
				me := env.Rank()
				env.Clock().Sleep(time.Duration(me*me*5) * time.Microsecond)
				for round := 0; round < 3; round++ {
					vec := make([]int64, width)
					for i := range vec {
						vec[i] = int64(me + round + i*100)
					}
					c.AllReduceSumInt64Alg(vec, s.alg)
					if round == 2 {
						results[me] = vec
					}
				}
			})
			base := int64(s.procs * (s.procs - 1) / 2)
			for r := 0; r < s.procs; r++ {
				for i := 0; i < width; i++ {
					want := base + int64(s.procs)*int64(2+i*100)
					if results[r][i] != want {
						t.Fatalf("rank %d slot %d = %d, want %d", r, i, results[r][i], want)
					}
				}
			}
		})
	}
}
