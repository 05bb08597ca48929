// K-nomial and hierarchical two-level schedules.
//
// The binary-exchange algorithms of the paper stop being the right shape
// past a few dozen ranks: a radix-r (k-nomial) tree trades message count
// for depth (⌈log_r N⌉ rounds instead of ⌈log₂ N⌉), and on multi-core
// nodes a two-level scheme — gather/release through a per-node leader,
// inter-node exchange among leaders only — keeps all but one message per
// node off the wire. This file holds their two schedule builders
// (treeSteps, hierSteps) and the tree and node arithmetic they are built
// from; the runner in collective.go executes them as a barrier or as a
// reduction. The node layout is the one the transport already carries
// (env.Node), so the same schedules serve procnet's real `-ppn` layout
// and the synthetic ProcsPerNode layout of the in-process fabrics.
package collective

import "fmt"

// DefaultRadix is the k-nomial tree radix used when none is configured.
// Radix 4 is the sweet spot in the modeled costs: half the rounds of the
// binomial tree while the per-round fan-in (3 receives) still overlaps
// within one wire latency.
const DefaultRadix = 4

// releasePhase tags the leader→member release of the hierarchical
// collectives. It shares the runner's 16-bit phase space with the
// inter-leader exchange phases, which stay below log₂(nodes)+2.
const releasePhase = 1 << 15

// SetRadix sets the k-nomial tree radix used by BarrierKnomial and the
// tree-based allreduce. Radix must be at least 2 (radix 2 is exactly the
// binomial tree). All processes must configure the same radix.
func (c *Comm) SetRadix(radix int) {
	if radix < 2 {
		panic(fmt.Sprintf("collective: k-nomial radix must be >= 2, got %d", radix))
	}
	c.radix = radix
	c.sched = [numShapes][]step{} // the tree schedules were built for the old radix
}

// Radix returns the configured k-nomial radix (DefaultRadix if unset).
func (c *Comm) Radix() int {
	if c.radix == 0 {
		return DefaultRadix
	}
	return c.radix
}

// KnomialTree computes rank me's position in the radix-r k-nomial tree
// over ranks [0,n) rooted at 0: the parent (-1 for the root) and the
// children in strictly increasing rank order.
//
// The tree is digit-based: write me in base radix; the parent clears the
// least-significant nonzero digit, and the children set one digit below
// that position to each nonzero value (the root owns every position).
// This partitions [0,n) for every n, including non-powers of the radix,
// and the depth is at most ⌈log_radix n⌉.
func KnomialTree(n, me, radix int) (parent int, children []int) {
	if radix < 2 {
		panic(fmt.Sprintf("collective: k-nomial radix must be >= 2, got %d", radix))
	}
	if n < 1 || me < 0 || me >= n {
		panic(fmt.Sprintf("collective: rank %d outside tree over [0,%d)", me, n))
	}
	// limit = radix^L where L is the position of me's least-significant
	// nonzero digit: children may set any digit position below L.
	limit := n // the root owns every digit position that fits under n
	parent = -1
	if me != 0 {
		pow := 1
		for (me/pow)%radix == 0 {
			pow *= radix
		}
		parent = me - (me/pow%radix)*pow
		limit = pow
	}
	for pow := 1; pow < limit; pow *= radix {
		for d := 1; d < radix; d++ {
			child := me + d*pow
			if child >= n {
				break
			}
			children = append(children, child)
		}
	}
	return parent, children
}

// treeSteps is the radix-r tree over positions [0,n) rooted at 0, run up
// then down: every position takes its children's contributions (phase),
// reports to its parent and waits for the parent's total (phase+1), then
// passes the total down. 2·depth latencies with depth ⌈log_r n⌉, but only
// n−1 messages per direction versus binary exchange's n·log₂ n — and a
// parent takes its r−1 children of a round one after the other.
func treeSteps(n, me, radix, phase int, ranks []int) []step {
	parent, children := KnomialTree(n, me, radix)
	var steps []step
	for _, child := range children {
		steps = append(steps, step{recvAdd, rankAt(ranks, child), phase})
	}
	if parent >= 0 {
		up := rankAt(ranks, parent)
		steps = append(steps, step{send, up, phase}, step{recvSet, up, phase + 1})
	}
	for _, child := range children {
		steps = append(steps, step{send, rankAt(ranks, child), phase + 1})
	}
	return steps
}

// topology is the per-node view every rank derives from env.Node: its
// node's leader (the lowest rank on the node), the co-located ranks, and
// the leaders of all nodes in first-appearance order. Every rank scans
// ranks 0..n-1 in the same order, so all ranks agree on every list.
type topology struct {
	leader  int
	members []int // ranks of my node, ascending (leader first)
	leaders []int // one leader per node, by first appearance
}

func (c *Comm) topo() *topology {
	if c.nodes != nil {
		return c.nodes
	}
	n, me := c.env.Size(), c.env.Rank()
	myNode := c.env.Node(me)
	t := &topology{}
	seen := make(map[int]bool)
	for r := 0; r < n; r++ {
		node := c.env.Node(r)
		if !seen[node] {
			seen[node] = true
			t.leaders = append(t.leaders, r)
		}
		if node == myNode {
			t.members = append(t.members, r)
		}
	}
	t.leader = t.members[0]
	c.nodes = t
	return t
}

// leaderIndex returns my position in the leaders list.
func (t *topology) leaderIndex(me int) int {
	for i, l := range t.leaders {
		if l == me {
			return i
		}
	}
	panic(fmt.Sprintf("collective: rank %d is not a node leader", me))
}

// hierSteps is the two-level shape: non-leaders report to their node
// leader (phase 0) and wait for its release (releasePhase); leaders
// gather their node, run the inter-node stage among themselves from phase
// 1 — a dissemination barrier (one inter-node message per node per
// round), or for a reduction a k-nomial reduce+broadcast spanning the
// leaders list (phases 1 and 2) — then release their members. Only the
// leader stage crosses node boundaries, so the wire carries one message
// per node per round or tree edge; on a single node the shape degenerates
// to the central one with zero wire traffic.
func hierSteps(t *topology, me, radix int, reduce bool) []step {
	if me != t.leader {
		return []step{{send, t.leader, 0}, {recvSet, t.leader, releasePhase}}
	}
	var steps []step
	for _, m := range t.members[1:] {
		steps = append(steps, step{recvAdd, m, 0})
	}
	k, idx := len(t.leaders), t.leaderIndex(me)
	if reduce {
		steps = append(steps, treeSteps(k, idx, radix, 1, t.leaders)...)
	} else {
		steps = append(steps, disseminationSteps(k, idx, 1, t.leaders)...)
	}
	for _, m := range t.members[1:] {
		steps = append(steps, step{send, m, releasePhase})
	}
	return steps
}
