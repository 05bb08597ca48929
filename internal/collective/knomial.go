// K-nomial and hierarchical two-level collectives.
//
// The binary-exchange algorithms of the paper stop being the right shape
// past a few dozen ranks: a radix-r (k-nomial) tree trades message count
// for depth (⌈log_r N⌉ rounds instead of ⌈log₂ N⌉), and on multi-core
// nodes a two-level scheme — gather/release through a per-node leader,
// inter-node exchange among leaders only — keeps all but one message per
// node off the wire. Both are driven by the node topology the transport
// already carries (env.Node), so the same code serves procnet's real
// `-ppn` layout and the synthetic ProcsPerNode layout of the in-process
// fabrics.
package collective

import "fmt"

// DefaultRadix is the k-nomial tree radix used when none is configured.
// Radix 4 is the sweet spot in the modeled costs: half the rounds of the
// binomial tree while the per-round fan-in (3 receives) still overlaps
// within one wire latency.
const DefaultRadix = 4

// releasePhase tags the leader→member release of the hierarchical
// collectives. It shares the 16-bit phase space of tag() with the
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

// barrierKnomial gathers up the radix-r tree (every rank reports to its
// parent once all children reported) and releases back down it.
func (c *Comm) barrierKnomial() {
	n, me := c.env.Size(), c.env.Rank()
	parent, children := KnomialTree(n, me, c.Radix())
	for _, child := range children {
		c.recvFrom(child, 0)
	}
	if parent >= 0 {
		c.sendTo(parent, 0, nil)
		c.recvFrom(parent, 1)
	}
	for _, child := range children {
		c.sendTo(child, 1, nil)
	}
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

// barrierHierarchical is the two-level barrier: non-leaders report to
// their node leader and wait for its release; leaders gather their node,
// run a dissemination barrier among themselves (one inter-node message
// per node per round), then release their members. On a single node it
// degenerates to the central barrier with zero wire traffic.
func (c *Comm) barrierHierarchical() {
	me := c.env.Rank()
	t := c.topo()
	if me != t.leader {
		c.sendTo(t.leader, 0, nil)
		c.recvFrom(t.leader, releasePhase)
		return
	}
	for _, m := range t.members[1:] {
		c.recvFrom(m, 0)
	}
	k := len(t.leaders)
	idx := t.leaderIndex(me)
	for x, phase := 1, 1; x < k; x, phase = x<<1, phase+1 {
		to := t.leaders[(idx+x)%k]
		from := t.leaders[(idx-x%k+k)%k]
		c.sendTo(to, phase, nil)
		c.recvFrom(from, phase)
	}
	for _, m := range t.members[1:] {
		c.sendTo(m, releasePhase, nil)
	}
}

// AllReduceSumInt64Alg element-wise sums vec across all processes using
// the communication pattern matching alg: BarrierKnomial reduces and
// broadcasts over the radix-r tree, BarrierHierarchical sums within each
// node at the leader and runs a k-nomial reduce+broadcast among leaders
// only, and every other algorithm uses the paper's binary exchange
// (AllReduceSumInt64). All variants leave the identical summed vector on
// every process.
func (c *Comm) AllReduceSumInt64Alg(vec []int64, alg BarrierAlg) {
	switch alg {
	case BarrierKnomial:
		c.allReduceKnomial(vec)
	case BarrierHierarchical:
		c.allReduceHierarchical(vec)
	default:
		c.AllReduceSumInt64(vec)
	}
}

// allReduceKnomial reduces up the radix-r tree (phase 0) and broadcasts
// the root's total back down it (phase 1): 2·depth latencies, but only
// n-1 messages per direction versus binary exchange's n·log₂ n.
func (c *Comm) allReduceKnomial(vec []int64) {
	n, me := c.env.Size(), c.env.Rank()
	if n == 1 {
		c.seq++
		return
	}
	parent, children := KnomialTree(n, me, c.Radix())
	for _, child := range children {
		m := c.recvFrom(child, 0)
		addVec(vec, m.Data)
	}
	if parent >= 0 {
		c.sendTo(parent, 0, encodeVec(vec))
		m := c.recvFrom(parent, 1)
		decodeVecInto(vec, m.Data)
	}
	for _, child := range children {
		c.sendTo(child, 1, encodeVec(vec))
	}
	c.seq++
}

// allReduceHierarchical sums member vectors at each node leader (phase
// 0), reduce+broadcasts among the leaders over a k-nomial tree spanning
// the leaders list (phases 1 and 2), and releases the total to the
// members (releasePhase). Only the leader exchange crosses node
// boundaries, so the wire carries one payload per node per tree edge.
func (c *Comm) allReduceHierarchical(vec []int64) {
	n, me := c.env.Size(), c.env.Rank()
	if n == 1 {
		c.seq++
		return
	}
	t := c.topo()
	if me != t.leader {
		c.sendTo(t.leader, 0, encodeVec(vec))
		m := c.recvFrom(t.leader, releasePhase)
		decodeVecInto(vec, m.Data)
		c.seq++
		return
	}
	for _, m := range t.members[1:] {
		got := c.recvFrom(m, 0)
		addVec(vec, got.Data)
	}
	k := len(t.leaders)
	idx := t.leaderIndex(me)
	gparent, gchildren := KnomialTree(k, idx, c.Radix())
	for _, gc := range gchildren {
		got := c.recvFrom(t.leaders[gc], 1)
		addVec(vec, got.Data)
	}
	if gparent >= 0 {
		c.sendTo(t.leaders[gparent], 1, encodeVec(vec))
		got := c.recvFrom(t.leaders[gparent], 2)
		decodeVecInto(vec, got.Data)
	}
	for _, gc := range gchildren {
		c.sendTo(t.leaders[gc], 2, encodeVec(vec))
	}
	for _, m := range t.members[1:] {
		c.sendTo(m, releasePhase, encodeVec(vec))
	}
	c.seq++
}
