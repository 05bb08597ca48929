// Package collective implements the process-to-process collective
// algorithms the paper builds its combined barrier from. Each algorithm
// is written once, as data — the calling rank's schedule: the ordered
// sends and receives it makes, each on a phase — and one runner executes
// every schedule: over no payload it is a barrier, over the vector being
// summed an all-reduce (the paper's ARMCI_Barrier is exactly that, the
// binary exchange once carrying op_init[] and once nothing). The shapes:
//
//   - the binary-exchange (recursive-doubling) element-wise sum of the
//     op_init[] arrays — Figure 2 of the paper;
//   - the binary-exchange barrier used both by MPI_Barrier and by stage 3
//     of the new ARMCI_Barrier;
//   - a dissemination barrier for process counts that are not powers of
//     two;
//   - a linear central barrier kept as an ablation baseline;
//   - a radix-r k-nomial tree barrier/allreduce and a hierarchical
//     two-level barrier/allreduce (per-node leader + inter-node exchange)
//     for the large-N sweeps — see knomial.go.
//
// All algorithms communicate directly between user processes with
// KindColl messages; data servers are not involved.
package collective

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"armci/internal/msg"
	"armci/internal/transport"
)

// Comm sequences the collectives of one process. Every process of a
// cluster must call the same collectives in the same order with the same
// operation kinds (the usual MPI rule); the internal sequence number keeps
// concurrent phases of consecutive collectives from matching each other's
// messages.
type Comm struct {
	env   transport.Env
	seq   int
	radix int       // k-nomial tree radix (0 = DefaultRadix)
	nodes *topology // lazily derived node layout (see knomial.go)

	// This rank's schedule per shape, built on first use: size, rank and
	// topology are fixed for the Comm's life, and SetRadix drops them all.
	sched [numShapes][]step

	// out is the send in progress and buf its payload, both reused from
	// send to send: Env.Send borrows a message only until it returns.
	out msg.Message
	buf []byte
}

// New builds a collective communicator over env.
func New(env transport.Env) *Comm {
	return &Comm{env: env}
}

// Rebase starts this communicator's sequence over at the base of
// membership view view, so ranks that ran different numbers of
// collectives before a repair — a survivor interrupted inside one, a
// respawn that ran none — run their next one on the same tags. A tag is
// seq<<16|phase in a 64-bit message field and a view owns 32 bits of
// sequence, so no tag of an older view equals one of a newer. Every rank
// must rebase to the same view before its next collective.
func (c *Comm) Rebase(view uint64) { c.seq = int(view) << 32 }

// A step is one blocking action of a rank's schedule: a send to peer, or
// a receive from peer that is added into (recvAdd) or replaces (recvSet)
// the payload. Messages match on (peer, phase) within one collective.
type step struct {
	op    stepOp
	peer  int
	phase int
}

type stepOp uint8

const (
	send stepOp = iota
	recvAdd
	recvSet
)

// schedule returns this rank's steps for the shape sh. Only a lone
// rank's schedule is empty, and rebuilding that one costs nothing.
func (c *Comm) schedule(sh BarrierAlg) []step {
	if c.sched[sh] == nil {
		n, me := c.env.Size(), c.env.Rank()
		switch sh {
		case BarrierPairwise:
			c.sched[sh] = pairwiseSteps(n, me)
		case BarrierDissemination:
			c.sched[sh] = disseminationSteps(n, me, 0, nil)
		case BarrierCentral:
			c.sched[sh] = centralSteps(n, me)
		case BarrierKnomial:
			c.sched[sh] = treeSteps(n, me, c.Radix(), 0, nil)
		case exchange:
			c.sched[sh] = exchangeSteps(n, me)
		case BarrierHierarchical, hierReduce:
			c.sched[sh] = hierSteps(c.topo(), me, c.Radix(), sh == hierReduce)
		}
	}
	return c.sched[sh]
}

// run executes this rank's schedule for sh over vec — the one place a
// collective touches the fabric. Every send carries the current vec as
// 8-byte little-endian words (nothing for a barrier's nil vec); every
// receive must bring exactly len(vec) words. The tag seq<<16|phase keeps
// the phases of one collective, and consecutive collectives, apart. A
// send is the Comm's message over its payload buffer, rewritten each time.
func run[T int64 | float64](c *Comm, sh BarrierAlg, vec []T) {
	for _, s := range c.schedule(sh) {
		tag := c.seq<<16 | s.phase
		if s.op == send {
			c.buf = c.buf[:0]
			for _, v := range vec {
				c.buf = binary.LittleEndian.AppendUint64(c.buf, toWord(v))
			}
			c.out = msg.Message{Kind: msg.KindColl, Tag: tag, Data: c.buf}
			c.env.Send(msg.User(s.peer), &c.out)
			continue
		}
		m := c.env.Recv(msg.MatchSrcTag(msg.KindColl, msg.User(s.peer), tag))
		if len(m.Data) != 8*len(vec) {
			panic(fmt.Sprintf("collective: vector payload of %d bytes for %d elements", len(m.Data), len(vec)))
		}
		for i := range vec {
			v := fromWord[T](binary.LittleEndian.Uint64(m.Data[8*i:]))
			if s.op == recvAdd {
				v = vec[i] + v
			}
			vec[i] = v
		}
	}
	c.seq++
}

// toWord and fromWord are the wire form of one element: an int64's two's
// complement bits, a float64's IEEE-754 bits.
func toWord[T int64 | float64](v T) uint64 {
	if f, ok := any(v).(float64); ok {
		return math.Float64bits(f)
	}
	return uint64(v)
}

func fromWord[T int64 | float64](w uint64) T {
	if _, ok := any(T(0)).(float64); ok {
		return T(math.Float64frombits(w))
	}
	return T(int64(w))
}

// BarrierAlg selects a barrier implementation.
type BarrierAlg uint8

const (
	// BarrierAuto picks pairwise exchange for power-of-two process
	// counts and dissemination otherwise.
	BarrierAuto BarrierAlg = iota
	// BarrierPairwise is the binary-exchange pattern of the paper
	// (partner = rank XOR 2^k); power-of-two process counts only.
	BarrierPairwise
	// BarrierDissemination is the generalized log-depth barrier
	// (send to rank+2^k mod N, receive from rank-2^k mod N).
	BarrierDissemination
	// BarrierCentral is the linear gather-to-0/release baseline.
	BarrierCentral
	// BarrierKnomial is the radix-r tree barrier (gather up the
	// k-nomial tree, release down it); radix set by SetRadix.
	BarrierKnomial
	// BarrierHierarchical is the two-level barrier: intra-node
	// gather/release through a per-node leader plus a dissemination
	// exchange among the leaders only.
	BarrierHierarchical

	// The two shapes only a reduction runs; every algorithm above names
	// its own barrier shape, and BarrierKnomial's serves both.
	exchange   // Fig. 2: fold, binary exchange, unfold
	hierReduce // node gather, k-nomial among leaders, release
	numShapes
)

func (a BarrierAlg) String() string {
	switch a {
	case BarrierAuto:
		return "auto"
	case BarrierPairwise:
		return "pairwise"
	case BarrierDissemination:
		return "dissemination"
	case BarrierCentral:
		return "central"
	case BarrierKnomial:
		return "knomial"
	case BarrierHierarchical:
		return "hierarchical"
	}
	return fmt.Sprintf("BarrierAlg(%d)", uint8(a))
}

// Barrier synchronizes all processes: no process returns before every
// process has entered.
func (c *Comm) Barrier(alg BarrierAlg) {
	if alg == BarrierAuto {
		alg = BarrierDissemination
		if bits.OnesCount(uint(c.env.Size())) == 1 {
			alg = BarrierPairwise
		}
	}
	if alg > BarrierHierarchical {
		panic(fmt.Sprintf("collective: unknown barrier algorithm %v", alg))
	}
	run[int64](c, alg, nil)
}

// AllReduceSumInt64 element-wise sums vec across all processes; on return
// every process holds the identical summed vector. For power-of-two
// process counts this is exactly the binary-exchange algorithm of the
// paper's Figure 2, costing log₂(N) overlapped message latencies. Other
// process counts fold the extra ranks onto the power-of-two core first
// (two extra latencies), keeping log depth.
func (c *Comm) AllReduceSumInt64(vec []int64) { run(c, exchange, vec) }

// AllReduceSumFloat64 element-wise sums a float64 vector across all
// processes with the same binary-exchange pattern as AllReduceSumInt64.
// Because float addition is not associative, every process applies the
// partial sums in the identical exchange order, so all processes return
// bit-identical results (though a different process count may round
// differently).
func (c *Comm) AllReduceSumFloat64(vec []float64) { run(c, exchange, vec) }

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
		run(c, BarrierKnomial, vec)
	case BarrierHierarchical:
		run(c, hierReduce, vec)
	default:
		run(c, exchange, vec)
	}
}

// rankAt maps position i of a builder's index space to a rank: through
// ranks when the pattern runs over a subset (the node leaders), identity
// otherwise.
func rankAt(ranks []int, i int) int {
	if ranks == nil {
		return i
	}
	return ranks[i]
}

// pairwiseSteps is log₂(N) phases of partner exchange (partner = me XOR
// 2^k, k ascending); the two messages of a phase overlap, so each phase
// costs one one-way latency. N·log₂N messages in all.
func pairwiseSteps(n, me int) []step {
	if bits.OnesCount(uint(n)) != 1 {
		panic(fmt.Sprintf("collective: pairwise barrier requires a power-of-two process count, got %d", n))
	}
	var steps []step
	for x, phase := 1, 0; x < n; x, phase = x<<1, phase+1 {
		steps = append(steps, step{send, me ^ x, phase}, step{recvAdd, me ^ x, phase})
	}
	return steps
}

// disseminationSteps is ⌈log₂(N)⌉ rounds over positions [0,n): in round
// k position me signals me+2^k and waits for me-2^k (mod n), on phases
// phase, phase+1, …. A barrier only: for n not a power of two the
// rounds do not add up to a sum.
func disseminationSteps(n, me, phase int, ranks []int) []step {
	var steps []step
	for x := 1; x < n; x, phase = x<<1, phase+1 {
		to, from := (me+x)%n, (me-x%n+n)%n
		steps = append(steps, step{send, rankAt(ranks, to), phase}, step{recvAdd, rankAt(ranks, from), phase})
	}
	return steps
}

// centralSteps gathers at rank 0 (phase 0) and releases (phase 1) —
// 2(N−1) messages with a serial bottleneck at the root; the ablation
// baseline.
func centralSteps(n, me int) []step {
	if me != 0 {
		return []step{{send, 0, 0}, {recvSet, 0, 1}}
	}
	var steps []step
	for r := 1; r < n; r++ {
		steps = append(steps, step{recvAdd, r, 0})
	}
	for r := 1; r < n; r++ {
		steps = append(steps, step{send, r, 1})
	}
	return steps
}

// unfoldPhase tags the message returning the result to a folded rank; it
// is the top of the 16-bit phase space, clear of the exchange phases.
const unfoldPhase = 1<<16 - 1

// exchangeSteps is the binary exchange of the paper's Figure 2 over the
// largest power-of-two core (partner = me XOR 2^k, k descending): log₂(N)
// overlapped message latencies. For other process counts the ranks above
// the core first fold their vector onto rank−core (phase 0) and get the
// result back at the end (unfoldPhase): two extra latencies, still log
// depth.
func exchangeSteps(n, me int) []step {
	pow2 := 1 << (bits.Len(uint(n)) - 1) // largest power of two <= n
	rem := n - pow2
	if me >= pow2 {
		return []step{{send, me - pow2, 0}, {recvSet, me - pow2, unfoldPhase}}
	}
	var steps []step
	phase := 0
	if rem > 0 {
		if me < rem {
			steps = append(steps, step{recvAdd, me + pow2, 0})
		}
		phase++
	}
	for x := pow2 / 2; x > 0; x, phase = x/2, phase+1 {
		steps = append(steps, step{send, me ^ x, phase}, step{recvAdd, me ^ x, phase})
	}
	if me < rem {
		steps = append(steps, step{send, me + pow2, unfoldPhase})
	}
	return steps
}
