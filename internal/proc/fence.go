package proc

import (
	"fmt"

	"armci/internal/msg"
)

// Fence blocks until every fence-counted operation this process has issued
// to the given node's server has completed there (ARMCI_Fence).
//
// In FenceRequest mode (GM-like) it sends a confirmation request and waits
// for the reply: because delivery is FIFO per (source, destination) pair,
// the request reaches the server after every earlier put, so the server's
// acknowledgement proves their completion — exactly the algorithm of
// §3.1.1. In FenceAck mode it drains outstanding per-put acknowledgements.
//
// A fence against the caller's own node returns immediately: local stores
// are applied directly and synchronously, never through the server.
func (g *Engine) Fence(node int) {
	if node == g.env.Node(g.env.Rank()) {
		return
	}
	switch g.mode {
	case FenceRequest:
		if g.opInit[node] == 0 {
			return // never issued anything there; nothing to confirm
		}
		tok := g.NextToken()
		// sendCtl flushes node's coalescing buffer first: buffered ops
		// are already in op_init, so the confirmation request must trail
		// them on the FIFO pipe.
		g.sendCtl(node, g.request(msg.Message{
			Kind:   msg.KindFenceReq,
			Origin: g.env.Rank(),
			Token:  tok,
			// The NIC agent confirms against per-origin completion
			// counts rather than message FIFO; carry the issued count.
			Operands: [4]int64{g.opInit[node]},
		}))
		g.env.Recv(msg.MatchToken(msg.KindFenceAck, tok))
	case FenceAck:
		g.Flush(node) // buffered ops count as outstanding; ship them
		for g.outstanding[node] > 0 {
			g.consumeAck()
		}
	default:
		panic(fmt.Sprintf("proc: unknown fence mode %v", g.mode))
	}
}

// consumeAck receives one put acknowledgement (any server) and credits it.
func (g *Engine) consumeAck() {
	g.creditAck(g.env.Recv(msg.MatchKind(msg.KindPutAck)))
}

// creditAck credits one received put acknowledgement. A batched frame is
// acknowledged once per entry, matching the per-entry countIssue on the
// send side.
func (g *Engine) creditAck(m *msg.Message) {
	node := m.Src.ID()
	if g.outstanding[node] <= 0 {
		panic(fmt.Sprintf("proc: rank %d received excess put-ack from node %d", g.env.Rank(), node))
	}
	g.outstanding[node]--
}

// AllFence blocks until every fence-counted operation this process has
// issued has completed at every server (ARMCI_AllFence). This is the
// *original* implementation the paper improves on: in FenceRequest mode
// the process contacts, **serially**, each server it has issued operations
// to and waits for each confirmation in turn, costing up to 2(N−1) one-way
// latencies — linear in the number of processes.
func (g *Engine) AllFence() {
	g.FlushAll()
	switch g.mode {
	case FenceRequest:
		me := g.env.Node(g.env.Rank())
		for node := range g.opInit {
			if node == me {
				continue
			}
			g.Fence(node)
		}
	case FenceAck:
		for node := range g.outstanding {
			for g.outstanding[node] > 0 {
				g.consumeAck()
			}
		}
	default:
		panic(fmt.Sprintf("proc: unknown fence mode %v", g.mode))
	}
}

// AllFencePipelined is an ablation variant of AllFence (FenceRequest mode
// only): it sends every confirmation request before collecting any reply,
// overlapping the round trips. The paper's original implementation does
// not do this; the benchmark harness uses it to separate the cost of
// serialization from the cost of the linear message count.
func (g *Engine) AllFencePipelined() {
	if g.mode != FenceRequest {
		g.AllFence()
		return
	}
	g.FlushAll()
	me := g.env.Node(g.env.Rank())
	var tokens []uint64
	for node := range g.opInit {
		if node == me || g.opInit[node] == 0 {
			continue
		}
		tok := g.NextToken()
		tokens = append(tokens, tok)
		g.Send(g.ctlAddr(node), msg.Message{
			Kind:     msg.KindFenceReq,
			Origin:   g.env.Rank(),
			Token:    tok,
			Operands: [4]int64{g.opInit[node]},
		})
	}
	for _, tok := range tokens {
		g.env.Recv(msg.MatchToken(msg.KindFenceAck, tok))
	}
}
