package proc

import (
	"armci/internal/shmem"
)

// Handle tracks the completion of one non-blocking store (the ARMCI
// armci_hdl_t pattern): a put or accumulate has no per-op response, so
// it completes when the destination node confirms every fence-counted
// operation this process issued there. WaitAll completes handles with
// one fence per destination node; a handle already done costs nothing.
type Handle struct {
	node int // destination node
	done bool
}

// NbPut starts a non-blocking contiguous put and returns its completion
// handle. The transfer itself is the same as Put (including coalescing
// eligibility); the handle adds per-operation completion on top of the
// fence machinery.
func (g *Engine) NbPut(dst shmem.Ptr, data []byte) *Handle {
	g.Put(dst, data)
	return g.storeHandle(dst)
}

// NbAcc starts a non-blocking contiguous accumulate with a handle.
func (g *Engine) NbAcc(op shmem.AccOp, dst shmem.Ptr, data []byte, scale float64) *Handle {
	g.accumulate(op, dst, shmem.Strided{}, data, scale)
	return g.storeHandle(dst)
}

// handleChunk is how many handles storeHandle carves from one allocation.
const handleChunk = 16

// storeHandle builds the completion handle of a just-issued store-class
// operation targeting dst. Handles are carved from an engine-owned chunk,
// the way msg.Arena carves messages: a slot is never handed out twice, so
// a caller may keep a handle as long as it likes; what it costs is the
// chunk it pins.
func (g *Engine) storeHandle(dst shmem.Ptr) *Handle {
	if len(g.handles) == 0 {
		g.handles = make([]Handle, handleChunk)
	}
	h := &g.handles[0]
	g.handles = g.handles[1:]
	if g.local(dst.Rank) {
		// Local stores apply synchronously; already complete.
		h.done = true
	} else {
		h.node = g.env.Node(int(dst.Rank))
	}
	return h
}

// WaitAll completes every handle (ARMCI_WaitAll). Handles against the
// same node share one fence round trip instead of fencing per handle. The
// nodes to fence are marked in an engine-owned slice, so beyond its fences
// a call allocates nothing.
func (g *Engine) WaitAll(hs ...*Handle) {
	for _, h := range hs {
		if h != nil && !h.done {
			g.waitNodes[h.node] = true
		}
	}
	for node, marked := range g.waitNodes {
		if marked {
			g.waitNodes[node] = false
			g.Fence(node)
		}
	}
	for _, h := range hs {
		if h != nil {
			h.done = true
		}
	}
}
