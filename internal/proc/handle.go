package proc

import (
	"armci/internal/msg"
	"armci/internal/shmem"
)

// handleKind classes a completion handle by what finishing means.
type handleKind uint8

const (
	// hGet completes when the data response arrives.
	hGet handleKind = iota
	// hStore completes when the destination node confirms every
	// fence-counted operation this process issued there — puts and
	// accumulates have no per-op response, so a store handle's Wait is a
	// fence scoped to one node.
	hStore
)

// Handle tracks one in-flight non-blocking operation (the ARMCI
// armci_hdl_t pattern), unified across op kinds: gets carry data,
// puts/accumulates carry completion. Wait is idempotent — it blocks the
// first time and afterwards returns the cached result — and Test/Done
// genuinely poll in-flight progress instead of only reporting
// already-collected state.
type Handle struct {
	g     *Engine
	kind  handleKind
	token uint64 // response correlation (hGet)
	node  int    // destination node (hStore)
	done  bool
	data  []byte // collected payload (hGet; cached for repeated Waits)
}

// NbGet starts a non-blocking contiguous get of n bytes at src.
func (g *Engine) NbGet(src shmem.Ptr, n int) *Handle {
	return g.nbGet(src, shmem.Strided{}, n)
}

// NbGetStrided starts a non-blocking strided get. The caller may issue
// other operations, then call Wait to collect the flat buffer.
func (g *Engine) NbGetStrided(src shmem.Ptr, d shmem.Strided) *Handle {
	return g.nbGet(src, asSent(d), d.TotalBytes())
}

func (g *Engine) nbGet(src shmem.Ptr, d shmem.Strided, n int) *Handle {
	if local, data := g.getLocal(src, d, n); local {
		// Local gets complete immediately; the handle is already done.
		return &Handle{g: g, kind: hGet, done: true, data: data}
	}
	return &Handle{g: g, kind: hGet, token: g.sendGet(src, d, n)}
}

// NbPut starts a non-blocking contiguous put and returns its completion
// handle. The transfer itself is the same as Put (including coalescing
// eligibility); the handle adds per-operation completion on top of the
// fence machinery.
func (g *Engine) NbPut(dst shmem.Ptr, data []byte) *Handle {
	g.Put(dst, data)
	return g.storeHandle(dst)
}

// NbPutStrided starts a non-blocking strided put with a handle.
func (g *Engine) NbPutStrided(dst shmem.Ptr, d shmem.Strided, data []byte) *Handle {
	g.PutStrided(dst, d, data)
	return g.storeHandle(dst)
}

// NbAcc starts a non-blocking contiguous accumulate with a handle.
func (g *Engine) NbAcc(op shmem.AccOp, dst shmem.Ptr, data []byte, scale float64) *Handle {
	g.accumulate(op, dst, shmem.Strided{}, data, scale)
	return g.storeHandle(dst)
}

// storeHandle builds the completion handle of a just-issued store-class
// operation targeting dst.
func (g *Engine) storeHandle(dst shmem.Ptr) *Handle {
	if g.local(dst.Rank) {
		// Local stores apply synchronously; already complete.
		return &Handle{g: g, kind: hStore, done: true}
	}
	return &Handle{g: g, kind: hStore, node: g.env.Node(int(dst.Rank))}
}

// Done reports whether the operation has completed, polling in-flight
// progress: a pending get checks (without blocking) whether its response
// has been delivered, and a pending put/accumulate checks whether the
// destination has confirmed completion, where the fence mode makes that
// observable (FenceAck acknowledgements). In FenceRequest mode a
// store-class handle's completion is only learnable through a fence
// round trip, so Done stays false until Wait performs one.
func (h *Handle) Done() bool { return h.Test() }

// Test is Done under its traditional ARMCI name (ARMCI_Test).
func (h *Handle) Test() bool {
	if h.done {
		return true
	}
	switch h.kind {
	case hGet:
		if resp := h.g.env.TryRecv(msg.MatchToken(msg.KindGetResp, h.token)); resp != nil {
			h.data = resp.Data
			h.done = true
		}
	case hStore:
		if h.g.mode == FenceAck {
			h.g.tryDrainAcks()
			if h.g.outstanding[h.node] == 0 {
				h.done = true
			}
		}
	}
	return h.done
}

// Wait blocks until the operation completes and returns its data (nil
// for put/accumulate handles). Wait is idempotent: repeated calls return
// the same cached result.
func (h *Handle) Wait() []byte {
	if h.done {
		return h.data
	}
	switch h.kind {
	case hGet:
		resp := h.g.env.Recv(msg.MatchToken(msg.KindGetResp, h.token))
		h.data = resp.Data
	case hStore:
		h.g.Fence(h.node)
	}
	h.done = true
	return h.data
}

// WaitAll completes every handle (ARMCI_WaitAll). Store-class handles
// against the same node share one fence round trip instead of fencing
// per handle.
func (g *Engine) WaitAll(hs ...*Handle) {
	fenced := make(map[int]bool)
	var stores []*Handle
	for _, h := range hs {
		if h == nil || h.done {
			continue
		}
		if h.kind == hGet {
			h.Wait()
			continue
		}
		stores = append(stores, h)
		fenced[h.node] = true
	}
	for node := 0; node < g.env.NumNodes(); node++ {
		if fenced[node] {
			g.Fence(node)
		}
	}
	for _, h := range stores {
		h.done = true
	}
}
