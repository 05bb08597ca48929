// Package proc implements the client side of the ARMCI engine: the
// machinery a user process uses to issue one-sided operations against
// remote memory through the data servers, to track outstanding operations
// for fencing, and to run the fence algorithms of the original ARMCI
// implementation.
//
// The engine follows the paper's client-server model (§2): an operation
// whose target rank lives on the caller's own SMP node is applied directly
// to shared memory; an operation on any other node is shipped to that
// node's data server. Non-blocking stores (put, accumulate, word store)
// are counted per destination node in op_init[], the array the new
// combined barrier distributes; blocking operations (get, RMW) complete by
// response and need no fence tracking.
package proc

import (
	"fmt"

	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/trace"
	"armci/internal/transport"
	"armci/internal/wire"
)

// FenceMode selects how put completion is detected, mirroring the two
// classes of communication subsystems in §3.1.1 of the paper.
type FenceMode uint8

const (
	// FenceRequest is the GM-like mode: puts are unacknowledged and a
	// fence must send an explicit confirmation request to each server.
	// This is the mode of the paper's testbed and the default.
	FenceRequest FenceMode = iota
	// FenceAck is the LAPI/VIA-like mode: the server acknowledges every
	// put, and a fence just drains outstanding acknowledgements.
	FenceAck
)

func (m FenceMode) String() string {
	switch m {
	case FenceRequest:
		return "request"
	case FenceAck:
		return "ack"
	}
	return fmt.Sprintf("FenceMode(%d)", uint8(m))
}

// Layout is the cluster-global shared-memory bootstrap: the locations
// every actor must agree on before the run starts. It is built once by the
// runtime and handed to every user engine and every server.
type Layout struct {
	// OpDone[n] is the word cell, on node n, in which node n's server
	// counts completed fence-counted operations (the paper's op_done).
	OpDone []shmem.Ptr
	// PerOrigin[n] points at P words on node n; word r counts the
	// fence-counted operations of origin rank r completed at node n.
	// The NIC-assisted fence (§5 future work) confirms against these
	// instead of relying on FIFO message order.
	PerOrigin []shmem.Ptr
}

// NewLayout allocates the bootstrap cells in space: one op_done counter
// per node, homed at the first rank of the node.
func NewLayout(space *shmem.Space, procs, numNodes int) *Layout {
	l := &Layout{
		OpDone:    make([]shmem.Ptr, numNodes),
		PerOrigin: make([]shmem.Ptr, numNodes),
	}
	firstRank := make([]int, numNodes)
	for i := range firstRank {
		firstRank[i] = -1
	}
	for r := 0; r < procs; r++ {
		n := space.Node(r)
		if firstRank[n] == -1 {
			firstRank[n] = r
		}
	}
	for n := 0; n < numNodes; n++ {
		l.OpDone[n] = space.AllocWords(firstRank[n], 1)
		l.PerOrigin[n] = space.AllocWords(firstRank[n], procs)
	}
	return l
}

// Engine is the per-process ARMCI client state.
type Engine struct {
	env  transport.Env
	lay  *Layout
	mode FenceMode

	// useNIC routes atomic operations and fence confirmations to the
	// per-node NIC agents instead of the host data servers (§5 future
	// work). Puts and gets still go through the servers.
	useNIC bool

	// coal, when non-nil, buffers eligible small puts and accumulates
	// per destination node and ships each buffer as one KindBatch frame.
	// Every other send to a node (gets, big puts, RMWs, fences) flushes
	// that node's buffer first, so program order on the per-pair FIFO
	// pipe — and with it fence semantics — is preserved exactly.
	coal *pipeline.Coalescer

	opInit      []int64 // fence-counted ops issued, per destination node
	outstanding []int64 // unacknowledged ops, per destination node (FenceAck)
	tokens      uint64

	// out is the engine's request being sent, and stride its region:
	// each send rewrites them, since Env.Send borrows a message only
	// until it returns. A request's payload and stride vectors are its
	// caller's own, lent the same way.
	out    msg.Message
	stride shmem.Strided

	// flagTag is WaitFlag's diagnostic wait tag, read only when a wait
	// times out; built once so the wait itself allocates nothing.
	flagTag string

	// handles is the rest of the chunk storeHandle carves handles from;
	// waitNodes marks, per destination node, whether a WaitAll call has a
	// pending handle there.
	handles   []Handle
	waitNodes []bool
}

// NewEngine builds the engine for the calling user process.
func NewEngine(env transport.Env, lay *Layout, mode FenceMode) *Engine {
	return &Engine{
		env:         env,
		lay:         lay,
		mode:        mode,
		opInit:      make([]int64, env.NumNodes()),
		outstanding: make([]int64, env.NumNodes()),
		waitNodes:   make([]bool, env.NumNodes()),
		flagTag:     fmt.Sprintf("wait-flag@p%d", env.Rank()),
	}
}

// Env returns the engine's execution environment.
func (g *Engine) Env() transport.Env { return g.env }

// Layout returns the cluster bootstrap layout.
func (g *Engine) Layout() *Layout { return g.lay }

// SetNICAssist enables routing of RMW and fence traffic to NIC agents.
// The cluster must have been brought up with agents (see server.Agent).
func (g *Engine) SetNICAssist(on bool) { g.useNIC = on }

// SetCoalescing turns the per-destination small-op coalescing stage on
// or off. Off (the default) leaves the send path untouched.
func (g *Engine) SetCoalescing(on bool) {
	g.coal = nil
	if on {
		g.coal = pipeline.NewCoalescer(g.env.Rank())
	}
}

// Coalescer returns the coalescing stage, nil while coalescing is off.
func (g *Engine) Coalescer() *pipeline.Coalescer { return g.coal }

// ctlAddr returns the endpoint that handles control operations (RMW,
// fence) for node: the NIC agent when offload is on, else the server.
func (g *Engine) ctlAddr(node int) msg.Addr {
	if g.useNIC {
		return msg.NICOf(node, g.env.NumNodes())
	}
	return msg.ServerOf(node)
}

// Flush ships node's coalescing buffer, if any, as one batched frame.
func (g *Engine) Flush(node int) {
	if g.coal == nil {
		return
	}
	if m := g.coal.Flush(node); m != nil {
		g.sendBatch(node, m)
	}
}

// FlushAll ships every non-empty coalescing buffer, in ascending node
// order so the emitted message sequence is deterministic.
func (g *Engine) FlushAll() {
	if g.coal == nil {
		return
	}
	g.coal.FlushAll(g.sendBatch)
}

// sendBatch ships one flushed coalescing frame to node's data server.
func (g *Engine) sendBatch(node int, m *msg.Message) {
	g.env.Send(msg.ServerOf(node), m)
}

// Send ships a message holding m's fields to the endpoint to. m.Data is
// lent to the send, as Env.Send borrows it: the caller may reuse it once
// Send returns.
func (g *Engine) Send(to msg.Addr, m msg.Message) {
	g.env.Send(to, g.request(m))
}

// request returns the engine's outgoing message, set to m's fields. It is
// valid until the engine's next request: every send is over by then. A
// coalescing flush that sendServer or sendCtl makes first sends the
// coalescer's own frame, never this one.
func (g *Engine) request(m msg.Message) *msg.Message {
	g.out = m
	return &g.out
}

// region returns the stride descriptor a request over d carries: nil for
// a contiguous d, else the engine's, viewing the caller's vectors.
func (g *Engine) region(d shmem.Strided) *shmem.Strided {
	if len(d.Count) == 0 && len(d.Stride) == 0 {
		return nil
	}
	g.stride = d
	return &g.stride
}

// sendServer flushes node's coalescing buffer and ships m to node's
// data server, preserving program order on the per-pair FIFO pipe.
func (g *Engine) sendServer(node int, m *msg.Message) {
	g.Flush(node)
	g.env.Send(msg.ServerOf(node), m)
}

// sendCtl is sendServer for control traffic (RMW, fence): the buffer is
// flushed even when the control endpoint is the NIC agent, because NIC
// fences confirm against per-origin completion counts that must include
// every buffered operation.
func (g *Engine) sendCtl(node int, m *msg.Message) {
	g.Flush(node)
	g.env.Send(g.ctlAddr(node), m)
}

// addCoalesced buffers one eligible operation for node, shipping the
// packed frame if the addition filled the buffer. The coalescer copies
// e.Data, so the caller's buffer is free again on return.
func (g *Engine) addCoalesced(node int, e wire.BatchEntry) {
	if m := g.coal.Add(node, e); m != nil {
		g.sendBatch(node, m)
	}
}

// Rank returns the calling process's rank.
func (g *Engine) Rank() int { return g.env.Rank() }

// Size returns the number of processes.
func (g *Engine) Size() int { return g.env.Size() }

// local reports whether rank's memory is directly accessible (same node).
func (g *Engine) local(rank int32) bool {
	return g.env.Node(int(rank)) == g.env.Node(g.env.Rank())
}

// NextToken returns a fresh request-correlation token, unique within this
// process. Higher layers (the lock protocols) draw from the same sequence
// so their response matching can never collide with the engine's.
func (g *Engine) NextToken() uint64 {
	g.tokens++
	return g.tokens
}

// countIssue records one fence-counted operation to node, both in
// op_init[] (what the fence algorithms compare) and, for a loud recorder,
// as an OpIssue trace event (what the conformance fence oracle compares).
func (g *Engine) countIssue(node int) {
	g.opInit[node]++
	if g.mode == FenceAck {
		g.outstanding[node]++
	}
	if tr := g.env.Trace(); tr.Loud() {
		tr.RecordOp(trace.OpEvent{
			Kind: trace.OpIssue, Rank: g.env.Rank(), Node: node, Time: g.env.Clock().Now(),
		})
	}
}

// OpInit returns the engine's op_init[] array (live; callers must not
// mutate it). Index is the destination node.
func (g *Engine) OpInit() []int64 { return g.opInit }

// Fence counters are cumulative for the life of the run, exactly as in
// ARMCI: op_init only ever grows and is compared against the server's
// monotonically growing op_done, so repeated barriers stay correct without
// any global reset.

// --- data transfer operations ---

// Put copies data into the (byte) memory at dst. It is non-blocking: it
// may return before the data is visible at the destination; completion is
// guaranteed only after a fence covering dst's node. A contiguous transfer
// travels with the zero strided descriptor; its length is its payload's.
func (g *Engine) Put(dst shmem.Ptr, data []byte) {
	if !g.putCoalesced(dst, data) {
		g.put(dst, shmem.Strided{}, data)
	}
}

// PutStrided scatters data into the strided region at dst, ARMCI's
// signature non-contiguous transfer. Non-blocking like Put.
func (g *Engine) PutStrided(dst shmem.Ptr, d shmem.Strided, data []byte) {
	if want := d.TotalBytes(); want != len(data) {
		panic(fmt.Sprintf("proc: strided put of %d bytes with descriptor covering %d", len(data), want))
	}
	if d.Levels() == 0 {
		g.Put(dst, data)
		return
	}
	g.put(dst, d, data)
}

// put applies or ships a put the coalescer did not take; d is the zero
// descriptor for a contiguous one.
func (g *Engine) put(dst shmem.Ptr, d shmem.Strided, data []byte) {
	if g.local(dst.Rank) {
		g.chargeCopy(len(data))
		if d.IsZero() {
			g.env.Space().Put(dst, data)
		} else {
			g.env.Space().UnpackTo(dst, d, data)
		}
		return
	}
	node := g.env.Node(int(dst.Rank))
	g.countIssue(node)
	g.sendServer(node, g.request(msg.Message{
		Kind:   msg.KindPut,
		Origin: g.env.Rank(),
		Ptr:    dst,
		Stride: g.region(d),
		Data:   data,
	}))
}

// putCoalesced buffers a contiguous put for a remote node when
// coalescing is on and data fits a batch entry, and reports whether it
// did.
func (g *Engine) putCoalesced(dst shmem.Ptr, data []byte) bool {
	if g.coal == nil || !g.coal.Fits(len(data)) || g.local(dst.Rank) {
		return false
	}
	node := g.env.Node(int(dst.Rank))
	g.countIssue(node)
	g.addCoalesced(node, wire.BatchEntry{Op: wire.BatchPut, Ptr: dst, Data: data})
	return true
}

// Get copies n bytes out of the (byte) memory at src. Blocking.
func (g *Engine) Get(src shmem.Ptr, n int) []byte {
	return g.get(nil, src, shmem.Strided{}, n)
}

// GetStrided gathers the strided region at src and appends it, packed,
// to dst (ARMCI_GetS, whose caller names the destination). Blocking.
func (g *Engine) GetStrided(dst []byte, src shmem.Ptr, d shmem.Strided) []byte {
	return g.get(dst, src, asSent(d), d.TotalBytes())
}

// get appends the n bytes of region d at src (the zero d: contiguous) to
// dst: packed straight into it when src is on the caller's node, else
// copied from the reply of src's server. A nil dst takes the reply's
// payload as it is.
func (g *Engine) get(dst []byte, src shmem.Ptr, d shmem.Strided, n int) []byte {
	if g.local(src.Rank) {
		g.chargeCopy(n)
		return g.env.Space().AppendGet(dst, src, d, n)
	}
	tok := g.NextToken()
	g.sendServer(g.env.Node(int(src.Rank)), g.request(msg.Message{
		Kind:   msg.KindGet,
		Origin: g.env.Rank(),
		Token:  tok,
		Ptr:    src,
		Stride: g.region(d),
		N:      n,
	}))
	data := g.env.Recv(msg.MatchToken(msg.KindGetResp, tok)).Data
	if dst == nil {
		return data
	}
	return append(dst, data...)
}

// asSent returns the form a transfer over d travels in: the zero
// descriptor for a contiguous d, d itself otherwise.
func asSent(d shmem.Strided) shmem.Strided {
	if d.Levels() == 0 {
		return shmem.Strided{}
	}
	return d
}

// Accumulate atomically performs dst += scale*src over the strided region
// at dst. Non-blocking and fence-counted, like Put.
func (g *Engine) Accumulate(op shmem.AccOp, dst shmem.Ptr, d shmem.Strided, data []byte, scale float64) {
	if want := d.TotalBytes(); want != len(data) {
		panic(fmt.Sprintf("proc: strided accumulate of %d bytes with descriptor covering %d", len(data), want))
	}
	g.accumulate(op, dst, asSent(d), data, scale)
}

// accumulate applies or ships an accumulate over region d at dst (the zero
// d: contiguous).
func (g *Engine) accumulate(op shmem.AccOp, dst shmem.Ptr, d shmem.Strided, data []byte, scale float64) {
	if g.local(dst.Rank) {
		g.chargeCopy(len(data))
		if d.IsZero() {
			g.env.Space().Accumulate(op, dst, data, scale)
		} else {
			g.env.Space().AccumulateStrided(op, dst, d, data, scale)
		}
		return
	}
	node := g.env.Node(int(dst.Rank))
	g.countIssue(node)
	if g.coal != nil && d.IsZero() && g.coal.Fits(len(data)) {
		g.addCoalesced(node, wire.BatchEntry{
			Op:    wire.BatchAcc,
			Ptr:   dst,
			AccOp: uint8(op),
			Scale: scale,
			Data:  data,
		})
		return
	}
	g.sendServer(node, g.request(msg.Message{
		Kind:     msg.KindAcc,
		Origin:   g.env.Rank(),
		Ptr:      dst,
		Stride:   g.region(d),
		Op:       uint8(op),
		Operands: msg.ScaleOperands(scale),
		Data:     data,
	}))
}

// chargeCopy models the CPU cost of a local memory copy.
func (g *Engine) chargeCopy(n int) {
	p := g.env.Params()
	g.env.Charge(p.ServiceTime(n) - p.ServiceSmall)
}

// --- atomic word operations ---

// rmwBlocking ships an RMW request and waits for its response.
func (g *Engine) rmwBlocking(p shmem.Ptr, op msg.RmwOp, operands [4]int64) [4]int64 {
	node := g.env.Node(int(p.Rank))
	tok := g.NextToken()
	g.sendCtl(node, g.request(msg.Message{
		Kind:     msg.KindRmw,
		Origin:   g.env.Rank(),
		Token:    tok,
		Ptr:      p,
		Op:       uint8(op),
		Operands: operands,
	}))
	resp := g.env.Recv(msg.MatchToken(msg.KindRmwResp, tok))
	return resp.Operands
}

// FetchAdd atomically adds delta to the word at p, returning the old
// value. Blocking when p is remote.
func (g *Engine) FetchAdd(p shmem.Ptr, delta int64) int64 {
	if g.local(p.Rank) {
		g.env.Charge(g.env.Params().AtomicOp)
		return g.env.Space().FetchAdd(p, delta)
	}
	r := g.rmwBlocking(p, msg.RmwFetchAdd, [4]int64{delta})
	return r[0]
}

// SwapPair atomically replaces the pair of words at p — one of the
// operations the paper adds to ARMCI for the queuing lock.
func (g *Engine) SwapPair(p shmem.Ptr, v shmem.Pair) shmem.Pair {
	if g.local(p.Rank) {
		g.env.Charge(g.env.Params().AtomicOp)
		return g.env.Space().SwapPair(p, v)
	}
	r := g.rmwBlocking(p, msg.RmwSwapPair, [4]int64{v.Hi, v.Lo})
	return shmem.Pair{Hi: r[0], Lo: r[1]}
}

// CompareAndSwapPair atomically stores new at the pair at p if it holds
// old, returning the observed pair — the compare&swap the paper adds.
func (g *Engine) CompareAndSwapPair(p shmem.Ptr, old, new shmem.Pair) shmem.Pair {
	if g.local(p.Rank) {
		g.env.Charge(g.env.Params().AtomicOp)
		return g.env.Space().CompareAndSwapPair(p, old, new)
	}
	r := g.rmwBlocking(p, msg.RmwCASPair, [4]int64{old.Hi, old.Lo, new.Hi, new.Lo})
	return shmem.Pair{Hi: r[0], Lo: r[1]}
}

// LoadPair atomically reads the pair of words at p.
func (g *Engine) LoadPair(p shmem.Ptr) shmem.Pair {
	if g.local(p.Rank) {
		g.env.Charge(g.env.Params().AtomicOp)
		return g.env.Space().LoadPair(p)
	}
	r := g.rmwBlocking(p, msg.RmwLoadPair, [4]int64{})
	return shmem.Pair{Hi: r[0], Lo: r[1]}
}

// Load atomically reads the word at p.
func (g *Engine) Load(p shmem.Ptr) int64 {
	if g.local(p.Rank) {
		return g.env.Space().Load(p)
	}
	return g.FetchAdd(p, 0)
}

// Store writes v to the word at p. When p is remote this is
// fire-and-forget (one message, no reply) and fence-counted — the
// one-message lock hand-off of the queuing lock.
func (g *Engine) Store(p shmem.Ptr, v int64) {
	if g.local(p.Rank) {
		g.env.Charge(g.env.Params().AtomicOp)
		g.env.Space().Store(p, v)
		return
	}
	node := g.env.Node(int(p.Rank))
	g.countIssue(node)
	// Word stores are lock hand-offs; they never coalesce (buffering one
	// would stall a spinning successor), but they must flush what program
	// order put before them.
	g.sendCtl(node, g.request(msg.Message{
		Kind:     msg.KindRmw,
		Origin:   g.env.Rank(),
		Ptr:      p,
		Op:       uint8(msg.RmwStore),
		Operands: [4]int64{v},
	}))
}

// StorePair writes v to the pair of words at p, fire-and-forget when
// remote, like Store.
func (g *Engine) StorePair(p shmem.Ptr, v shmem.Pair) {
	if g.local(p.Rank) {
		g.env.Charge(g.env.Params().AtomicOp)
		g.env.Space().StorePair(p, v)
		return
	}
	node := g.env.Node(int(p.Rank))
	g.countIssue(node)
	g.sendCtl(node, g.request(msg.Message{
		Kind:     msg.KindRmw,
		Origin:   g.env.Rank(),
		Ptr:      p,
		Op:       uint8(msg.RmwStorePair),
		Operands: [4]int64{v.Hi, v.Lo},
	}))
}
