// Package server implements the ARMCI data server: the thread that runs
// on every SMP node and executes remote-memory operations on behalf of
// processes on other nodes (§2 of the paper). One Server serves all user
// processes of its node, one request at a time: the fabric hands each
// request to HandleOne, on the server's own goroutine (its serve loop) or,
// on chan, on the requester's while the server is idle (see
// transport.Fabric.SpawnServer). The server:
//
//   - applies put / accumulate / fire-and-forget word stores and counts
//     each in the node's op_done cell (the counter the new combined
//     barrier compares against the summed op_init[]);
//   - answers get and read-modify-write requests;
//   - answers fence confirmation requests (FIFO delivery per pair makes
//     the reply a proof that every earlier operation from that origin has
//     completed);
//   - manages the server side of the baseline hybrid lock: it takes
//     tickets on behalf of remote requesters, queues them until their
//     ticket comes up, and processes every unlock (the paper's Figures 3
//     and 4);
//   - models the wake-up penalty of a server thread that sleeps in a
//     blocking receive while idle — the server's only use of its clock,
//     read only where the cost model in force charges a penalty.
package server

import (
	"encoding/binary"
	"fmt"
	"time"

	"armci/internal/msg"
	"armci/internal/proc"
	"armci/internal/shmem"
	"armci/internal/trace"
	"armci/internal/transport"
	"armci/internal/wire"
)

// Options configures a server instance.
type Options struct {
	// FenceMode selects whether puts are individually acknowledged.
	FenceMode proc.FenceMode
	// Locks is the cluster lock table; nil if the run creates no locks.
	Locks *proc.LockTable
	// NICFence answers fence round-trips at NIC cost on the host
	// server's channel: the NIC's descriptor queue already knows every
	// prior DMA from this origin has landed (per-pair FIFO), so the
	// reply charges only NICService — no host wake-up, no ServiceFence
	// PCI drain — and leaves the host's busy/idle accounting untouched.
	NICFence bool
}

// waiter is a queued remote lock request.
type waiter struct {
	origin int
	ticket int64
	token  uint64
}

// Server is the per-node data server state. Create one with New (host
// data server) or NewAgent (NIC agent, the paper's §5 future-work
// offload) and hand its HandleOne to the fabric as the server's handler;
// tests may instead call HandleOne directly. Its state is touched only by
// HandleOne, which the fabric never runs twice at once.
type Server struct {
	env  transport.Env
	opt  Options
	lay  *proc.Layout
	node int
	nic  bool

	// lockQueues[i] holds the remote requests waiting on lock i, in
	// ticket order (appended in arrival order; tickets are issued in
	// arrival order so the slice is sorted by construction).
	lockQueues map[int][]waiter

	// lastFinish is when the server last completed a request, for the
	// idle/wake model; kept only while ServerWake is charged.
	lastFinish time.Duration
	everBusy   bool

	// batch is handleBatch's entry table and writes the batch it applies
	// them through, both reused from frame to frame.
	batch  []wire.BatchEntry
	writes shmem.Batch

	// out is the reply being sent and get the payload a Get reply packs
	// into, both reused from reply to reply: Env.Send borrows a message
	// only until it returns.
	out msg.Message
	get []byte
}

// New builds a server for the node identified by env (a server endpoint).
func New(env transport.Env, lay *proc.Layout, opt Options) *Server {
	if !env.Self().Server() {
		panic(fmt.Sprintf("server: endpoint %v is not a server address", env.Self()))
	}
	return &Server{
		env:        env,
		opt:        opt,
		lay:        lay,
		node:       env.Self().ID(),
		lockQueues: make(map[int][]waiter),
	}
}

// NewAgent builds a NIC agent for the node identified by env (a NIC
// endpoint, see msg.NICOf). The agent handles atomic operations and
// fence confirmations with NIC-level costs: its processor polls the
// request queue, so there is no wake-up penalty, and the per-request
// service time is model.Params.NICService. Fence confirmations check the
// node's per-origin completion counters instead of relying on message
// FIFO, because put traffic still flows through the host server on a
// different channel.
func NewAgent(env transport.Env, lay *proc.Layout, opt Options) *Server {
	if !env.Self().IsNIC(env.NumNodes()) {
		panic(fmt.Sprintf("server: endpoint %v is not a NIC agent address", env.Self()))
	}
	return &Server{
		env:        env,
		opt:        opt,
		lay:        lay,
		node:       env.Self().ID() - env.NumNodes(),
		nic:        true,
		lockQueues: make(map[int][]waiter),
	}
}

// reply sends a message holding m's fields to the user process of rank.
// A reply is never sent while another is: a handler runs once at a time,
// and a reply's delivery runs no handler of this server (a frame from a
// server is never served on delivery).
func (s *Server) reply(rank int, m msg.Message) {
	s.out = m
	s.env.Send(msg.User(rank), &s.out)
}

// HandleOne executes a single request, including the idle-wake and
// service-time accounting. It reads nothing of m past its return — not
// the message, not its payload, not its region — since on chan m may be
// the requester's own, lent for the call (transport.Handler): a put or
// accumulate copies the payload into node memory, a batch's entries
// alias it only until applied (the entry table is refilled before it is
// read again), and a lock request is queued as a waiter value.
func (s *Server) HandleOne(m *msg.Message) {
	p := s.env.Params()
	if s.nic {
		s.handleOneNIC(m)
		return
	}
	if m.Kind == msg.KindFenceReq && s.opt.NICFence {
		// NIC-offload fence: the reply comes straight from the NIC's
		// descriptor-queue state. Every store this origin issued to this
		// node was already applied when its message was handled earlier
		// in this mailbox order (per-pair FIFO), so answering is sound;
		// the host thread never wakes, so neither the wake penalty nor
		// the busy-period clock moves.
		s.env.Charge(p.NICService)
		s.reply(m.Origin, msg.Message{
			Kind:   msg.KindFenceAck,
			Origin: m.Origin,
			Token:  m.Token,
		})
		return
	}
	if p.ServerWake > 0 && (!s.everBusy || s.env.Clock().Now()-s.lastFinish > p.ServerIdleAfter) {
		// The server thread was asleep in its blocking receive; the
		// request pays the wake-up penalty.
		s.env.Charge(p.ServerWake)
	}
	s.everBusy = true

	switch m.Kind {
	case msg.KindPut:
		s.env.Charge(p.ServiceTime(len(m.Data)))
		if d := m.Strided(); d.IsZero() {
			s.env.Space().Put(m.Ptr, m.Data)
		} else {
			s.env.Space().UnpackTo(m.Ptr, d, m.Data)
		}
		s.completeStore(m)
	case msg.KindAcc:
		s.env.Charge(p.ServiceTime(len(m.Data)))
		if d := m.Strided(); d.IsZero() {
			s.env.Space().Accumulate(shmem.AccOp(m.Op), m.Ptr, m.Data, m.Scale())
		} else {
			s.env.Space().AccumulateStrided(shmem.AccOp(m.Op), m.Ptr, d, m.Data, m.Scale())
		}
		s.completeStore(m)
	case msg.KindGet:
		s.env.Charge(p.ServiceTime(m.N))
		// The region is packed into the server's reply buffer, which the
		// reply lends to its send.
		s.get = s.env.Space().AppendGet(s.get[:0], m.Ptr, m.Strided(), m.N)
		s.reply(m.Origin, msg.Message{
			Kind:   msg.KindGetResp,
			Origin: m.Origin,
			Token:  m.Token,
			Data:   s.get,
		})
	case msg.KindBatch:
		s.handleBatch(m)
	case msg.KindRmw:
		s.handleRmw(m)
	case msg.KindFenceReq:
		// FIFO per-pair delivery: every store this origin issued to this
		// server has already been handled, so the server only needs to
		// drain the NIC DMA engine (ServiceFence) to confirm.
		s.env.Charge(p.ServiceSmall + p.ServiceFence)
		s.reply(m.Origin, msg.Message{
			Kind:   msg.KindFenceAck,
			Origin: m.Origin,
			Token:  m.Token,
		})
	case msg.KindLockReq:
		s.handleLockReq(m)
	case msg.KindUnlock:
		s.handleUnlock(m)
	default:
		panic(fmt.Sprintf("server: node %d received unexpected %v", s.node, m))
	}
	if p.ServerWake > 0 {
		s.lastFinish = s.env.Clock().Now()
	}
}

// handleBatch unpacks one coalesced frame. The per-message costs — wake
// penalty, receive overhead, the fixed ServiceSmall — are paid once for
// the whole frame (that is the point of batching), then each entry's copy
// cost, in entry order, before any entry is applied. The entries are then
// applied in order, one critical section per maximal run of entries that
// target one rank's memory, so a batch's writes to one rank become
// visible together at its end. That is within ARMCI's put semantics: a
// put is guaranteed visible only after a fence, and the fence reply
// follows the whole frame. Each entry records its own completion, and
// the fence accounting then advances once by the entry count, so op_done
// and the per-origin counter agree exactly with the per-entry countIssue
// on the client. The frame travels as one pipeline message: loss,
// retransmission and duplicate suppression apply to the batch as a unit,
// so exactly-once covers all entries or none.
//
// The decoded entries alias m.Data while the call lasts: no payload
// is copied before the store into node memory, and the entry table and
// the write batch are the server's own, so a warm frame allocates
// nothing.
func (s *Server) handleBatch(m *msg.Message) {
	entries, err := wire.AppendDecodeBatch(s.batch[:0], m.Data)
	s.batch = entries
	if err != nil {
		// Batches are only ever produced by our own coalescer; a
		// malformed one is a protocol bug, not a recoverable condition.
		panic(fmt.Sprintf("server: node %d received malformed batch from rank %d: %v", s.node, m.Origin, err))
	}
	p := s.env.Params()
	s.env.Charge(p.ServiceSmall)
	for i := range entries {
		if entries[i].Op == wire.BatchStore {
			s.env.Charge(p.AtomicOp)
		} else {
			s.env.Charge(time.Duration(len(entries[i].Data)) * p.ServiceByteTime)
		}
	}
	space := s.env.Space()
	for i := 0; i < len(entries); {
		rank := entries[i].Ptr.Rank
		j := i + 1
		for j < len(entries) && entries[j].Ptr.Rank == rank {
			j++
		}
		run := entries[i:j]
		space.Apply(&s.writes, int(rank), func(b *shmem.Batch) {
			for k := range run {
				e := &run[k]
				switch e.Op {
				case wire.BatchPut:
					b.Put(e.Ptr, e.Data)
				case wire.BatchAcc:
					b.Accumulate(shmem.AccOp(e.AccOp), e.Ptr, e.Data, e.Scale)
				case wire.BatchStore:
					b.Store(e.Ptr, int64(binary.LittleEndian.Uint64(e.Data)))
				}
			}
		})
		i = j
	}
	for range entries {
		s.recordComplete(m)
	}
	s.countComplete(m, len(entries))
}

// completeStore completes one fence-counted store outside a batch.
func (s *Server) completeStore(m *msg.Message) {
	s.recordComplete(m)
	s.countComplete(m, 1)
}

// recordComplete records a store's OpComplete trace event, by a loud
// recorder only. It comes before countComplete advances the counters, so
// that in the recorded order a completion always precedes any barrier
// exit the fence algorithm justified with it (the invariant the
// conformance fence oracle checks).
func (s *Server) recordComplete(m *msg.Message) {
	if tr := s.env.Trace(); tr.Loud() {
		tr.RecordOp(trace.OpEvent{
			Kind: trace.OpComplete, Rank: m.Origin, Node: s.node, Time: s.env.Clock().Now(),
		})
	}
}

// countComplete counts n completed fence-counted stores of m's origin in
// op_done (aggregate and per-origin) — one update of each cell however
// many — and acknowledges each when the fabric runs in per-put-ack mode.
func (s *Server) countComplete(m *msg.Message, n int) {
	s.env.Space().FetchAdd(s.lay.OpDone[s.node], int64(n))
	s.env.Space().FetchAdd(s.lay.PerOrigin[s.node].Add(int64(m.Origin)), int64(n))
	if s.opt.FenceMode == proc.FenceAck {
		for range n {
			s.reply(m.Origin, msg.Message{Kind: msg.KindPutAck, Origin: m.Origin})
		}
	}
}

// handleOneNIC executes one request at NIC cost. The agent serves only
// control traffic: atomics (including the fire-and-forget store hand-off
// path) and fence confirmations.
func (s *Server) handleOneNIC(m *msg.Message) {
	p := s.env.Params()
	s.env.Charge(p.NICService)
	switch m.Kind {
	case msg.KindRmw:
		s.handleRmw(m)
	case msg.KindFenceReq:
		// The NIC tracks DMA completion: wait until every operation the
		// origin had issued when it fenced has completed at this node.
		want := m.Operands[0]
		cell := s.lay.PerOrigin[s.node].Add(int64(m.Origin))
		s.env.WaitUntil("nic-fence", shmem.Cell(cell), func() bool {
			return s.env.Space().Load(cell) >= want
		})
		s.reply(m.Origin, msg.Message{
			Kind:   msg.KindFenceAck,
			Origin: m.Origin,
			Token:  m.Token,
		})
	default:
		panic(fmt.Sprintf("server: NIC agent %d received unexpected %v", s.node, m))
	}
}

// handleRmw executes an atomic word operation on node memory.
func (s *Server) handleRmw(m *msg.Message) {
	p := s.env.Params()
	if s.nic {
		s.env.Charge(p.AtomicOp)
	} else {
		s.env.Charge(p.ServiceSmall + p.AtomicOp)
	}
	space := s.env.Space()
	var out [4]int64
	reply := true
	switch msg.RmwOp(m.Op) {
	case msg.RmwFetchAdd:
		out[0] = space.FetchAdd(m.Ptr, m.Operands[0])
	case msg.RmwSwapPair:
		r := space.SwapPair(m.Ptr, shmem.Pair{Hi: m.Operands[0], Lo: m.Operands[1]})
		out[0], out[1] = r.Hi, r.Lo
	case msg.RmwCASPair:
		r := space.CompareAndSwapPair(m.Ptr,
			shmem.Pair{Hi: m.Operands[0], Lo: m.Operands[1]},
			shmem.Pair{Hi: m.Operands[2], Lo: m.Operands[3]})
		out[0], out[1] = r.Hi, r.Lo
	case msg.RmwLoadPair:
		r := space.LoadPair(m.Ptr)
		out[0], out[1] = r.Hi, r.Lo
	case msg.RmwStore:
		space.Store(m.Ptr, m.Operands[0])
		s.completeStore(m)
		reply = false
	case msg.RmwStorePair:
		space.StorePair(m.Ptr, shmem.Pair{Hi: m.Operands[0], Lo: m.Operands[1]})
		s.completeStore(m)
		reply = false
	default:
		panic(fmt.Sprintf("server: node %d: unknown rmw op %d", s.node, m.Op))
	}
	if reply {
		s.reply(m.Origin, msg.Message{
			Kind:     msg.KindRmwResp,
			Origin:   m.Origin,
			Token:    m.Token,
			Operands: out,
		})
	}
}

// handleLockReq serves a remote request for the hybrid lock: the server
// performs the fetch-and-increment on the ticket on the requester's
// behalf, grants immediately if its number is up, and queues it otherwise
// (paper Figure 3, steps c-d).
func (s *Server) handleLockReq(m *msg.Message) {
	if s.opt.Locks == nil {
		panic(fmt.Sprintf("server: node %d: lock request %v without a lock table", s.node, m))
	}
	s.env.Charge(s.env.Params().ServiceSmall + s.env.Params().AtomicOp)
	idx := m.Tag
	space := s.env.Space()
	base := s.opt.Locks.TicketCounter[idx]
	ticket := space.FetchAdd(base.Add(proc.TicketWord), 1)
	counter := space.Load(base.Add(proc.CounterWord))
	if ticket == counter {
		s.grant(idx, m.Origin, m.Token, ticket)
		return
	}
	s.lockQueues[idx] = append(s.lockQueues[idx], waiter{origin: m.Origin, ticket: ticket, token: m.Token})
}

// handleUnlock serves a release of the hybrid lock. Local and remote
// holders alike send this message (paper Figure 4): the server increments
// the counter and grants the head of the queue if its ticket came up.
// Local pollers observe the counter directly through shared memory.
func (s *Server) handleUnlock(m *msg.Message) {
	if s.opt.Locks == nil {
		panic(fmt.Sprintf("server: node %d: unlock %v without a lock table", s.node, m))
	}
	s.env.Charge(s.env.Params().ServiceSmall + s.env.Params().AtomicOp)
	idx := m.Tag
	space := s.env.Space()
	base := s.opt.Locks.TicketCounter[idx]
	counter := space.FetchAdd(base.Add(proc.CounterWord), 1) + 1
	q := s.lockQueues[idx]
	if len(q) > 0 && q[0].ticket == counter {
		head := q[0]
		// Shifted in place, so the queue's array is reused: slicing the
		// head off would shrink its capacity and make appends reallocate.
		s.lockQueues[idx] = append(q[:0], q[1:]...)
		s.grant(idx, head.origin, head.token, head.ticket)
	}
}

// grant notifies origin that it now holds lock idx. The grant echoes the
// ticket the server took on the requester's behalf so the holder can
// report it (the conformance FIFO oracle checks grants arrive in ticket
// order).
func (s *Server) grant(idx, origin int, token uint64, ticket int64) {
	s.reply(origin, msg.Message{
		Kind:     msg.KindLockGrant,
		Origin:   origin,
		Token:    token,
		Tag:      idx,
		Operands: [4]int64{ticket},
	})
}
