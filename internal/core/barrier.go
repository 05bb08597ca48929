// Package core implements the paper's primary contribution — the combined
// global-fence-plus-barrier operation ARMCI_Barrier() and the software
// queuing lock — together with the original implementations they are
// evaluated against (serialized AllFence + MPI_Barrier; the hybrid
// ticket/server lock).
package core

import (
	"slices"

	"armci/internal/collective"
	"armci/internal/proc"
	"armci/internal/shmem"
	"armci/internal/trace"
)

// Sync exposes the global synchronization operations of one process. It
// combines the process's ARMCI engine (for fence state) with a collective
// communicator (for the exchange stages).
type Sync struct {
	eng  *proc.Engine
	comm *collective.Comm

	// BarrierAlg is the stage-3 / MPI_Barrier algorithm; BarrierAuto by
	// default. It also selects the stage-1 allreduce pattern (k-nomial
	// tree or two-level hierarchical where applicable).
	BarrierAlg collective.BarrierAlg

	// NICFence switches Barrier to the NIC-offload fence protocol: the
	// servers answer fence round-trips at NIC cost without a host
	// wake-up (server.Options.NICFence), so instead of the counter
	// exchange the combined barrier pipelines one cheap fence round
	// trip per written node and then synchronizes. The semantics are
	// unchanged — no rank exits before every rank's prior operations
	// completed — only the accounting path differs.
	NICFence bool

	// epoch counts this rank's global synchronizations (Barrier, SyncOld,
	// SyncOldPipelined), numbering the SyncEnter/SyncExit trace events the
	// conformance fence oracle pairs up across ranks.
	epoch int

	// Barrier's state: last is op_init[] as the previous Barrier's stage 1
	// read it, sum the summed delta vector, want the running total of
	// every summed delta to this node (the op_done stage 2 waits for),
	// and caught the stage-2 wait predicate, bound once, which reads the
	// node's op_done cell.
	last   []int64
	sum    []int64
	want   int64
	opDone shmem.Cells
	caught func() bool
}

// NewSync builds the synchronization driver for the calling process.
func NewSync(eng *proc.Engine, comm *collective.Comm) *Sync {
	env := eng.Env()
	nodes := env.NumNodes()
	s := &Sync{eng: eng, comm: comm, last: make([]int64, nodes), sum: make([]int64, nodes)}
	space, opDone := env.Space(), eng.Layout().OpDone[env.Node(env.Rank())]
	s.opDone = shmem.Cell(opDone)
	s.caught = func() bool { return space.Load(opDone) >= s.want }
	return s
}

// MPIBarrier performs a plain barrier synchronization (the message-passing
// library's MPI_Barrier): log₂(N) overlapped message latencies.
func (s *Sync) MPIBarrier() {
	s.comm.Barrier(s.BarrierAlg)
}

// SyncOld is the original GA_Sync: every process performs the serialized
// ARMCI_AllFence — up to 2(N−1) one-way latencies of confirmation round
// trips — followed by MPI_Barrier.
func (s *Sync) SyncOld() {
	s.enter()
	s.eng.AllFence()
	s.MPIBarrier()
	s.exit()
}

// SyncOldPipelined is the ablation variant of SyncOld with the fence round
// trips overlapped instead of serialized.
func (s *Sync) SyncOldPipelined() {
	s.enter()
	s.eng.AllFencePipelined()
	s.MPIBarrier()
	s.exit()
}

// enter / exit bracket one global synchronization with trace events. The
// enter event is recorded before any stage of the operation runs and the
// exit event after the last stage returns, so the fence oracle can treat
// everything a rank issued before enter as "must be complete somewhere
// before anyone's exit of the same epoch".
func (s *Sync) enter() {
	s.epoch++
	Record(s.eng.Env(), trace.OpEvent{Kind: trace.OpSyncEnter, Epoch: s.epoch})
}

func (s *Sync) exit() {
	Record(s.eng.Env(), trace.OpEvent{Kind: trace.OpSyncExit, Epoch: s.epoch})
}

// Barrier is the new combined operation, ARMCI_Barrier(): semantically
// equivalent to AllFence followed by MPI_Barrier when called by all
// processes concurrently, but costing only 2·log₂(N) message latencies.
// It proceeds in the paper's three stages (§3.1.2):
//
//  1. the per-node op_init[] arrays are element-wise summed across all
//     processes with the binary-exchange algorithm of Figure 2, so each
//     process learns how many fence-counted operations were issued,
//     cluster-wide, to its own node's server;
//  2. the process waits until its node's op_done counter — incremented by
//     the server as it completes operations — reaches that total;
//  3. the processes perform a barrier synchronization, after which no
//     process can have escaped with operations still pending anywhere.
//
// Stage 1 sums deltas: each process contributes, per node, the
// operations it issued since its own previous Barrier read op_init[].
// The vector is as long as the cumulative one, and stage 2's target is
// the running total of the summed deltas, the number the cumulative sum
// gave. The deltas buy an empty-epoch exit: when the summed vector is
// zero everywhere, Barrier returns after stage 1. That is safe because
//
//   - an all-reduce is itself a barrier: no process's result is final
//     before every process has entered and contributed;
//   - a zero vector says no process issued a fence-counted operation
//     since the previous Barrier, and that Barrier completed everything
//     issued before it (by the full stages, or by this same argument);
//   - the decision reads only the summed vector, which every process
//     holds identically, so every process takes the same path and the
//     collectives stay matched. A process that decided from its own
//     counts, or from its own node's total alone, would skip stage 3
//     while others run it.
//
// Operations already fenced by AllFence, Fence or SyncOld still count
// in the delta, so such an epoch takes the full path: conservative, and
// still correct. last and want move together, only once the all-reduce
// has returned. A Barrier abandoned inside stage 1 leaves both as they
// were, and the next Barrier contributes that epoch again; one abandoned
// in stage 2 or 3 has already counted it. Either way a process that
// finished stage 1 and one that did not disagree on want, so a run must
// not call Barrier again after such an abandonment: on the wall fabrics
// a fault ends the run, and the elastic recovery fences its epochs with
// SyncOld.
func (s *Sync) Barrier() {
	env := s.eng.Env()
	s.enter()

	// Coalesced operations already sit in op_init[], so their frames
	// must be on the wire before anyone compares counters: a buffered
	// batch would leave stage 2 waiting for operations no server has
	// seen.
	s.eng.FlushAll()

	if s.NICFence {
		// NIC-offload path: a fence ack from a NICFence server proves
		// (per-pair FIFO) that every operation this rank issued to that
		// node completed, at NICService cost instead of a host wake.
		// One pipelined round trip per written node replaces the
		// op_init exchange and the op_done wait; the trailing barrier
		// then guarantees nobody exits before everyone fenced.
		s.eng.AllFencePipelined()
		s.MPIBarrier()
		s.exit()
		return
	}

	// Stage 1: distribute this epoch's op_init[] deltas. The engine's
	// counters are cumulative for the life of the run (as are the
	// servers' op_done counters), so want stays directly comparable.
	opInit := s.eng.OpInit()
	for i, v := range opInit {
		s.sum[i] = v - s.last[i]
	}
	s.comm.AllReduceSumInt64Alg(s.sum, s.BarrierAlg)
	copy(s.last, opInit)
	if !slices.ContainsFunc(s.sum, nonZero) {
		s.exit() // an empty epoch: the all-reduce was the barrier
		return
	}

	// Stage 2: wait for the local server to catch up.
	s.want += s.sum[env.Node(env.Rank())]
	env.WaitUntil("op_done", s.opDone, s.caught)

	// Stage 3: barrier synchronization.
	s.MPIBarrier()
	s.exit()
}

func nonZero(v int64) bool { return v != 0 }
