package armci

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"armci/internal/collective"
	"armci/internal/core"
	"armci/internal/proc"
	"armci/internal/shmem"
	"armci/internal/transport"
)

// Proc is a rank's handle to the cluster: every ARMCI operation is a
// method on it. A Proc is only valid inside the body passed to Run, and
// only on the goroutine (or simulated process) that received it.
type Proc struct {
	eng      *proc.Engine
	comm     *collective.Comm
	sync     *core.Sync
	locks    *proc.LockTable
	leaseTTL time.Duration
}

// Rank returns this process's rank, in [0, Size).
func (p *Proc) Rank() int { return p.eng.Rank() }

// Size returns the number of processes in the cluster.
func (p *Proc) Size() int { return p.eng.Size() }

// NumNodes returns the number of SMP nodes.
func (p *Proc) NumNodes() int { return p.eng.Env().NumNodes() }

// NodeOf returns the node hosting the given rank.
func (p *Proc) NodeOf(rank int) int { return p.eng.Env().Node(rank) }

// MyNode returns the caller's node.
func (p *Proc) MyNode() int { return p.NodeOf(p.Rank()) }

// Now returns the fabric time (virtual on the simulated fabric, wall
// otherwise) — the clock experiments measure with.
func (p *Proc) Now() time.Duration { return p.eng.Env().Clock().Now() }

// Env exposes the underlying execution environment for the elastic layer,
// the conformance and benchmark harnesses, and point-to-point user sends
// (msg.KindSend) beside the one-sided traffic.
func (p *Proc) Env() transport.Env { return p.eng.Env() }

// Engine exposes the underlying ARMCI engine (companion packages only).
func (p *Proc) Engine() *proc.Engine { return p.eng }

// Comm exposes the rank's collective communicator (companion packages and
// the conformance harness only). Mutated synchronization variants built
// by internal/check must reuse this communicator — not build a second one
// — so collective sequence tags stay globally consistent.
func (p *Proc) Comm() *collective.Comm { return p.comm }

// Locks exposes the cluster lock table, or nil when the run was
// configured with NumMutexes == 0 (conformance harness only).
func (p *Proc) Locks() *proc.LockTable { return p.locks }

// --- memory management ---

// MallocLocal allocates n bytes of remotely accessible memory owned by
// the calling rank. Other ranks may use the returned pointer once they
// learn it (for example from Malloc, which is collective).
func (p *Proc) MallocLocal(n int) Ptr {
	return p.eng.Env().Space().AllocBytes(p.Rank(), n)
}

// MallocWordsLocal allocates n words (int64 cells) owned by the caller.
func (p *Proc) MallocWordsLocal(n int) Ptr {
	return p.eng.Env().Space().AllocWords(p.Rank(), n)
}

// Malloc is the collective allocator (ARMCI_Malloc): every rank calls it
// with the same n; each rank allocates n bytes locally and the call
// returns the pointers of all ranks, indexed by rank. The exchange makes
// the call synchronizing.
func (p *Proc) Malloc(n int) []Ptr {
	return p.exchangePtrs(p.MallocLocal(n))
}

// MallocWords is the collective word allocator: like Malloc, for word
// segments.
func (p *Proc) MallocWords(n int) []Ptr {
	return p.exchangePtrs(p.MallocWordsLocal(n))
}

// exchangePtrs all-gathers one pointer per rank.
func (p *Proc) exchangePtrs(mine Ptr) []Ptr {
	n := p.Size()
	vec := make([]int64, 2*n)
	hi, lo := mine.Pack()
	vec[2*p.Rank()], vec[2*p.Rank()+1] = hi, lo
	p.comm.AllReduceSumInt64(vec)
	out := make([]Ptr, n)
	for r := 0; r < n; r++ {
		out[r] = shmem.Unpack(vec[2*r], vec[2*r+1])
	}
	return out
}

// --- one-sided data operations ---

// Put copies data into the byte memory at dst. Non-blocking: completion
// at the destination is guaranteed only after a fence covering dst's node
// (Fence, AllFence or Barrier).
func (p *Proc) Put(dst Ptr, data []byte) { p.eng.Put(dst, data) }

// PutStrided scatters data into the strided region at dst (ARMCI_PutS).
// Non-blocking like Put.
func (p *Proc) PutStrided(dst Ptr, d Strided, data []byte) { p.eng.PutStrided(dst, d, data) }

// Get copies n bytes from the byte memory at src. Blocking.
func (p *Proc) Get(src Ptr, n int) []byte { return p.eng.Get(src, n) }

// GetStrided gathers the strided region at src and appends it, packed
// run by run, to dst, returning the extended slice (ARMCI_GetS, whose
// caller names the destination buffer). Blocking. A dst with room for
// d.TotalBytes() more bytes is filled without growing; a nil dst gets a
// fresh slice.
func (p *Proc) GetStrided(dst []byte, src Ptr, d Strided) []byte {
	return p.eng.GetStrided(dst, src, d)
}

// Handle tracks the completion of one non-blocking put or accumulate
// (armci_hdl_t). WaitAll completes it: one fence per destination node,
// nothing for a handle already done.
type Handle = proc.Handle

// NbPut starts a non-blocking contiguous put (ARMCI_NbPut) and returns
// its completion handle. The transfer behaves exactly like Put —
// including coalescing eligibility — with per-operation completion on
// top: WaitAll fences the destination node.
func (p *Proc) NbPut(dst Ptr, data []byte) *Handle { return p.eng.NbPut(dst, data) }

// NbAcc starts a non-blocking contiguous accumulate (ARMCI_NbAcc) with a
// completion handle.
func (p *Proc) NbAcc(op AccOp, dst Ptr, data []byte, scale float64) *Handle {
	return p.eng.NbAcc(op, dst, data, scale)
}

// WaitAll completes every handle (ARMCI_WaitAll); store-class handles
// against the same node share one fence round trip.
func (p *Proc) WaitAll(hs ...*Handle) { p.eng.WaitAll(hs...) }

// PutFlag copies data into dst and then writes val into the word cell
// flag on the same node (ARMCI_Put_flag): the consumer spins locally on
// the flag (WaitFlag) instead of anyone paying a fence round trip. The
// flag store trails the data on the same FIFO pipe, so a consumer that
// observes the flag is guaranteed to observe the data.
func (p *Proc) PutFlag(dst Ptr, data []byte, flag Ptr, val int64) {
	p.eng.PutFlag(dst, data, flag, val)
}

// WaitFlag spins until the local word cell flag holds val — the consumer
// half of the notify/wait pattern.
func (p *Proc) WaitFlag(flag Ptr, val int64) { p.eng.WaitFlag(flag, val) }

// Accumulate atomically adds scale*data into the strided region at dst
// (ARMCI_AccS). Non-blocking and fence-counted like Put.
func (p *Proc) Accumulate(op AccOp, dst Ptr, d Strided, data []byte, scale float64) {
	p.eng.Accumulate(op, dst, d, data, scale)
}

// --- atomic word operations (ARMCI_Rmw and the paper's pair extensions) ---

// FetchAdd atomically adds delta to the word at ptr, returning the prior
// value.
func (p *Proc) FetchAdd(ptr Ptr, delta int64) int64 { return p.eng.FetchAdd(ptr, delta) }

// Load atomically reads the word at ptr.
func (p *Proc) Load(ptr Ptr) int64 { return p.eng.Load(ptr) }

// Store writes the word at ptr; fire-and-forget and fence-counted when
// remote.
func (p *Proc) Store(ptr Ptr, v int64) { p.eng.Store(ptr, v) }

// StorePair writes the pair at ptr; fire-and-forget and fence-counted
// when remote.
func (p *Proc) StorePair(ptr Ptr, v Pair) { p.eng.StorePair(ptr, v) }

// --- fences and barriers ---

// Fence blocks until all of the caller's fence-counted operations to the
// given node have completed there (ARMCI_Fence).
func (p *Proc) Fence(node int) { p.eng.Fence(node) }

// AllFence blocks until all of the caller's fence-counted operations have
// completed everywhere (ARMCI_AllFence, the original serialized
// implementation).
func (p *Proc) AllFence() { p.eng.AllFence() }

// MPIBarrier performs a plain barrier synchronization.
func (p *Proc) MPIBarrier() { p.sync.MPIBarrier() }

// AllReduceSumInt64 element-wise sums vec across all ranks (collective;
// every rank must call it with a vector of the same length). On return
// every rank holds the identical summed vector.
func (p *Proc) AllReduceSumInt64(vec []int64) { p.comm.AllReduceSumInt64(vec) }

// AllReduceSumFloat64 element-wise sums a float64 vector across all ranks
// (collective). All ranks return bit-identical results.
func (p *Proc) AllReduceSumFloat64(vec []float64) { p.comm.AllReduceSumFloat64(vec) }

// SyncOld is the original GA_Sync: AllFence followed by MPIBarrier.
func (p *Proc) SyncOld() { p.sync.SyncOld() }

// SyncOldPipelined is SyncOld with the fence round trips overlapped — an
// ablation, not a paper configuration.
func (p *Proc) SyncOldPipelined() { p.sync.SyncOldPipelined() }

// Barrier is the paper's new combined operation ARMCI_Barrier():
// semantically AllFence+MPIBarrier, in 2·log₂(N) message latencies, or
// log₂(N) when no rank issued a fence-counted operation since the
// previous Barrier.
func (p *Proc) Barrier() { p.sync.Barrier() }

// --- distributed mutexes ---

// LockAlg selects a mutual-exclusion algorithm.
type LockAlg uint8

const (
	// LockHybrid is the original ARMCI lock: ticket-based locally,
	// server-queued remotely (§3.2.1).
	LockHybrid LockAlg = iota
	// LockQueue is the paper's software queuing (MCS) lock (§3.2.2).
	LockQueue
	// LockQueueNoCAS is the future-work variant releasing with swap
	// instead of compare&swap.
	LockQueueNoCAS
	// LockTicket is the pure ticket lock; callers must be on the lock's
	// home node.
	LockTicket
	// LockLease is the crash-survivable queuing lock: MCS ordering plus
	// an epoch-stamped lease, so waiters repair the lock when its holder
	// fail-stops (see Options.LeaseTTL).
	LockLease
)

// lockAlgNames holds each LockAlg's name, read by String and ParseLockAlg.
var lockAlgNames = [...]string{
	LockHybrid:     "hybrid",
	LockQueue:      "queue",
	LockQueueNoCAS: "queue-nocas",
	LockTicket:     "ticket",
	LockLease:      "lease",
}

func (a LockAlg) String() string {
	if int(a) < len(lockAlgNames) {
		return lockAlgNames[a]
	}
	return fmt.Sprintf("LockAlg(%d)", uint8(a))
}

// ParseLockAlg resolves a lock algorithm name, the inverse of
// LockAlg.String.
func ParseLockAlg(s string) (LockAlg, error) {
	if i := slices.Index(lockAlgNames[:], s); i >= 0 {
		return LockAlg(i), nil
	}
	return 0, fmt.Errorf("armci: unknown lock algorithm %q (want %s)", s, strings.Join(lockAlgNames[:], ", "))
}

// Mutex is a distributed lock handle.
type Mutex = core.Mutex

// Mutex returns the caller's handle to cluster lock idx (created via
// Options.NumMutexes) under the chosen algorithm. All processes must use
// the same algorithm for a given lock index.
func (p *Proc) Mutex(idx int, alg LockAlg) Mutex {
	if p.locks == nil {
		panic("armci: run was configured with NumMutexes == 0")
	}
	if idx < 0 || idx >= p.locks.NumLocks() {
		panic(fmt.Sprintf("armci: mutex index %d out of range [0,%d)", idx, p.locks.NumLocks()))
	}
	switch alg {
	case LockHybrid:
		return core.NewHybrid(p.eng, p.locks, idx)
	case LockQueue:
		return core.NewQueueLock(p.eng, p.locks, idx)
	case LockQueueNoCAS:
		return core.NewQueueLockNoCAS(p.eng, p.locks, idx)
	case LockTicket:
		return core.NewTicket(p.eng, p.locks, idx)
	case LockLease:
		return core.NewLeaseLock(p.eng, p.locks, idx, p.leaseTTL)
	}
	panic(fmt.Sprintf("armci: unknown lock algorithm %v", alg))
}
