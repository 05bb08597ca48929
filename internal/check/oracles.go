package check

import (
	"fmt"
	"iter"
	"slices"

	"armci"
	"armci/internal/msg"
	"armci/internal/trace"
)

// The oracles consume the run's recorded history in record order, each
// in one pass, keeping only per-lock, per-round or per-pair state. Every
// record is taken under the trace collector's mutex at the instant the
// event happens, and the instrumented algorithms place their records so
// that each one is justified by a happens-before chain (acquire after
// the lock is held, release before the hand-off starts, completion
// before the counters that witness it advance, sync-enter before the
// first stage, sync-exit after the last). The record order is therefore
// consistent with the happens-before order of the run on every fabric,
// and a history that violates an invariant in record order violates it
// in the run.

// fifoKind selects the hand-off order check of a lock algorithm.
type fifoKind int

const (
	fifoNone   fifoKind = iota // QueueLockNoCAS: FIFO legitimately violable
	fifoQueue                  // MCS: acquires chain through predecessor ranks
	fifoTicket                 // Hybrid/Ticket: strictly increasing tickets
	fifoLease                  // LeaseLock: MCS until the first crash, modulo lease expiry
)

// fifoOf is the hand-off order check of each lock algorithm name; a name
// it lacks is checked for mutual exclusion only.
var fifoOf = map[string]fifoKind{
	armci.LockQueue.String():  fifoQueue,
	armci.LockHybrid.String(): fifoTicket,
	armci.LockTicket.String(): fifoTicket,
}

// checkHistory runs every trace-level oracle over one run's history.
func checkHistory(history iter.Seq[trace.OpEvent], c Case) []Violation {
	var vs []Violation
	if c.Alg == armci.LockLease.String() { // the lease algorithm, real or mutated
		vs = append(vs, checkMutexLease(history, c)...)
	} else {
		vs = append(vs, checkMutex(history, c, fifoOf[c.Alg])...)
	}
	vs = append(vs, checkFence(history, c)...)
	vs = append(vs, checkDelivery(history, c)...)
	return vs
}

// violation is a breach of oracle in c, described by format and args.
func violation(c Case, oracle, format string, args ...any) Violation {
	return Violation{Oracle: oracle, Case: c, Detail: fmt.Sprintf(format, args...)}
}

// checkMutexLease validates the lease lock's "mutual exclusion modulo
// lease expiry" contract; see checkMutex under fifoLease.
func checkMutexLease(history iter.Seq[trace.OpEvent], c Case) []Violation {
	return checkMutex(history, c, fifoLease)
}

// checkMutex validates mutual exclusion and — per fifo kind — FIFO
// hand-off order, lock by lock, in one scan. Under fifoLease the contract
// is "mutual exclusion modulo lease expiry":
//
//   - an acquire while a rank holds the lock is a violation, unless that
//     holder was first deposed by a repair event — leases make a second
//     holder legal only across a repair boundary;
//   - acquire epochs are strictly increasing: every tenure ends in
//     exactly one epoch advance (release or repair), so a repeated or
//     regressed epoch means two ranks were registered under one;
//   - a release must come from the recorded holder — a deposed rank's
//     ordinary release means the epoch check failed to reject it (the
//     protocol demands it surface as a stale-release instead);
//   - a stale-release may only come from a rank some repair deposed;
//   - a repair may only depose the recorded holder, and only after a
//     crash is on record — recovery must never arm in crash-free runs.
//
// FIFO hand-off: until the first crash the lease lock is MCS plus a
// registration CAS, so acquires chain through their predecessor ranks
// exactly as fifoQueue demands. After a crash, repairs and self-grants
// legitimately restart the chain, so the predecessor check stands down.
func checkMutex(history iter.Seq[trace.OpEvent], c Case, fifo fifoKind) []Violation {
	var vs []Violation
	lease := fifo == fifoLease
	unless, overtaken := "", "queue overtaken"
	if lease {
		unless, overtaken = " and no repair deposed it", "queue overtaken with no crash on record"
	}
	holder := make(map[int]int)  // lock -> holding rank, -1 free
	lastAcq := make(map[int]int) // lock -> rank of the latest acquire
	lastTicket := make(map[int]int64)
	epoch := make(map[int]int) // lock -> lease epoch of the latest acquire
	haveAcq := make(map[int]bool)
	deposed := make(map[int]map[int]bool) // lock -> ranks repairs deposed
	crashed := false
	for e := range history {
		switch e.Kind {
		case trace.OpCrash:
			crashed = true
		case trace.OpAcquire:
			if h, ok := holder[e.Lock]; ok && h != -1 {
				vs = append(vs, violation(c, "mutual-exclusion", "event %d: rank %d acquired lock %d while rank %d holds it%s",
					e.Seq, e.Rank, e.Lock, h, unless))
			}
			if lease && haveAcq[e.Lock] && e.Epoch <= epoch[e.Lock] {
				vs = append(vs, violation(c, "mutual-exclusion", "event %d: rank %d acquired lock %d under epoch %d, not past epoch %d (epoch reused: two tenures under one lease)",
					e.Seq, e.Rank, e.Lock, e.Epoch, epoch[e.Lock]))
			}
			switch {
			case fifo == fifoQueue || lease && !crashed:
				// An acquire with Prev == -1 took the lock free (the
				// predecessor's release emptied the queue first); any
				// other Prev must be the rank that acquired immediately
				// before — the MCS queue hands off in swap order.
				if haveAcq[e.Lock] && e.Prev != -1 && e.Prev != lastAcq[e.Lock] {
					vs = append(vs, violation(c, "fifo", "event %d: rank %d acquired lock %d behind rank %d, but the previous holder was rank %d (%s)",
						e.Seq, e.Rank, e.Lock, e.Prev, lastAcq[e.Lock], overtaken))
				}
			case fifo == fifoTicket:
				if haveAcq[e.Lock] && e.Ticket <= lastTicket[e.Lock] {
					vs = append(vs, violation(c, "fifo", "event %d: rank %d acquired lock %d with ticket %d after ticket %d (grants out of ticket order)",
						e.Seq, e.Rank, e.Lock, e.Ticket, lastTicket[e.Lock]))
				}
			}
			holder[e.Lock], lastAcq[e.Lock], haveAcq[e.Lock] = e.Rank, e.Rank, true
			lastTicket[e.Lock], epoch[e.Lock] = e.Ticket, e.Epoch
		case trace.OpRelease:
			if h, ok := holder[e.Lock]; !ok || h != e.Rank {
				was := "free"
				if ok && h != -1 {
					was = fmt.Sprintf("held by rank %d", h)
				}
				if deposed[e.Lock][e.Rank] {
					was += "; rank was deposed — the epoch check must reject this as stale"
				}
				vs = append(vs, violation(c, "mutual-exclusion", "event %d: rank %d released lock %d it does not hold (lock %s)",
					e.Seq, e.Rank, e.Lock, was))
				if lease {
					continue // an invalid release frees nothing
				}
			}
			holder[e.Lock] = -1
		case trace.OpStaleRelease:
			if !deposed[e.Lock][e.Rank] {
				vs = append(vs, violation(c, "mutual-exclusion", "event %d: rank %d had its release of lock %d rejected as stale, but no repair deposed it",
					e.Seq, e.Rank, e.Lock))
			}
		case trace.OpRepair:
			if !crashed {
				vs = append(vs, violation(c, "mutual-exclusion", "event %d: rank %d repaired lock %d with no crash on record (recovery armed in a crash-free run)",
					e.Seq, e.Rank, e.Lock))
			}
			if h, ok := holder[e.Lock]; ok && h != -1 && h != e.Prev {
				vs = append(vs, violation(c, "mutual-exclusion", "event %d: rank %d repaired lock %d by deposing rank %d, but rank %d holds it",
					e.Seq, e.Rank, e.Lock, e.Prev, h))
			}
			if deposed[e.Lock] == nil {
				deposed[e.Lock] = make(map[int]bool)
			}
			deposed[e.Lock][e.Prev] = true
			holder[e.Lock] = -1 // the depose freed the lock under a new epoch
		}
	}
	return vs
}

// checkFence validates the fence-completion semantics of the global
// synchronization: pairing each rank's k-th sync-enter with every other
// rank's k-th, no rank's k-th exit may be recorded (i) before every rank's
// k-th enter — the barrier half — or (ii) while fewer completions have
// been recorded at some node than fence-counted operations were issued to
// it before the issuers' k-th enters — the fence half.
//
// Only rounds every rank entered are well formed: an exit of a round not
// yet entered by every rank waits in that round with the completion
// counts it left at, and is judged when the last rank enters. Rounds the
// run did not finish (an aborted sweep case, a rank that never synced)
// are dropped with their waiting exits at the end of the history. Ranks
// and nodes are numbered below c.Procs.
//
// Sync events are paired by per-rank occurrence order, not by the
// recorded Epoch value, so histories mixing differently-numbered sync
// variants (e.g. a mutated barrier next to the harness's own phases)
// still pair correctly as long as all ranks run the same call sequence.
func checkFence(history iter.Seq[trace.OpEvent], c Case) []Violation {
	var vs []Violation
	var rounds []*fenceRound
	at := 0                           // the record's position in the history
	issued := make([][]int, c.Procs)  // rank -> node -> fence-counted operations issued
	completed := make([]int, c.Procs) // node -> completions recorded
	entered, exited := make([]int, c.Procs), make([]int, c.Procs)
	for e := range history {
		at++
		switch e.Kind {
		case trace.OpIssue:
			if issued[e.Rank] == nil {
				issued[e.Rank] = make([]int, c.Procs)
			}
			issued[e.Rank][e.Node]++
		case trace.OpComplete:
			completed[e.Node]++
		case trace.OpSyncEnter, trace.OpSyncExit:
			count := entered
			if e.Kind == trace.OpSyncExit {
				count = exited
			}
			k := count[e.Rank]
			count[e.Rank]++
			for len(rounds) <= k {
				rounds = append(rounds, &fenceRound{enteredAt: make([]int, c.Procs), required: make([]int, c.Procs)})
			}
			r := rounds[k]
			if e.Kind == trace.OpSyncExit {
				x := fenceExit{seq: e.Seq, rank: e.Rank, at: at, completed: completed}
				if r.entered == c.Procs {
					vs = r.judge(vs, x, k, c)
				} else {
					x.completed = slices.Clone(completed)
					r.early = append(r.early, x)
				}
				continue
			}
			r.enteredAt[e.Rank] = at
			for n, ops := range issued[e.Rank] {
				r.required[n] += ops
			}
			if r.entered++; r.entered == c.Procs {
				for _, x := range r.early {
					vs = r.judge(vs, x, k, c)
				}
			}
		}
	}
	return vs
}

// fenceRound is what checkFence keeps of one sync round.
type fenceRound struct {
	enteredAt []int       // rank -> position of its enter, 0 before it
	entered   int         // ranks that entered
	required  []int       // node -> operations issued to it before their issuers entered
	early     []fenceExit // exits recorded before every rank entered
}

// fenceExit is one rank's exit from a round: its record's number and
// position, and the completions recorded before it, per node.
type fenceExit struct {
	seq, rank, at int
	completed     []int
}

// judge appends the violations of exit x from the entered round r (the
// k-th, 0-based): ranks that entered after x left, then nodes whose
// operations required by the round had not all completed when it left.
func (r *fenceRound) judge(vs []Violation, x fenceExit, k int, c Case) []Violation {
	for q, in := range r.enteredAt {
		if in > x.at {
			vs = append(vs, violation(c, "fence", "event %d: rank %d exited sync round %d before rank %d entered it (barrier ordering broken)",
				x.seq, x.rank, k+1, q))
		}
	}
	for n, want := range r.required {
		if got := x.completed[n]; got < want {
			vs = append(vs, violation(c, "fence", "event %d: rank %d exited sync round %d with %d of %d operations complete at node %d (outstanding puts escaped the fence)",
				x.seq, x.rank, k+1, got, want, n))
		}
	}
	return vs
}

// checkDelivery validates per-pair FIFO and exactly-once admission: for
// every directed (src, dst) pair, the pipeline sequence numbers of
// admitted messages must be strictly increasing — a repeat is a duplicate
// that survived dedup, a decrease is reordering.
func checkDelivery(history iter.Seq[trace.OpEvent], c Case) []Violation {
	var vs []Violation
	type pairKey struct{ src, dst msg.Addr }
	last := make(map[pairKey]uint64)
	for e := range history {
		if e.Kind != trace.OpDeliver || e.PairSeq == 0 {
			continue
		}
		k := pairKey{e.Src, e.Dst}
		if prev, ok := last[k]; ok && e.PairSeq <= prev {
			what := "delivered out of order after"
			if e.PairSeq == prev {
				what = "delivered twice; duplicate survived dedup after"
			}
			vs = append(vs, violation(c, "delivery", "event %d: message %v->%v seq %d %s seq %d",
				e.Seq, e.Src, e.Dst, e.PairSeq, what, prev))
		}
		if e.PairSeq > last[k] {
			last[k] = e.PairSeq
		}
	}
	return vs
}
