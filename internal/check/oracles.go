package check

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
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
// in the run. The lease oracle alone orders a lock's records by the epoch
// each carries, the linearization order of the lease word (checkLease).

// fifoKind selects the hand-off order check of a lock algorithm.
type fifoKind int

const (
	fifoNone   fifoKind = iota // QueueLockNoCAS: FIFO legitimately violable
	fifoQueue                  // MCS: acquires chain through predecessor ranks
	fifoTicket                 // Hybrid/Ticket: strictly increasing tickets
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
		vs = append(vs, checkLease(history, c)...)
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

// checkMutex validates mutual exclusion and — per fifo kind — FIFO
// hand-off order, lock by lock, in one scan of the record order.
func checkMutex(history iter.Seq[trace.OpEvent], c Case, fifo fifoKind) []Violation {
	var vs []Violation
	holder := make(map[int]int)  // lock -> holding rank, -1 free
	lastAcq := make(map[int]int) // lock -> rank of the latest acquire
	lastTicket := make(map[int]int64)
	haveAcq := make(map[int]bool)
	for e := range history {
		switch e.Kind {
		case trace.OpAcquire:
			if h, ok := holder[e.Lock]; ok && h != -1 {
				vs = append(vs, violation(c, "mutual-exclusion", "event %d: rank %d acquired lock %d while rank %d holds it",
					e.Seq, e.Rank, e.Lock, h))
			}
			switch fifo {
			case fifoQueue:
				// An acquire with Prev == -1 took the lock free (the
				// predecessor's release emptied the queue first); any
				// other Prev must be the rank that acquired immediately
				// before — the MCS queue hands off in swap order.
				if haveAcq[e.Lock] && e.Prev != -1 && e.Prev != lastAcq[e.Lock] {
					vs = append(vs, violation(c, "fifo", "event %d: rank %d acquired lock %d behind rank %d, but the previous holder was rank %d (queue overtaken)",
						e.Seq, e.Rank, e.Lock, e.Prev, lastAcq[e.Lock]))
				}
			case fifoTicket:
				if haveAcq[e.Lock] && e.Ticket <= lastTicket[e.Lock] {
					vs = append(vs, violation(c, "fifo", "event %d: rank %d acquired lock %d with ticket %d after ticket %d (grants out of ticket order)",
						e.Seq, e.Rank, e.Lock, e.Ticket, lastTicket[e.Lock]))
				}
			}
			holder[e.Lock], lastAcq[e.Lock], haveAcq[e.Lock] = e.Rank, e.Rank, true
			lastTicket[e.Lock] = e.Ticket
		case trace.OpRelease:
			if h, ok := holder[e.Lock]; !ok || h != e.Rank {
				was := "free"
				if ok && h != -1 {
					was = fmt.Sprintf("held by rank %d", h)
				}
				vs = append(vs, violation(c, "mutual-exclusion", "event %d: rank %d released lock %d it does not hold (lock %s)",
					e.Seq, e.Rank, e.Lock, was))
			}
			holder[e.Lock] = -1
		}
	}
	return vs
}

// leaseKey names one epoch of one lock.
type leaseKey struct{ lock, epoch int }

// leaseEpoch is one epoch's records by kind: claims (OpAcquire), releases
// and stale releases presenting it, and the repairs that ended it.
type leaseEpoch map[trace.OpKind][]trace.OpEvent

// holder is the rank whose claim of the epoch is on record, -1 if none.
func (ep leaseEpoch) holder() int {
	if claims := ep[trace.OpAcquire]; len(claims) > 0 {
		return claims[0].Rank
	}
	return -1
}

// deposed reports whether a repair ended the epoch by deposing its holder.
func (ep leaseEpoch) deposed() bool {
	repairs := ep[trace.OpRepair]
	return len(repairs) > 0 && repairs[0].Prev == ep.holder()
}

// ended reports whether a repair deposed the holder, or the holder's
// release won its CAS (no stale release of the holder's beside it).
func (ep leaseEpoch) ended() bool {
	h := ep.holder()
	return ep.deposed() || by(ep[trace.OpRelease], h) && !by(ep[trace.OpStaleRelease], h)
}

// by reports whether one of records is rank's.
func by(records []trace.OpEvent, rank int) bool {
	return slices.ContainsFunc(records, func(e trace.OpEvent) bool { return e.Rank == rank })
}

// checkLease validates the lease lock per lock in epoch order: every lease
// transition is one CAS on its {epoch, tenant} word (a claim keeps e, a
// release or depose moves it to e+1), and each record carries the epoch
// its CAS saw, so a claim of e+1 recorded before the repair that ended e
// is no overlap. Claimed epochs are contiguous and each claimed once; a
// claim of e+1 follows the end of e (its holder's release, or one repair
// deposing that holder); a release of e is its holder's, and a deposed
// holder's is paired with its stale release; a stale release has a repair
// behind it; a repair follows a crash record in record order; FIFO from
// Prev holds on the claims recorded before the first crash (MCS plus a
// registration CAS until then). Violations come out in (lock, epoch)
// order, each naming the event number of the record it judges.
func checkLease(history iter.Seq[trace.OpEvent], c Case) []Violation {
	epochs := make(map[leaseKey]leaseEpoch)
	crash := 0 // the event number of the first crash record; 0: none
	for e := range history {
		switch e.Kind {
		case trace.OpCrash:
			crash = cmp.Or(crash, e.Seq)
		case trace.OpAcquire, trace.OpRelease, trace.OpStaleRelease, trace.OpRepair:
			k := leaseKey{e.Lock, e.Epoch}
			if e.Kind == trace.OpRepair {
				k.epoch-- // it ended the epoch before the one it installed
			}
			if epochs[k] == nil {
				epochs[k] = make(leaseEpoch)
			}
			epochs[k][e.Kind] = append(epochs[k][e.Kind], e)
		}
	}
	var vs []Violation
	bad := func(e trace.OpEvent, oracle, format string, args ...any) {
		vs = append(vs, violation(c, oracle, "event %d: rank %d "+format, append([]any{e.Seq, e.Rank}, args...)...))
	}
	claimed := make(map[int]bool) // lock -> an epoch below the one judged was claimed
	for _, k := range slices.SortedFunc(maps.Keys(epochs), func(a, b leaseKey) int {
		return cmp.Or(cmp.Compare(a.lock, b.lock), cmp.Compare(a.epoch, b.epoch))
	}) {
		ep, prev := epochs[k], epochs[leaseKey{k.lock, k.epoch - 1}]
		h, was := ep.holder(), prev.holder()
		holds := fmt.Sprintf("rank %d holds it", h)
		if h < 0 {
			holds = "nobody claimed it"
		}
		for i, a := range ep[trace.OpAcquire] {
			switch {
			case i > 0:
				bad(a, "mutual-exclusion", "acquired lock %d under epoch %d, which rank %d claimed at event %d (epoch reused: two tenures under one lease)",
					k.lock, k.epoch, h, ep[trace.OpAcquire][0].Seq)
			case was < 0 && claimed[k.lock]:
				bad(a, "mutual-exclusion", "acquired lock %d under epoch %d, but nobody claimed epoch %d (an epoch advanced unclaimed)",
					k.lock, k.epoch, k.epoch-1)
			case was >= 0 && !prev.ended():
				bad(a, "mutual-exclusion", "acquired lock %d under epoch %d while rank %d holds epoch %d and no repair deposed it",
					k.lock, k.epoch, was, k.epoch-1)
			case was >= 0 && a.Prev != -1 && a.Prev != was && (crash == 0 || a.Seq < crash):
				bad(a, "fifo", "acquired lock %d behind rank %d, but the previous holder was rank %d (queue overtaken with no crash on record)",
					k.lock, a.Prev, was)
			}
		}
		claimed[k.lock] = claimed[k.lock] || h >= 0
		for _, r := range ep[trace.OpRelease] {
			switch {
			case r.Rank != h:
				bad(r, "mutual-exclusion", "released lock %d under epoch %d, which it does not hold (%s)", k.lock, k.epoch, holds)
			case ep.deposed() && !by(ep[trace.OpStaleRelease], h):
				bad(r, "mutual-exclusion", "released lock %d under epoch %d after a repair deposed it, and no stale release followed (the epoch check must reject it)",
					k.lock, k.epoch)
			}
		}
		for _, s := range ep[trace.OpStaleRelease] {
			if s.Rank != h || !ep.deposed() {
				bad(s, "mutual-exclusion", "had its release of lock %d under epoch %d rejected as stale, but no repair deposed it", k.lock, k.epoch)
			}
		}
		for i, r := range ep[trace.OpRepair] {
			switch {
			case crash == 0 || r.Seq < crash:
				bad(r, "mutual-exclusion", "repaired lock %d with no crash on record (recovery armed in a crash-free run)", k.lock)
			case i > 0:
				bad(r, "mutual-exclusion", "repaired lock %d out of epoch %d, which rank %d's repair at event %d already ended",
					k.lock, k.epoch, ep[trace.OpRepair][0].Rank, ep[trace.OpRepair][0].Seq)
			case r.Prev != h:
				bad(r, "mutual-exclusion", "repaired lock %d by deposing rank %d from epoch %d, but %s", k.lock, r.Prev, k.epoch, holds)
			}
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
