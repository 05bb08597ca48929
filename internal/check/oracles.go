package check

import (
	"fmt"
	"sort"

	"armci"
	"armci/internal/msg"
	"armci/internal/trace"
)

// The oracles consume the run's op-event history in record order. Every
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
)

// fifoOf is the hand-off order check of each lock algorithm name; a name
// it lacks is checked for mutual exclusion only.
var fifoOf = map[string]fifoKind{
	armci.LockQueue.String():  fifoQueue,
	armci.LockHybrid.String(): fifoTicket,
	armci.LockTicket.String(): fifoTicket,
}

// checkHistory runs every trace-level oracle over one run's history.
func checkHistory(events []trace.OpEvent, c Case) []Violation {
	var vs []Violation
	if leaseSemantics(c) {
		vs = append(vs, checkMutexLease(events, c)...)
	} else {
		vs = append(vs, checkMutex(events, c, fifoOf[c.Alg])...)
	}
	vs = append(vs, checkFence(events, c)...)
	vs = append(vs, checkDelivery(events, c)...)
	return vs
}

// leaseSemantics reports whether the case's lock history must be judged
// by the modulo-lease oracle: the lease algorithm, real or mutated.
func leaseSemantics(c Case) bool { return c.Alg == armci.LockLease.String() }

// checkMutex validates mutual exclusion and — per fifo kind — FIFO
// hand-off order, lock by lock, in one scan.
func checkMutex(events []trace.OpEvent, c Case, fifo fifoKind) []Violation {
	var vs []Violation
	holder := make(map[int]int)  // lock -> holding rank, -1 free
	lastAcq := make(map[int]int) // lock -> rank of the latest acquire
	lastTicket := make(map[int]int64)
	haveAcq := make(map[int]bool)
	for _, e := range events {
		switch e.Kind {
		case trace.OpAcquire:
			if h, ok := holder[e.Lock]; ok && h != -1 {
				vs = append(vs, Violation{Oracle: "mutual-exclusion", Case: c,
					Detail: fmt.Sprintf("event %d: rank %d acquired lock %d while rank %d holds it",
						e.Seq, e.Rank, e.Lock, h)})
			}
			holder[e.Lock] = e.Rank
			switch fifo {
			case fifoQueue:
				// An acquire with Prev == -1 took the lock free (the
				// predecessor's release emptied the queue first); any
				// other Prev must be the rank that acquired immediately
				// before — the MCS queue hands off in swap order.
				if haveAcq[e.Lock] && e.Prev != -1 && e.Prev != lastAcq[e.Lock] {
					vs = append(vs, Violation{Oracle: "fifo", Case: c,
						Detail: fmt.Sprintf("event %d: rank %d acquired lock %d behind rank %d, but the previous holder was rank %d (queue overtaken)",
							e.Seq, e.Rank, e.Lock, e.Prev, lastAcq[e.Lock])})
				}
			case fifoTicket:
				if haveAcq[e.Lock] && e.Ticket <= lastTicket[e.Lock] {
					vs = append(vs, Violation{Oracle: "fifo", Case: c,
						Detail: fmt.Sprintf("event %d: rank %d acquired lock %d with ticket %d after ticket %d (grants out of ticket order)",
							e.Seq, e.Rank, e.Lock, e.Ticket, lastTicket[e.Lock])})
				}
				lastTicket[e.Lock] = e.Ticket
			}
			lastAcq[e.Lock] = e.Rank
			haveAcq[e.Lock] = true
		case trace.OpRelease:
			if h, ok := holder[e.Lock]; !ok || h != e.Rank {
				was := "free"
				if ok && h != -1 {
					was = fmt.Sprintf("held by rank %d", h)
				}
				vs = append(vs, Violation{Oracle: "mutual-exclusion", Case: c,
					Detail: fmt.Sprintf("event %d: rank %d released lock %d it does not hold (lock %s)",
						e.Seq, e.Rank, e.Lock, was)})
			}
			holder[e.Lock] = -1
		}
	}
	return vs
}

// checkMutexLease validates the lease lock's "mutual exclusion modulo
// lease expiry" contract, lock by lock, in one scan:
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
func checkMutexLease(events []trace.OpEvent, c Case) []Violation {
	var vs []Violation
	holder := make(map[int]int)  // lock -> holding rank, -1 free
	epoch := make(map[int]int)   // lock -> epoch of the latest acquire
	lastAcq := make(map[int]int) // lock -> rank of the latest acquire
	haveAcq := make(map[int]bool)
	deposed := make(map[int]map[int]bool) // lock -> ranks repairs deposed
	crashed := false
	for _, e := range events {
		switch e.Kind {
		case trace.OpCrash:
			crashed = true
		case trace.OpAcquire:
			if h, ok := holder[e.Lock]; ok && h != -1 {
				vs = append(vs, Violation{Oracle: "mutual-exclusion", Case: c,
					Detail: fmt.Sprintf("event %d: rank %d acquired lock %d while rank %d holds it and no repair deposed it",
						e.Seq, e.Rank, e.Lock, h)})
			}
			if haveAcq[e.Lock] && e.Epoch <= epoch[e.Lock] {
				vs = append(vs, Violation{Oracle: "mutual-exclusion", Case: c,
					Detail: fmt.Sprintf("event %d: rank %d acquired lock %d under epoch %d, not past epoch %d (epoch reused: two tenures under one lease)",
						e.Seq, e.Rank, e.Lock, e.Epoch, epoch[e.Lock])})
			}
			if !crashed && haveAcq[e.Lock] && e.Prev != -1 && e.Prev != lastAcq[e.Lock] {
				vs = append(vs, Violation{Oracle: "fifo", Case: c,
					Detail: fmt.Sprintf("event %d: rank %d acquired lock %d behind rank %d, but the previous holder was rank %d (queue overtaken with no crash on record)",
						e.Seq, e.Rank, e.Lock, e.Prev, lastAcq[e.Lock])})
			}
			holder[e.Lock] = e.Rank
			epoch[e.Lock] = e.Epoch
			lastAcq[e.Lock] = e.Rank
			haveAcq[e.Lock] = true
		case trace.OpRelease:
			if h, ok := holder[e.Lock]; !ok || h != e.Rank {
				was := "free"
				if ok && h != -1 {
					was = fmt.Sprintf("held by rank %d", h)
				}
				if deposed[e.Lock][e.Rank] {
					was += "; rank was deposed — the epoch check must reject this as stale"
				}
				vs = append(vs, Violation{Oracle: "mutual-exclusion", Case: c,
					Detail: fmt.Sprintf("event %d: rank %d released lock %d it does not hold (lock %s)",
						e.Seq, e.Rank, e.Lock, was)})
				continue // an invalid release frees nothing
			}
			holder[e.Lock] = -1
		case trace.OpStaleRelease:
			if !deposed[e.Lock][e.Rank] {
				vs = append(vs, Violation{Oracle: "mutual-exclusion", Case: c,
					Detail: fmt.Sprintf("event %d: rank %d had its release of lock %d rejected as stale, but no repair deposed it",
						e.Seq, e.Rank, e.Lock)})
			}
		case trace.OpRepair:
			if !crashed {
				vs = append(vs, Violation{Oracle: "mutual-exclusion", Case: c,
					Detail: fmt.Sprintf("event %d: rank %d repaired lock %d with no crash on record (recovery armed in a crash-free run)",
						e.Seq, e.Rank, e.Lock)})
			}
			if h, ok := holder[e.Lock]; ok && h != -1 && h != e.Prev {
				vs = append(vs, Violation{Oracle: "mutual-exclusion", Case: c,
					Detail: fmt.Sprintf("event %d: rank %d repaired lock %d by deposing rank %d, but rank %d holds it",
						e.Seq, e.Rank, e.Lock, e.Prev, h)})
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
// it before the issuers' k-th enters — the fence half. Rounds the run did
// not finish (an aborted sweep case) are checked only as far as their
// recorded exits.
//
// Sync events are paired by per-rank occurrence order, not by the
// recorded Epoch value, so histories mixing differently-numbered sync
// variants (e.g. a mutated barrier next to the harness's own phases)
// still pair correctly as long as all ranks run the same call sequence.
func checkFence(events []trace.OpEvent, c Case) []Violation {
	var vs []Violation
	enters := make(map[int][]int) // rank -> event indices of its sync-enters
	exits := make(map[int][]int)
	issues := make(map[int]map[int][]int) // rank -> node -> issue indices
	completes := make(map[int][]int)      // node -> completion indices
	nodes := make(map[int]bool)
	for i, e := range events {
		switch e.Kind {
		case trace.OpSyncEnter:
			enters[e.Rank] = append(enters[e.Rank], i)
		case trace.OpSyncExit:
			exits[e.Rank] = append(exits[e.Rank], i)
		case trace.OpIssue:
			m := issues[e.Rank]
			if m == nil {
				m = make(map[int][]int)
				issues[e.Rank] = m
			}
			m[e.Node] = append(m[e.Node], i)
			nodes[e.Node] = true
		case trace.OpComplete:
			completes[e.Node] = append(completes[e.Node], i)
			nodes[e.Node] = true
		}
	}
	if len(enters) == 0 {
		return nil
	}
	// Only rounds every rank entered are well formed.
	rounds := -1
	for _, idxs := range enters {
		if rounds == -1 || len(idxs) < rounds {
			rounds = len(idxs)
		}
	}
	if len(enters) < c.Procs {
		// A rank recorded no sync at all (aborted run): nothing pairable.
		return nil
	}
	// countBefore(list, i): how many recorded indices precede event i.
	countBefore := func(list []int, i int) int {
		return sort.SearchInts(list, i)
	}
	for k := 0; k < rounds; k++ {
		// required[n]: fence-counted operations addressed to node n that
		// were issued before their issuer's k-th enter. The instrumented
		// barrier reads its op_init snapshot immediately after recording
		// the enter, so this is exactly the total stage 1 distributes.
		required := make(map[int]int)
		for n := range nodes {
			total := 0
			for q, ni := range issues {
				total += countBefore(ni[n], enters[q][k])
			}
			required[n] = total
		}
		for r, xs := range exits {
			if k >= len(xs) {
				continue
			}
			xi := xs[k]
			for q, es := range enters {
				if es[k] > xi {
					vs = append(vs, Violation{Oracle: "fence", Case: c,
						Detail: fmt.Sprintf("event %d: rank %d exited sync round %d before rank %d entered it (barrier ordering broken)",
							events[xi].Seq, r, k+1, q)})
				}
			}
			for n, want := range required {
				if got := countBefore(completes[n], xi); got < want {
					vs = append(vs, Violation{Oracle: "fence", Case: c,
						Detail: fmt.Sprintf("event %d: rank %d exited sync round %d with %d of %d operations complete at node %d (outstanding puts escaped the fence)",
							events[xi].Seq, r, k+1, got, want, n)})
				}
			}
		}
	}
	return vs
}

// checkDelivery validates per-pair FIFO and exactly-once admission: for
// every directed (src, dst) pair, the pipeline sequence numbers of
// admitted messages must be strictly increasing — a repeat is a duplicate
// that survived dedup, a decrease is reordering.
func checkDelivery(events []trace.OpEvent, c Case) []Violation {
	var vs []Violation
	type pairKey struct{ src, dst msg.Addr }
	last := make(map[pairKey]uint64)
	for _, e := range events {
		if e.Kind != trace.OpDeliver || e.PairSeq == 0 {
			continue
		}
		k := pairKey{e.Src, e.Dst}
		if prev, ok := last[k]; ok && e.PairSeq <= prev {
			what := "delivered out of order after"
			if e.PairSeq == prev {
				what = "delivered twice; duplicate survived dedup after"
			}
			vs = append(vs, Violation{Oracle: "delivery", Case: c,
				Detail: fmt.Sprintf("event %d: message %v->%v seq %d %s seq %d",
					e.Seq, e.Src, e.Dst, e.PairSeq, what, prev)})
		}
		if e.PairSeq > last[k] {
			last[k] = e.PairSeq
		}
	}
	return vs
}
