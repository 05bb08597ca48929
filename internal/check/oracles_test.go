package check

import (
	"iter"
	"slices"
	"strings"
	"testing"

	"armci/internal/msg"
	"armci/internal/trace"
)

// evs numbers the records as Records would and returns them as a
// history — synthetic histories for oracle unit tests.
func evs(events ...trace.OpEvent) iter.Seq[trace.OpEvent] {
	for i := range events {
		events[i].Seq = i + 1
	}
	return slices.Values(events)
}

func acq(rank, lock, prev int, ticket int64) trace.OpEvent {
	return trace.OpEvent{Kind: trace.OpAcquire, Rank: rank, Lock: lock, Prev: prev, Ticket: ticket}
}

func rel(rank, lock int) trace.OpEvent {
	return trace.OpEvent{Kind: trace.OpRelease, Rank: rank, Lock: lock, Prev: -1, Ticket: -1}
}

func wantOracle(t *testing.T, vs []Violation, oracle, fragment string) {
	t.Helper()
	for _, v := range vs {
		if v.Oracle == oracle && strings.Contains(v.Detail, fragment) {
			return
		}
	}
	t.Fatalf("no %q violation mentioning %q in %v", oracle, fragment, vs)
}

func TestMutexOracleCleanHistory(t *testing.T) {
	h := evs(
		acq(0, 0, -1, -1), rel(0, 0),
		acq(1, 0, 0, -1), rel(1, 0), // queued behind rank 0
		acq(2, 0, -1, -1), rel(2, 0), // took it free
	)
	if vs := checkMutex(h, Case{}, fifoQueue); len(vs) != 0 {
		t.Fatalf("clean history flagged: %v", vs)
	}
}

func TestMutexOracleCatchesOverlap(t *testing.T) {
	h := evs(
		acq(0, 0, -1, -1),
		acq(1, 0, -1, -1), // while rank 0 still holds
		rel(0, 0),
		rel(1, 0),
	)
	vs := checkMutex(h, Case{}, fifoNone)
	wantOracle(t, vs, "mutual-exclusion", "while rank 0 holds")
}

func TestMutexOracleCatchesForeignRelease(t *testing.T) {
	h := evs(acq(0, 0, -1, -1), rel(1, 0))
	vs := checkMutex(h, Case{}, fifoNone)
	wantOracle(t, vs, "mutual-exclusion", "does not hold")
}

func TestFIFOOracleCatchesQueueOvertake(t *testing.T) {
	// Rank 2 claims it queued behind rank 0, but rank 1 held the lock in
	// between: the queue was overtaken.
	h := evs(
		acq(0, 0, -1, -1), rel(0, 0),
		acq(1, 0, 0, -1), rel(1, 0),
		acq(2, 0, 0, -1), rel(2, 0),
	)
	vs := checkMutex(h, Case{}, fifoQueue)
	wantOracle(t, vs, "fifo", "queue overtaken")
}

func TestFIFOOracleCatchesTicketOrder(t *testing.T) {
	h := evs(
		acq(0, 0, -1, 0), rel(0, 0),
		acq(2, 0, -1, 2), rel(2, 0), // ticket 2 granted before 1
		acq(1, 0, -1, 1), rel(1, 0),
	)
	vs := checkMutex(h, Case{}, fifoTicket)
	wantOracle(t, vs, "fifo", "out of ticket order")
}

func syncEv(kind trace.OpKind, rank, epoch int) trace.OpEvent {
	return trace.OpEvent{Kind: kind, Rank: rank, Epoch: epoch, Prev: -1, Ticket: -1}
}

func issueEv(rank, node int) trace.OpEvent {
	return trace.OpEvent{Kind: trace.OpIssue, Rank: rank, Node: node, Prev: -1, Ticket: -1}
}

func completeEv(rank, node int) trace.OpEvent {
	return trace.OpEvent{Kind: trace.OpComplete, Rank: rank, Node: node, Prev: -1, Ticket: -1}
}

func TestFenceOracleCleanHistory(t *testing.T) {
	h := evs(
		issueEv(0, 1),
		syncEv(trace.OpSyncEnter, 0, 1),
		syncEv(trace.OpSyncEnter, 1, 1),
		completeEv(0, 1),
		syncEv(trace.OpSyncExit, 0, 1),
		syncEv(trace.OpSyncExit, 1, 1),
	)
	if vs := checkFence(h, Case{Procs: 2}); len(vs) != 0 {
		t.Fatalf("clean history flagged: %v", vs)
	}
}

func TestFenceOracleCatchesEscapedPut(t *testing.T) {
	// Rank 0 issued a put to node 1 before entering; rank 1 exits while
	// it is still incomplete.
	h := evs(
		issueEv(0, 1),
		syncEv(trace.OpSyncEnter, 0, 1),
		syncEv(trace.OpSyncEnter, 1, 1),
		syncEv(trace.OpSyncExit, 1, 1), // before the completion lands
		completeEv(0, 1),
		syncEv(trace.OpSyncExit, 0, 1),
	)
	vs := checkFence(h, Case{Procs: 2})
	wantOracle(t, vs, "fence", "escaped the fence")
}

func TestFenceOracleCatchesEarlyExit(t *testing.T) {
	// Rank 0 exits its sync before rank 1 even entered: no barrier did
	// that.
	h := evs(
		syncEv(trace.OpSyncEnter, 0, 1),
		syncEv(trace.OpSyncExit, 0, 1),
		syncEv(trace.OpSyncEnter, 1, 1),
		syncEv(trace.OpSyncExit, 1, 1),
	)
	vs := checkFence(h, Case{Procs: 2})
	wantOracle(t, vs, "fence", "barrier ordering broken")
}

func deliverEv(srcID, dstID int, seq uint64) trace.OpEvent {
	return trace.OpEvent{Kind: trace.OpDeliver, Rank: -1, Prev: -1, Ticket: -1,
		Event: trace.Event{Src: msg.User(srcID), Dst: msg.User(dstID), PairSeq: seq}}
}

func TestDeliveryOracleCleanHistory(t *testing.T) {
	h := evs(
		deliverEv(0, 1, 1), deliverEv(0, 1, 2),
		deliverEv(1, 0, 1), // independent pair restarts at 1
		deliverEv(0, 1, 5), // gaps are fine (tail in flight elsewhere)
	)
	if vs := checkDelivery(h, Case{}); len(vs) != 0 {
		t.Fatalf("clean history flagged: %v", vs)
	}
}

func TestDeliveryOracleCatchesDuplicate(t *testing.T) {
	h := evs(deliverEv(0, 1, 1), deliverEv(0, 1, 1))
	vs := checkDelivery(h, Case{})
	wantOracle(t, vs, "delivery", "duplicate survived dedup")
}

func TestDeliveryOracleCatchesReorder(t *testing.T) {
	h := evs(deliverEv(0, 1, 2), deliverEv(0, 1, 1))
	vs := checkDelivery(h, Case{})
	wantOracle(t, vs, "delivery", "out of order")
}

func leaseAcq(rank, lock, prev, epoch int) trace.OpEvent {
	return trace.OpEvent{Kind: trace.OpAcquire, Rank: rank, Lock: lock, Prev: prev, Ticket: -1, Epoch: epoch}
}

// leaseStep is a lease record other than an acquire: a release or stale
// release presenting epoch, a repair deposing prev to install epoch, or a
// crash.
func leaseStep(kind trace.OpKind, rank, lock, prev, epoch int) trace.OpEvent {
	return trace.OpEvent{Kind: kind, Rank: rank, Lock: lock, Prev: prev, Ticket: -1, Epoch: epoch}
}

func leaseRel(rank, lock, epoch int) trace.OpEvent {
	return leaseStep(trace.OpRelease, rank, lock, -1, epoch)
}

func TestLeaseOracleCleanHistory(t *testing.T) {
	// Rank 1 crashes holding epoch 1; rank 2 deposes it, installing epoch
	// 2, and self-grants. Rank 3 queues behind rank 2 and then stalls
	// past the TTL under epoch 3: rank 4 deposes it, and rank 3's late
	// release of epoch 3 is rejected as stale.
	h := evs(
		leaseAcq(0, 0, -1, 0), leaseRel(0, 0, 0),
		leaseAcq(1, 0, 0, 1),
		leaseStep(trace.OpCrash, 1, 0, -1, 0),
		leaseStep(trace.OpRepair, 2, 0, 1, 2),
		leaseAcq(2, 0, -1, 2), leaseRel(2, 0, 2),
		leaseAcq(3, 0, 2, 3),
		leaseStep(trace.OpRepair, 4, 0, 3, 4),
		leaseAcq(4, 0, -1, 4),
		leaseRel(3, 0, 3), leaseStep(trace.OpStaleRelease, 3, 0, -1, 3),
		leaseRel(4, 0, 4),
	)
	if vs := checkLease(h, Case{}); len(vs) != 0 {
		t.Fatalf("clean history flagged: %v", vs)
	}
}

// TestLeaseOracleOrdersByEpoch: a repair's CAS frees epoch 1, and rank 0,
// local to the lock's home, claims epoch 2 and records its acquire before
// the repairer's record of the depose reaches the spine. In record order
// rank 0 acquires while rank 1 holds; in epoch order the repair ended
// epoch 1 first, which is what the lease word saw.
func TestLeaseOracleOrdersByEpoch(t *testing.T) {
	h := evs(
		leaseAcq(0, 0, -1, 0), leaseRel(0, 0, 0),
		leaseAcq(1, 0, 0, 1),
		leaseStep(trace.OpCrash, 1, 0, -1, 0),
		leaseAcq(0, 0, -1, 2),
		leaseStep(trace.OpRepair, 2, 0, 1, 2),
		leaseRel(0, 0, 2),
	)
	if vs := checkLease(h, Case{}); len(vs) != 0 {
		t.Fatalf("an acquire recorded before the repair that freed its epoch was flagged: %v", vs)
	}
}

func TestLeaseOracleCatchesAcquireWhileHeld(t *testing.T) {
	h := evs(leaseAcq(0, 0, -1, 0), leaseAcq(1, 0, -1, 1))
	vs := checkLease(h, Case{})
	wantOracle(t, vs, "mutual-exclusion", "event 2: rank 1 acquired lock 0 under epoch 1 while rank 0 holds epoch 0 and no repair deposed it")
}

func TestLeaseOracleCatchesReusedEpoch(t *testing.T) {
	// Rank 0's release never advanced the epoch, so rank 1 claims epoch 0
	// again.
	h := evs(leaseAcq(0, 0, -1, 0), leaseRel(0, 0, 0), leaseAcq(1, 0, -1, 0))
	vs := checkLease(h, Case{})
	wantOracle(t, vs, "mutual-exclusion", "event 3: rank 1 acquired lock 0 under epoch 0, which rank 0 claimed at event 1 (epoch reused")
}

func TestLeaseOracleCatchesSkippedEpoch(t *testing.T) {
	h := evs(leaseAcq(0, 0, -1, 0), leaseRel(0, 0, 0), leaseAcq(1, 0, -1, 2))
	vs := checkLease(h, Case{})
	wantOracle(t, vs, "mutual-exclusion", "nobody claimed epoch 1")
}

func TestLeaseOracleCatchesStaleReleaseWithoutRepair(t *testing.T) {
	h := evs(leaseAcq(0, 0, -1, 0), leaseRel(0, 0, 0), leaseStep(trace.OpStaleRelease, 0, 0, -1, 0))
	vs := checkLease(h, Case{})
	wantOracle(t, vs, "mutual-exclusion", "event 3: rank 0 had its release of lock 0 under epoch 0 rejected as stale, but no repair deposed it")
}

func TestLeaseOracleCatchesDeposedHolderRelease(t *testing.T) {
	// Rank 0 was deposed, yet its release of epoch 0 was never rejected.
	h := evs(
		leaseAcq(0, 0, -1, 0),
		leaseStep(trace.OpCrash, 3, 0, -1, 0),
		leaseStep(trace.OpRepair, 1, 0, 0, 1),
		leaseAcq(1, 0, -1, 1),
		leaseRel(0, 0, 0),
	)
	vs := checkLease(h, Case{})
	wantOracle(t, vs, "mutual-exclusion", "event 5: rank 0 released lock 0 under epoch 0 after a repair deposed it, and no stale release followed")
}

func TestLeaseOracleCatchesRepairWithoutCrash(t *testing.T) {
	h := evs(leaseAcq(0, 0, -1, 0), leaseStep(trace.OpRepair, 1, 0, 0, 1))
	vs := checkLease(h, Case{})
	wantOracle(t, vs, "mutual-exclusion", "event 2: rank 1 repaired lock 0 with no crash on record")
}

// TestLeaseOracleReportsInLockEpochOrder: violations come out by lock,
// then epoch, whatever order their records landed in.
func TestLeaseOracleReportsInLockEpochOrder(t *testing.T) {
	h := evs(
		leaseAcq(0, 1, -1, 0), leaseAcq(1, 1, -1, 1), // lock 1, epoch 1: acquired while held
		leaseAcq(2, 0, -1, 4), leaseRel(2, 0, 4), leaseAcq(3, 0, -1, 4), // lock 0, epoch 4: reused
		leaseRel(4, 0, 3), // lock 0, epoch 3: nobody claimed it
	)
	var got []string
	for _, v := range checkLease(h, Case{}) {
		got = append(got, v.Detail)
	}
	want := []string{
		"event 6: rank 4 released lock 0 under epoch 3, which it does not hold (nobody claimed it)",
		"event 5: rank 3 acquired lock 0 under epoch 4, which rank 2 claimed at event 3 (epoch reused: two tenures under one lease)",
		"event 2: rank 1 acquired lock 1 under epoch 1 while rank 0 holds epoch 0 and no repair deposed it",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("violations\n got %q\nwant %q", got, want)
	}
}

func TestFenceOracleSkipsRoundNotEnteredByEveryRank(t *testing.T) {
	// Round 1 is clean. Rank 0 then enters and leaves round 2 with its
	// put to node 1 incomplete, but rank 1 never enters round 2: the run
	// was cut short, so the round is not judged.
	h := evs(
		syncEv(trace.OpSyncEnter, 0, 1),
		syncEv(trace.OpSyncEnter, 1, 1),
		syncEv(trace.OpSyncExit, 0, 1),
		syncEv(trace.OpSyncExit, 1, 1),
		issueEv(0, 1),
		syncEv(trace.OpSyncEnter, 0, 2),
		syncEv(trace.OpSyncExit, 0, 2),
	)
	if vs := checkFence(h, Case{Procs: 2}); len(vs) != 0 {
		t.Fatalf("unfinished round judged: %v", vs)
	}
}

func TestFenceOracleSkipsRunWhereARankNeverSyncs(t *testing.T) {
	// Rank 0 leaves before rank 1 enters and with a put incomplete, but
	// rank 2 records no sync at all: nothing in the run is pairable.
	h := evs(
		issueEv(1, 0),
		syncEv(trace.OpSyncEnter, 0, 1),
		syncEv(trace.OpSyncExit, 0, 1),
		syncEv(trace.OpSyncEnter, 1, 1),
		syncEv(trace.OpSyncExit, 1, 1),
	)
	if vs := checkFence(h, Case{Procs: 3}); len(vs) != 0 {
		t.Fatalf("aborted run judged: %v", vs)
	}
}

func TestFenceOracleJudgesEarlyExitOnceTheRoundFills(t *testing.T) {
	// Rank 1 leaves round 1 before rank 0 enters it, and before rank 0's
	// put to node 1, issued ahead of its enter, completes: both halves
	// are judged when rank 0's enter fills the round.
	h := evs(
		syncEv(trace.OpSyncEnter, 1, 1),
		syncEv(trace.OpSyncExit, 1, 1),
		issueEv(0, 1),
		syncEv(trace.OpSyncEnter, 0, 1),
		completeEv(0, 1),
		syncEv(trace.OpSyncExit, 0, 1),
	)
	vs := checkFence(h, Case{Procs: 2})
	wantOracle(t, vs, "fence", "event 2: rank 1 exited sync round 1 before rank 0 entered it")
	wantOracle(t, vs, "fence", "event 2: rank 1 exited sync round 1 with 0 of 1 operations complete at node 1")
	if len(vs) != 2 {
		t.Fatalf("want exactly the two violations of rank 1's exit, got %v", vs)
	}
}
