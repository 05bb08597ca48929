package check

import (
	"strings"
	"testing"

	"armci/internal/msg"
	"armci/internal/trace"
)

// evs assigns the global sequence numbers RecordOp would have and returns
// the slice — synthetic histories for oracle unit tests.
func evs(events ...trace.OpEvent) []trace.OpEvent {
	for i := range events {
		events[i].Seq = i + 1
	}
	return events
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
		Event: trace.Event{Src: msg.Addr{ID: srcID}, Dst: msg.Addr{ID: dstID}, PairSeq: seq}}
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
