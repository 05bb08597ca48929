package proc

import "armci/internal/shmem"

// LockTable is the cluster-global bootstrap of lock state. For each lock
// index it allocates, at the lock's home rank, the variables of BOTH
// algorithms under study, so experiments compare them on identical
// placements:
//
//   - the ticket/counter word pair of the hybrid lock (§3.2.1);
//   - the Lock global-pointer pair of the software queuing lock (§3.2.2).
//
// It also allocates the MCS queue-node structures (next pointer pair +
// locked flag). The paper notes a single node structure per process
// suffices when a process waits on at most one lock at a time; to also
// support nested acquisitions (locking two accounts for a transfer, say)
// this implementation allocates one queue node per (lock, process) — a
// few words per lock, same algorithm.
type LockTable struct {
	// Home[i] is the rank at which lock i's variables live.
	Home []int
	// TicketCounter[i] points at two words at Home[i]: word 0 is the
	// ticket, word 1 is the counter.
	TicketCounter []shmem.Ptr
	// MCS[i] points at the pair of words at Home[i] holding the queuing
	// lock's Lock global pointer.
	MCS []shmem.Ptr
	// QNode[i][r] points at rank r's queue-node structure for lock i:
	// words 0..1 hold the next pointer pair, word 2 the locked flag.
	QNode [][]shmem.Ptr

	// Lease-lock state (crash-survivable queue lock). LeaseTail[i] is
	// the MCS tail pointer pair at Home[i]. LeaseState[i] is a pair at
	// Home[i] encoding {Hi: epoch, Lo: v}: v > 0 means rank v-1 holds
	// the lease under epoch Hi; v < 0 means the lock is free and rank
	// -v-1 was the last holder (the anchor a repairer walks the queue
	// from); v == 0 means never held. LeaseStamp[i] is one word at
	// Home[i] holding the fabric time (ns) of the last state change —
	// advisory, written fire-and-forget by each epoch-CAS winner, read
	// by waiters deciding whether the lease has expired. LeaseQNode has
	// the same per-(lock,rank) layout as QNode.
	LeaseTail  []shmem.Ptr
	LeaseState []shmem.Ptr
	LeaseStamp []shmem.Ptr
	LeaseQNode [][]shmem.Ptr
}

// Word offsets within a lock's ticket/counter allocation.
const (
	TicketWord  = 0
	CounterWord = 1
)

// Word offsets within a rank's queue-node structure: the next pointer is
// the pair at words 0 and 1, the locked flag word 2.
const (
	QNodeNextHi = 0
	QNodeLocked = 2
)

// NewLockTable allocates the lock variables for the given home ranks.
func NewLockTable(space *shmem.Space, homes []int) *LockTable {
	t := &LockTable{
		Home:          append([]int(nil), homes...),
		TicketCounter: make([]shmem.Ptr, len(homes)),
		MCS:           make([]shmem.Ptr, len(homes)),
		QNode:         make([][]shmem.Ptr, len(homes)),
		LeaseTail:     make([]shmem.Ptr, len(homes)),
		LeaseState:    make([]shmem.Ptr, len(homes)),
		LeaseStamp:    make([]shmem.Ptr, len(homes)),
		LeaseQNode:    make([][]shmem.Ptr, len(homes)),
	}
	for i, home := range homes {
		t.TicketCounter[i] = space.AllocWords(home, 2)
		t.MCS[i] = space.AllocWords(home, 2)
		t.QNode[i] = make([]shmem.Ptr, space.NumRanks())
		t.LeaseTail[i] = space.AllocWords(home, 2)
		t.LeaseState[i] = space.AllocWords(home, 2)
		t.LeaseStamp[i] = space.AllocWords(home, 1)
		t.LeaseQNode[i] = make([]shmem.Ptr, space.NumRanks())
		for r := 0; r < space.NumRanks(); r++ {
			t.QNode[i][r] = space.AllocWords(r, 3)
			t.LeaseQNode[i][r] = space.AllocWords(r, 3)
		}
	}
	return t
}

// NumLocks returns the number of locks in the table.
func (t *LockTable) NumLocks() int { return len(t.Home) }
