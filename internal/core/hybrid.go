package core

import (
	"armci/internal/msg"
	"armci/internal/proc"
	"armci/internal/shmem"
)

// Mutex is a distributed lock handle. Lock blocks until the calling
// process holds the lock; Unlock releases it. A process must not call
// Lock twice without an intervening Unlock.
type Mutex interface {
	Lock()
	Unlock()
}

// Hybrid is the *original* ARMCI lock (§3.2.1): a hybrid of ticket-based
// locking for local locks and server-based queue locking for remote locks.
//
//   - Requesting a local lock: the process takes a ticket with a direct
//     atomic fetch-and-increment and polls the counter (Figure 3 a-b).
//   - Requesting a remote lock: the process sends a lock request to the
//     server at the lock's node and waits for the grant; the server takes
//     the ticket on its behalf and queues the request (Figure 3 c-d).
//   - Releasing — local or remote alike — always contacts the server
//     (Figure 4), which increments the counter and grants the next queued
//     waiter. Passing the lock to a remote waiter therefore costs two
//     message latencies (release → server, server → next waiter), the
//     inefficiency the queuing lock removes.
type Hybrid struct {
	Holder
	Gate
	home int // node hosting the lock's variables
}

// NewHybrid returns rank-local state for lock idx of the table.
func NewHybrid(eng *proc.Engine, t *proc.LockTable, idx int) *Hybrid {
	return &Hybrid{newHolder(eng.Env(), idx), newGate(eng, t, idx), eng.Env().Node(t.Home[idx])}
}

var _ Mutex = (*Hybrid)(nil)

// Lock acquires the lock.
func (h *Hybrid) Lock() {
	env := h.env
	if env.Node(env.Rank()) == h.home {
		// Ticket-based path: direct atomics, no server involvement.
		ticket := h.Take()
		h.Await(ticket)
		h.Acquired(-1, ticket, 0)
		return
	}
	// Server-based path: one request, one grant (possibly queued).
	tok := h.eng.NextToken()
	h.eng.Send(msg.ServerOf(h.home), msg.Message{
		Kind:   msg.KindLockReq,
		Origin: env.Rank(),
		Token:  tok,
		Tag:    h.idx,
	})
	grant := env.Recv(msg.MatchToken(msg.KindLockGrant, tok))
	// The grant echoes the ticket the server took on our behalf.
	h.Acquired(-1, grant.Operands[0], 0)
}

// Unlock releases the lock. Whether the lock is local or remote, the
// server is contacted (one message, no reply): it increments the counter
// and wakes the next waiter, queued remotely or polling locally.
func (h *Hybrid) Unlock() {
	h.Released()
	h.eng.Send(msg.ServerOf(h.home), msg.Message{
		Kind:   msg.KindUnlock,
		Origin: h.env.Rank(),
		Tag:    h.idx,
	})
}

// Gate is the ticket/counter word pair of §3.2.1 at a lock's home, for
// processes that can reach it with direct atomics: take a ticket with a
// fetch-and-increment, poll the counter until it shows that ticket
// (Figure 3 a-b), advance the counter to admit the next one. Its one
// invariant: tickets are admitted one at a time, in the order taken.
type Gate struct {
	eng  *proc.Engine
	base shmem.Ptr
	wait *gateWait
}

// gateWait is Await's state: the ticket awaited and the predicate, bound
// once, that compares the counter with it.
type gateWait struct {
	ticket   int64
	admitted func() bool
}

func newGate(eng *proc.Engine, t *proc.LockTable, idx int) Gate {
	g := Gate{eng, t.TicketCounter[idx], &gateWait{}}
	w := g.wait
	w.admitted = func() bool { return g.Counter() == w.ticket }
	return g
}

// Take draws the next ticket.
func (g *Gate) Take() int64 { return g.eng.FetchAdd(g.base.Add(proc.TicketWord), 1) }

// Counter reads the ticket currently admitted.
func (g *Gate) Counter() int64 {
	return g.eng.Env().Space().Load(g.base.Add(proc.CounterWord))
}

// Await polls until ticket is admitted.
func (g *Gate) Await(ticket int64) {
	g.wait.ticket = ticket
	g.eng.Env().WaitUntil("ticket-gate", shmem.Cell(g.base.Add(proc.CounterWord)), g.wait.admitted)
}

// Advance admits the next ticket.
func (g *Gate) Advance() { g.eng.FetchAdd(g.base.Add(proc.CounterWord), 1) }
