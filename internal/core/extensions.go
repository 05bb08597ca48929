package core

import (
	"fmt"

	"armci/internal/proc"
)

// Ticket is the plain ticket-based lock (the local half of the hybrid
// algorithm) usable only by processes on the lock's home node. It exists
// as a baseline for tests and ablations; the hybrid lock is what ARMCI
// actually exposes.
type Ticket struct {
	Holder
	Gate
}

// NewTicket returns rank-local state for lock idx. The caller must be on
// the lock's home node.
func NewTicket(eng *proc.Engine, t *proc.LockTable, idx int) *Ticket {
	env := eng.Env()
	if env.Node(env.Rank()) != env.Node(t.Home[idx]) {
		panic(fmt.Sprintf("core: ticket lock %d homed on node %d used from node %d",
			idx, env.Node(t.Home[idx]), env.Node(env.Rank())))
	}
	return &Ticket{newHolder(env, idx), newGate(eng, t, idx)}
}

var _ Mutex = (*Ticket)(nil)

// Lock takes a ticket and polls the counter.
func (l *Ticket) Lock() {
	ticket := l.Take()
	l.Await(ticket)
	l.Acquired(-1, ticket, 0)
}

// Unlock advances the counter directly (no server round trip — this is
// the pure shared-memory algorithm, not ARMCI's hybrid).
func (l *Ticket) Unlock() {
	l.Released()
	l.Advance()
}
