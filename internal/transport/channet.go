package transport

import (
	"fmt"

	"armci/internal/msg"
)

// ChanFabric runs the cluster as real goroutines communicating through
// in-process mailboxes. It is the fabric used by correctness and stress
// tests: everything is truly concurrent, so races and protocol bugs that
// the sequential simulator cannot exhibit are exercised here. With a
// non-zero cost model it also injects latency in wall time (arrival-time
// stamping on a FIFO pipe model), which the demo benchmarks use.
type ChanFabric struct{ *wallFabric }

// NewChan builds an in-process channel fabric for the configuration.
func NewChan(cfg Config) (*ChanFabric, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	f := newWallFabric("channet", cfg, cfg.Model.Latency > 0)
	f.link = chanLink{f}
	// Delivery is on the sender's goroutine; only a stamped future arrival
	// (the cost model, a fault plan) would have to wait in the mailbox.
	f.inline = !f.pipe.Delays()
	return &ChanFabric{f}, nil
}

// chanLink is the in-memory link: there is no medium, so a frame goes
// straight from the sender's goroutine into the destination mailbox — as a
// copy in the sender's arena, the one thing chan keeps of a send.
type chanLink struct{ f *wallFabric }

func (chanLink) up() error        { return nil }
func (chanLink) usersDone() error { return nil }
func (chanLink) down()            {}

func (l chanLink) carry(from *wallEnv, m *msg.Message) (held bool) {
	// Stricter than the socket links, which drop such frames: a local
	// send to an unregistered endpoint is a bug in the caller.
	b, ok := l.f.boxes[m.Dst]
	if !ok {
		panic(fmt.Sprintf("channet: send to unknown endpoint %v", m.Dst))
	}
	keep := &from.arena
	if from.lendQueued {
		keep = nil // the armed bug: the mailbox gets the loan itself
	}
	l.f.arrive(b, m, keep)
	return false
}

// SetLendQueuedHazard arms a deliberately broken chan link for env's
// sends: a frame it queues in a mailbox is the sender's loan itself, not a
// copy, so the sender's next use of its message or buffer rewrites a frame
// still waiting to be received. It exists solely as a mutation hook for
// the conformance harness's oracle self-test, armed by env's own actor
// before its first send; on any other fabric it does nothing.
func SetLendQueuedHazard(env Env) {
	if e, ok := env.(*wallEnv); ok {
		e.lendQueued = true
	}
}
