package pipeline

import (
	"sort"

	"armci/internal/msg"
	"armci/internal/wire"
)

// Coalescing limits: a buffer flushes once it holds MaxOps entries or
// MaxBytes of payload, and only operations no larger than MaxEntryBytes
// are eligible at all (bigger transfers amortize their own per-message
// overhead and go out directly).
const (
	MaxOps        = 16
	MaxBytes      = 8192
	MaxEntryBytes = 1024
)

// Coalescer buffers eligible small operations per destination node and
// packs each buffer into one batched wire frame. It belongs to a single
// actor (one rank's engine) and is not self-synchronizing.
//
// Flushing is driven only by the thresholds and by explicit program
// points (fences, barriers, notify flags, any non-coalescable send to
// the same node) — never by timers — so the resulting message stream is
// a pure function of the program and the trace fingerprint stays
// identical across fabrics and schedule seeds.
type Coalescer struct {
	origin  int
	reorder bool // see SetReorderHazard
	bufs    map[int]*destBuf
}

type destBuf struct {
	entries []wire.BatchEntry
	bytes   int
}

// Batch is one flushed frame and the node it is bound for.
type Batch struct {
	Node int
	Msg  *msg.Message
}

// NewCoalescer builds a coalescer for one origin rank.
func NewCoalescer(origin int) *Coalescer {
	return &Coalescer{origin: origin, bufs: make(map[int]*destBuf)}
}

// SetReorderHazard arms a deliberate bug: every flushed batch ships its
// entries in reverse program order, so a notify store overtakes the puts
// it is meant to cover. It exists solely as a mutation hook for the
// conformance harness's oracle self-test; never enable it outside tests.
// It affects the batches flushed after the call.
func (c *Coalescer) SetReorderHazard(on bool) { c.reorder = on }

// Fits reports whether an operation of n payload bytes is eligible for
// coalescing at all.
func (c *Coalescer) Fits(n int) bool { return n > 0 && n <= MaxEntryBytes }

// Add buffers e for node. If the addition fills the buffer (MaxOps
// entries or MaxBytes payload), the packed frame is returned and the
// buffer reset; otherwise Add returns nil.
func (c *Coalescer) Add(node int, e wire.BatchEntry) *msg.Message {
	b := c.bufs[node]
	if b == nil {
		b = &destBuf{}
		c.bufs[node] = b
	}
	b.entries = append(b.entries, e)
	b.bytes += len(e.Data)
	if len(b.entries) >= MaxOps || b.bytes >= MaxBytes {
		return c.Flush(node)
	}
	return nil
}

// Pending returns the number of buffered entries for node.
func (c *Coalescer) Pending(node int) int {
	if b := c.bufs[node]; b != nil {
		return len(b.entries)
	}
	return 0
}

// Flush packs node's buffered entries into one KindBatch message and
// resets the buffer. Returns nil when the buffer is empty.
func (c *Coalescer) Flush(node int) *msg.Message {
	b := c.bufs[node]
	if b == nil || len(b.entries) == 0 {
		return nil
	}
	entries := b.entries
	b.entries, b.bytes = nil, 0
	if c.reorder {
		// The armed bug: ship the batch back to front. The wire format
		// still tiles (offsets are assigned at encode time); only the
		// application order is wrong, which is exactly what the
		// notify/wait oracle must catch.
		for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
			entries[i], entries[j] = entries[j], entries[i]
		}
	}
	return &msg.Message{
		Kind:   msg.KindBatch,
		Origin: c.origin,
		N:      len(entries),
		Data:   wire.EncodeBatch(entries),
	}
}

// FlushAll flushes every non-empty buffer, in ascending node order so
// the emitted message sequence is deterministic.
func (c *Coalescer) FlushAll() []Batch {
	var nodes []int
	for node, b := range c.bufs {
		if len(b.entries) > 0 {
			nodes = append(nodes, node)
		}
	}
	sort.Ints(nodes)
	out := make([]Batch, 0, len(nodes))
	for _, node := range nodes {
		out = append(out, Batch{Node: node, Msg: c.Flush(node)})
	}
	return out
}
