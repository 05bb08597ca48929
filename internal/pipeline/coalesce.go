package pipeline

import (
	"armci/internal/msg"
	"armci/internal/wire"
)

// Coalescing limits: only operations of at most MaxEntryBytes are eligible
// (bigger ones amortize their own per-message cost), and a buffer ships
// when its next entry would grow the frame (wire.BatchSize) past
// MaxFrameBytes, the link's write size (cluster.WriteCap): a full frame is
// one write, and a burst of 256 8-byte puts is one frame of 11,014 bytes.
const (
	MaxFrameBytes = 16 << 10
	MaxEntryBytes = 1024
)

// Coalescer buffers eligible small operations per destination node and
// packs each buffer into one batched wire frame. It belongs to a single
// actor (one rank's engine) and is not self-synchronizing.
//
// Flushing is driven only by the frame bound and by explicit program
// points (fences, barriers, notify flags, any non-coalescable send to
// the same node) — never by timers — so the resulting message stream is
// a pure function of the program and the trace fingerprint stays
// identical across fabrics and schedule seeds.
//
// Bytes change hands twice. Add copies each payload into its node's
// arena, so the caller may reuse its buffer as soon as Add returns. A
// flush encodes the buffer into the coalescer's one frame, message and
// body, which the caller sends before the next flush: a send borrows its
// message only until it returns (transport.Env.Send), and a fabric that
// delivers the frame later — a duplicate, a queued or scheduled copy —
// delivers its own copy. Each buffer's entry table and arena, and the
// frame's body, keep their capacity across flushes: a warm coalescer
// allocates nothing.
type Coalescer struct {
	origin  int
	reorder bool      // see SetReorderHazard
	bufs    []destBuf // indexed by destination node, grown on first use
	frame   msg.Message
}

// destBuf is one node's pending frame: the entry table and the arena its
// entries' payloads were copied into, in order. An entry added before
// the arena last grew still points into the array append left behind;
// those bytes never change, so the frame encodes the same.
type destBuf struct {
	entries []wire.BatchEntry
	arena   []byte
}

// NewCoalescer builds a coalescer for one origin rank.
func NewCoalescer(origin int) *Coalescer {
	return &Coalescer{origin: origin}
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

// Add buffers e for node, copying e.Data into the node's arena. If e would
// grow the frame past MaxFrameBytes, Add first packs and returns the frame
// buffered so far, and e starts the next one; otherwise it returns nil.
func (c *Coalescer) Add(node int, e wire.BatchEntry) *msg.Message {
	for node >= len(c.bufs) {
		c.bufs = append(c.bufs, destBuf{})
	}
	b := &c.bufs[node]
	var full *msg.Message
	if wire.BatchBodySize(len(b.entries)+1, len(b.arena)+len(e.Data)) > MaxFrameBytes {
		full = c.Flush(node)
	}
	start := len(b.arena)
	b.arena = append(b.arena, e.Data...)
	// Field by field, so the caller's e.Data is only read, never kept.
	b.entries = append(b.entries, wire.BatchEntry{
		Op: e.Op, Ptr: e.Ptr, AccOp: e.AccOp, Scale: e.Scale,
		Data: b.arena[start:len(b.arena):len(b.arena)],
	})
	return full
}

// Pending returns the number of buffered entries for node.
func (c *Coalescer) Pending(node int) int {
	if node < len(c.bufs) {
		return len(c.bufs[node].entries)
	}
	return 0
}

// Flush packs node's buffered entries into one KindBatch message and
// resets the buffer. Returns nil when the buffer is empty. The message is
// the coalescer's, valid until its next flush (Add's included).
func (c *Coalescer) Flush(node int) *msg.Message {
	if c.Pending(node) == 0 {
		return nil
	}
	b := &c.bufs[node]
	entries := b.entries
	if c.reorder {
		// The armed bug: ship the batch back to front. The wire format
		// still tiles (offsets are assigned at encode time); only the
		// application order is wrong, which is exactly what the
		// notify/wait oracle must catch.
		for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
			entries[i], entries[j] = entries[j], entries[i]
		}
	}
	c.frame = msg.Message{
		Kind:   msg.KindBatch,
		Origin: c.origin,
		N:      len(entries),
		Data:   wire.AppendBatch(c.frame.Data[:0], entries),
	}
	b.entries, b.arena = entries[:0], b.arena[:0]
	return &c.frame
}

// FlushAll flushes every non-empty buffer and hands each frame to emit,
// in ascending node order so the emitted message sequence is
// deterministic; a frame is valid until emit returns.
func (c *Coalescer) FlushAll(emit func(node int, m *msg.Message)) {
	for node := range c.bufs {
		if m := c.Flush(node); m != nil {
			emit(node, m)
		}
	}
}
