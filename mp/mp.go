// Package mp is the message-passing companion of the armci package: the
// small MPI-like layer ARMCI is designed to coexist with ("ARMCI is
// designed to be compatible with several separate message passing
// libraries, such as MPI and PVM"). It provides tagged point-to-point
// send/receive and a few collectives over the same fabric the one-sided
// operations use, without involving the data servers.
package mp

import (
	"encoding/binary"
	"fmt"

	"armci"
	"armci/internal/collective"
	"armci/internal/msg"
)

// reservedTagBase is the start of the tag space mp's own collectives use;
// user tags must stay below it.
const reservedTagBase = 1 << 30

// Comm is a rank's message-passing communicator. Create one per rank with
// Attach; it shares the fabric (and the collective ordering discipline)
// of the Proc it wraps.
type Comm struct {
	p   *armci.Proc
	seq int // sequence of mp-internal collectives
}

// Attach builds the communicator of the calling rank.
func Attach(p *armci.Proc) *Comm { return &Comm{p: p} }

// Rank returns the calling rank.
func (c *Comm) Rank() int { return c.p.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.p.Size() }

// Proc returns the underlying ARMCI process handle.
func (c *Comm) Proc() *armci.Proc { return c.p }

// Send transmits data to rank `to` under tag. Delivery is reliable and
// FIFO per (sender, receiver) pair; the call does not wait for the
// receiver (eager buffering).
func (c *Comm) Send(to, tag int, data []byte) {
	if tag < 0 || tag >= reservedTagBase {
		panic(fmt.Sprintf("mp: user tag %d outside [0, %d)", tag, reservedTagBase))
	}
	c.send(to, tag, data)
}

// send is the unchecked path, also used by the internal collectives.
func (c *Comm) send(to, tag int, data []byte) {
	c.p.Env().Send(msg.User(to), &msg.Message{
		Kind: msg.KindSend,
		Tag:  tag,
		Data: append([]byte(nil), data...),
	})
}

// Recv blocks until a message from rank `from` with the given tag arrives
// and returns its payload.
func (c *Comm) Recv(from, tag int) []byte {
	if tag < 0 || tag >= reservedTagBase {
		panic(fmt.Sprintf("mp: user tag %d outside [0, %d)", tag, reservedTagBase))
	}
	return c.recv(from, tag)
}

func (c *Comm) recv(from, tag int) []byte {
	m := c.p.Env().Recv(msg.MatchSrcTag(msg.KindSend, msg.User(from), tag))
	return m.Data
}

// SendInt64s is Send for an int64 vector.
func (c *Comm) SendInt64s(to, tag int, vec []int64) {
	c.Send(to, tag, encodeInt64s(vec))
}

// RecvInt64s is Recv for an int64 vector.
func (c *Comm) RecvInt64s(from, tag int) []int64 {
	return decodeInt64s(c.Recv(from, tag))
}

// SendFloat64s is Send for a float64 vector.
func (c *Comm) SendFloat64s(to, tag int, vec []float64) {
	c.Send(to, tag, Float64sToBytes(vec))
}

// RecvFloat64s is Recv for a float64 vector.
func (c *Comm) RecvFloat64s(from, tag int) []float64 {
	return BytesToFloat64s(c.Recv(from, tag))
}

// Barrier synchronizes all ranks (MPI_Barrier).
func (c *Comm) Barrier() { c.p.MPIBarrier() }

// AllReduceSumInt64 element-wise sums vec across all ranks.
func (c *Comm) AllReduceSumInt64(vec []int64) { c.p.AllReduceSumInt64(vec) }

// AllReduceSumFloat64 element-wise sums a float64 vector across all ranks.
func (c *Comm) AllReduceSumFloat64(vec []float64) { c.p.AllReduceSumFloat64(vec) }

// ctag returns the reserved tag of phase within the current internal
// collective.
func (c *Comm) ctag(phase int) int { return reservedTagBase + c.seq<<4 + phase }

// Bcast distributes root's data to every rank along a binomial tree
// (log₂(N) rounds) and returns each rank's copy. All ranks must call it;
// non-root ranks may pass nil.
func (c *Comm) Bcast(root int, data []byte) []byte { return c.BcastTree(root, 2, data) }

// BcastTree is Bcast over a radix-r k-nomial tree: ⌈log_r N⌉ rounds
// instead of the binomial tree's ⌈log₂ N⌉, at the price of the root
// sending radix−1 copies per round. All ranks must call it with the same
// root and radix; non-root ranks may pass nil.
func (c *Comm) BcastTree(root, radix int, data []byte) []byte {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		c.seq++
		return data
	}
	// Rotate so the root is virtual rank 0.
	vr := (me - root + n) % n
	parent, children := collective.KnomialTree(n, vr, radix)
	if parent >= 0 {
		data = c.recv((parent+root)%n, c.ctag(0))
	}
	for _, child := range children {
		c.send((child+root)%n, c.ctag(0), data)
	}
	c.seq++
	return data
}

// Gather collects every rank's data at root, indexed by rank; non-root
// ranks receive nil. Payloads may differ in length.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	n, me := c.Size(), c.Rank()
	tag := c.ctag(1)
	c.seq++
	if me != root {
		c.send(root, tag, data)
		return nil
	}
	out := make([][]byte, n)
	out[me] = append([]byte(nil), data...)
	for r := 0; r < n; r++ {
		if r != root {
			out[r] = c.recv(r, tag)
		}
	}
	return out
}

func encodeInt64s(vec []int64) []byte {
	out := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

func decodeInt64s(b []byte) []int64 {
	if len(b)%8 != 0 {
		panic(fmt.Sprintf("mp: int64 payload of %d bytes", len(b)))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
