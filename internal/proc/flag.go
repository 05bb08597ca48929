package proc

import (
	"encoding/binary"
	"fmt"

	"armci/internal/msg"
	"armci/internal/shmem"
	"armci/internal/wire"
)

// PutFlag copies data into dst and then writes val into the word cell
// flag, both on the destination node (ARMCI_Put_flag / PutS_flag): the
// consumer spins locally on the flag instead of the producer paying a
// fence round trip. Both writes travel to the node's data server — never
// the NIC agent — on the same FIFO pipe, and the flag store is issued
// strictly after the data, so observing the flag proves the data
// landed. Both are fence-counted like any put.
//
// With coalescing enabled the data and flag ride the destination's
// batch, which PutFlag always flushes: a notify must never sit in a
// buffer waiting for a threshold while its consumer spins.
func (g *Engine) PutFlag(dst shmem.Ptr, data []byte, flag shmem.Ptr, val int64) {
	if flag.Kind != shmem.KindWord {
		panic(fmt.Sprintf("proc: PutFlag flag %v is not a word cell", flag))
	}
	if g.env.Node(int(flag.Rank)) != g.env.Node(int(dst.Rank)) {
		panic(fmt.Sprintf("proc: PutFlag flag on node %d but data on node %d; both must share the destination node",
			g.env.Node(int(flag.Rank)), g.env.Node(int(dst.Rank))))
	}
	if g.local(dst.Rank) {
		g.chargeCopy(len(data))
		g.env.Space().Put(dst, data)
		g.env.Charge(g.env.Params().AtomicOp)
		g.env.Space().Store(flag, val)
		return
	}
	node := g.env.Node(int(dst.Rank))
	g.countIssue(node) // the data put
	g.countIssue(node) // the flag store
	if g.coal != nil && g.coal.Fits(len(data)) {
		g.addCoalesced(node, wire.BatchEntry{Op: wire.BatchPut, Ptr: dst, Data: data})
		var word [8]byte // copied into the batch by addCoalesced
		binary.LittleEndian.PutUint64(word[:], uint64(val))
		g.addCoalesced(node, wire.BatchEntry{Op: wire.BatchStore, Ptr: flag, Data: word[:]})
		g.Flush(node)
		return
	}
	g.sendServer(node, g.request(msg.Message{
		Kind:   msg.KindPut,
		Origin: g.env.Rank(),
		Ptr:    dst,
		Data:   data,
	}))
	// The flag store goes to the data server, not ctlAddr: with NIC
	// assist on, routing it to the agent would race it past the put on a
	// different FIFO pipe.
	g.Send(msg.ServerOf(node), msg.Message{
		Kind:     msg.KindRmw,
		Origin:   g.env.Rank(),
		Ptr:      flag,
		Op:       uint8(msg.RmwStore),
		Operands: [4]int64{val},
	})
}

// WaitFlag spins until the local word cell flag holds val — the consumer
// half of notify/wait. The flag must live on the caller's own node;
// remote spinning would re-serialize what the pattern exists to avoid.
func (g *Engine) WaitFlag(flag shmem.Ptr, val int64) {
	if flag.Kind != shmem.KindWord {
		panic(fmt.Sprintf("proc: WaitFlag flag %v is not a word cell", flag))
	}
	if !g.local(flag.Rank) {
		panic(fmt.Sprintf("proc: WaitFlag flag %v is not on the caller's node; notify flags are spun on locally", flag))
	}
	space := g.env.Space()
	g.env.WaitUntil(g.flagTag, shmem.Cell(flag), func() bool {
		return space.Load(flag) == val
	})
}
