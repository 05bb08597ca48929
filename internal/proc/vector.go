package proc

import (
	"fmt"

	"armci/internal/msg"
	"armci/internal/shmem"
)

// VecPiece is one segment of a vector put: a destination and its payload.
type VecPiece struct {
	Ptr  shmem.Ptr
	Data []byte
}

// VecRead is one segment of a vector get: a source and a length.
type VecRead struct {
	Ptr shmem.Ptr
	N   int
}

// PutV performs a generalized I/O-vector put (ARMCI_PutV): all pieces
// must live on one rank's memory, and the whole batch travels as a single
// message — the batching that makes scattered small updates affordable
// compared to one put per piece. Non-blocking and fence-counted as ONE
// operation (op_init/op_done advance by one per PutV, keeping both sides
// of the barrier accounting symmetric).
func (g *Engine) PutV(pieces []VecPiece) {
	if len(pieces) == 0 {
		return
	}
	rank := pieces[0].Ptr.Rank
	for _, pc := range pieces {
		if pc.Ptr.Rank != rank {
			panic(fmt.Sprintf("proc: PutV pieces span ranks %d and %d; one rank per call", rank, pc.Ptr.Rank))
		}
		if pc.Ptr.Kind != shmem.KindByte {
			panic(fmt.Sprintf("proc: PutV piece %v is not byte memory", pc.Ptr))
		}
	}
	if g.local(rank) {
		total := 0
		for _, pc := range pieces {
			g.env.Space().Put(pc.Ptr, pc.Data)
			total += len(pc.Data)
		}
		g.chargeCopy(total)
		return
	}
	node := g.env.Node(int(rank))
	segs := make([]msg.VecSeg, len(pieces))
	var data []byte
	for i, pc := range pieces {
		segs[i] = msg.VecSeg{Ptr: pc.Ptr, N: len(pc.Data)}
		data = append(data, pc.Data...)
	}
	g.countIssue(node)
	g.sendServer(node, g.arena.New(msg.Message{
		Kind:   msg.KindPutV,
		Origin: g.env.Rank(),
		Vec:    segs,
		Data:   data,
	}))
}

// GetV performs a generalized I/O-vector get (ARMCI_GetV): all reads must
// live on one rank's memory; one request and one response move the whole
// batch. Blocking; returns one buffer per read, in order.
func (g *Engine) GetV(reads []VecRead) [][]byte {
	if len(reads) == 0 {
		return nil
	}
	rank := reads[0].Ptr.Rank
	total := 0
	for _, rd := range reads {
		if rd.Ptr.Rank != rank {
			panic(fmt.Sprintf("proc: GetV reads span ranks %d and %d; one rank per call", rank, rd.Ptr.Rank))
		}
		if rd.Ptr.Kind != shmem.KindByte {
			panic(fmt.Sprintf("proc: GetV read %v is not byte memory", rd.Ptr))
		}
		total += rd.N
	}
	if g.local(rank) {
		g.chargeCopy(total)
		out := make([][]byte, len(reads))
		for i, rd := range reads {
			out[i] = g.env.Space().Get(rd.Ptr, rd.N)
		}
		return out
	}
	node := g.env.Node(int(rank))
	segs := make([]msg.VecSeg, len(reads))
	for i, rd := range reads {
		segs[i] = msg.VecSeg{Ptr: rd.Ptr, N: rd.N}
	}
	tok := g.nextToken()
	g.sendServer(node, g.arena.New(msg.Message{
		Kind:   msg.KindGetV,
		Origin: g.env.Rank(),
		Token:  tok,
		Vec:    segs,
		N:      total,
	}))
	resp := g.env.Recv(msg.MatchToken(msg.KindGetResp, tok))
	out := make([][]byte, len(reads))
	pos := 0
	for i, rd := range reads {
		out[i] = resp.Data[pos : pos+rd.N : pos+rd.N]
		pos += rd.N
	}
	return out
}
