// Package msg defines the protocol messages exchanged by ARMCI user
// processes and data servers, and the matching queues the fabrics deliver
// them into.
package msg

import (
	"fmt"
	"math"
	"slices"
	"time"

	"armci/internal/shmem"
)

// Addr names an endpoint of the emulated cluster: either the user process
// of a rank or the data server of a node. ARMCI runs one server thread per
// SMP node; it handles remote-memory requests for every process of the
// node. An Addr is one word, the ID in its low 31 bits and the top bit set
// for a server, so a message carries its two endpoints in 8 bytes and a
// pair of them packs into a Pair. Endpoint IDs fit in 31 bits. The zero
// Addr is rank 0's user process.
type Addr uint32

const serverBit = 1 << 31

// User returns the endpoint address of rank's user process.
func User(rank int) Addr { return Addr(uint32(rank) &^ serverBit) }

// ServerOf returns the endpoint address of node's data server.
func ServerOf(node int) Addr { return Addr(uint32(node) | serverBit) }

// NICOf returns the endpoint address of node's NIC agent — the paper's
// §5 future-work offload target. Agents share the server lifecycle and
// occupy server IDs at numNodes+node.
func NICOf(node, numNodes int) Addr { return ServerOf(numNodes + node) }

// Server reports whether a is a data server's (or NIC agent's) address.
func (a Addr) Server() bool { return a&serverBit != 0 }

// ID returns a's rank, for a user endpoint, or its node index, for a
// server.
func (a Addr) ID() int { return int(a &^ serverBit) }

// Index numbers the endpoints densely from 0: rank r's user process is 2r,
// node n's server 2n+1. It indexes the per-endpoint tables of the fabrics
// and the pipeline.
func (a Addr) Index() int {
	i := 2 * a.ID()
	if a.Server() {
		i++
	}
	return i
}

func (a Addr) String() string {
	if a.Server() {
		return fmt.Sprintf("srv%d", a.ID())
	}
	return fmt.Sprintf("p%d", a.ID())
}

// IsNIC reports whether a is a NIC agent address, given the node count.
func (a Addr) IsNIC(numNodes int) bool { return a.Server() && a.ID() >= numNodes }

// Pair is a directed (source, destination) endpoint pair packed into one
// word: the key of every per-pair table on the message path (pipeline
// sequencing, the recorder's counters and histograms).
type Pair uint64

// PairOf packs the pair src → dst.
func PairOf(src, dst Addr) Pair { return Pair(src)<<32 | Pair(dst) }

// Src returns the pair's source endpoint.
func (p Pair) Src() Addr { return Addr(p >> 32) }

// Dst returns the pair's destination endpoint.
func (p Pair) Dst() Addr { return Addr(uint32(p)) }

// Kind is the protocol message type.
type Kind uint8

const (
	// KindPut is a non-blocking put request carried to a data server.
	KindPut Kind = iota + 1
	// KindPutAck acknowledges one put (FenceAck mode only).
	KindPutAck
	// KindGet requests a (possibly strided) read; answered by KindGetResp.
	KindGet
	// KindGetResp carries the data of a get.
	KindGetResp
	// KindAcc is an atomic accumulate request (dst += scale*src).
	KindAcc
	// KindRmw is an atomic read-modify-write request; answered by
	// KindRmwResp.
	KindRmw
	// KindRmwResp carries the previous value(s) of an RMW.
	KindRmwResp
	// KindFenceReq asks a server to confirm completion of all puts the
	// origin has issued to it; answered by KindFenceAck.
	KindFenceReq
	// KindFenceAck confirms a fence request.
	KindFenceAck
	// KindLockReq asks a server to acquire a server-managed lock on
	// behalf of the origin; answered by KindLockGrant, possibly after
	// queueing.
	KindLockReq
	// KindLockGrant notifies a process that it holds a server-managed
	// lock.
	KindLockGrant
	// KindUnlock asks a server to release a server-managed lock. It is
	// not acknowledged ("the process simply has to initiate sending a
	// message to the server and need not wait for a reply").
	KindUnlock
	// KindColl is a collective-phase message of the message-passing
	// layer (barrier and all-reduce exchanges); matched by Tag and Src.
	KindColl
	// KindSend is a user-level point-to-point payload of the
	// message-passing layer; matched by Tag and Src.
	KindSend
	// KindBatch is a coalesced frame of small puts, accumulates and word
	// stores bound for one node's data server. Data holds the batch body
	// encoded by internal/wire's batch codec; N is the entry count. The
	// server unpacks the entries in order and in one service block, so a
	// batch is atomic with respect to loss, retransmission and duplicate
	// suppression — exactly-once applies to the whole frame.
	KindBatch
)

var kindNames = map[Kind]string{
	KindPut: "put", KindPutAck: "put-ack", KindGet: "get", KindGetResp: "get-resp",
	KindAcc: "acc", KindRmw: "rmw", KindRmwResp: "rmw-resp",
	KindFenceReq: "fence-req", KindFenceAck: "fence-ack",
	KindLockReq: "lock-req", KindLockGrant: "lock-grant", KindUnlock: "unlock",
	KindColl: "coll", KindSend: "send", KindBatch: "batch",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// RmwOp selects the atomic operation of a KindRmw request.
type RmwOp uint8

const (
	// RmwFetchAdd adds Operands[0] and returns the old value.
	RmwFetchAdd RmwOp = iota + 1
	// RmwSwapPair stores Operands[0:2] in a pair of cells and returns
	// the old pair — one of the operations the paper adds to ARMCI.
	RmwSwapPair
	// RmwCASPair stores Operands[2:4] if the pair holds Operands[0:2];
	// returns the observed pair — the compare&swap the paper adds.
	RmwCASPair
	// RmwLoadPair atomically reads a pair of cells.
	RmwLoadPair
	// RmwStore stores Operands[0] fire-and-forget: the server sends no
	// response, and the store is counted as a put for fence purposes.
	// It is the one-message lock hand-off path of the queuing lock.
	RmwStore
	// RmwStorePair stores Operands[0:2] fire-and-forget, like RmwStore.
	RmwStorePair
)

var rmwNames = map[RmwOp]string{
	RmwFetchAdd: "fetch-add", RmwSwapPair: "swap-pair", RmwCASPair: "cas-pair",
	RmwLoadPair: "load-pair", RmwStore: "store", RmwStorePair: "store-pair",
}

func (o RmwOp) String() string {
	if s, ok := rmwNames[o]; ok {
		return s
	}
	return fmt.Sprintf("RmwOp(%d)", uint8(o))
}

// Message is one protocol message. A single struct covers every kind, and
// it holds only what several kinds use: what one or two kinds carry shares
// a field (Operands) or sits behind a pointer (Stride), and the fault
// stage's per-send diagnostics (an injected duplicate, its delay) reach the
// recorder beside the message, not in it. Field order packs it into 168
// bytes (TestMessageSize).
type Message struct {
	Kind Kind

	// Op is the RMW sub-operation (KindRmw) or accumulate element type
	// (KindAcc, as shmem.AccOp).
	Op uint8

	Src Addr
	Dst Addr

	// Origin is the rank on whose behalf a server request is made (for
	// requests relayed through servers it can differ from Src.ID()).
	Origin int

	// Token correlates a response with its request.
	Token uint64

	// Tag carries the phase of collective messages, the tag of user
	// point-to-point sends, or the lock index of lock requests.
	Tag int

	// Ptr is the target memory location of data and RMW requests.
	Ptr shmem.Ptr

	// Stride describes a non-contiguous put, get or accumulate: nil for a
	// contiguous one (its length is Data's, or N). A sender may point it
	// at vectors it rewrites after Send returns; a kept message's lives in
	// its arena (Arena.Keep).
	Stride *shmem.Strided

	// N is the byte count of a get request.
	N int

	// Operands carries RMW operands and results and, for an accumulate,
	// the scale factor's bits in Operands[0] (Scale, ScaleOperands).
	Operands [4]int64

	// Data is the payload of puts, accumulates, get responses and
	// user sends.
	Data []byte

	// Seq is the per-(Src,Dst) sequence number the transport pipeline
	// stamps on every send, starting at 1. The receive side uses it to
	// suppress injected duplicate deliveries and to correlate arrivals
	// with trace events.
	Seq uint64

	// Epoch is the membership view epoch the transport pipeline stamps
	// on every send under elastic operation. The receive side rejects
	// messages from earlier epochs, fencing out in-flight traffic from
	// deposed incarnations after a rank is respawned. Zero on fabrics
	// that never change membership.
	Epoch uint64

	// Sent is stamped by the fabric: the (virtual or wall) time at
	// which the send was initiated (after the modeled send overhead).
	Sent time.Duration

	// Arrival is stamped by the fabric: the (virtual or wall) time at
	// which the message is available at the destination.
	Arrival time.Duration
}

// ScaleOperands returns the Operands of an accumulate whose scale factor
// is scale.
func ScaleOperands(scale float64) [4]int64 { return [4]int64{int64(math.Float64bits(scale))} }

// Scale returns an accumulate's scale factor.
func (m *Message) Scale() float64 { return math.Float64frombits(uint64(m.Operands[0])) }

// Strided returns the message's stride descriptor: the zero descriptor for
// a contiguous transfer.
func (m *Message) Strided() shmem.Strided {
	if m.Stride == nil {
		return shmem.Strided{}
	}
	return *m.Stride
}

// PayloadBytes returns the modeled wire payload size of the message, used
// by the cost model. Control fields are charged as a small fixed header.
func (m *Message) PayloadBytes() int {
	const header = 32
	return header + len(m.Data)
}

func (m *Message) String() string {
	return fmt.Sprintf("%s %s->%s tok=%d tag=%d ptr=%v n=%d data=%d",
		m.Kind, m.Src, m.Dst, m.Token, m.Tag, m.Ptr, m.N, len(m.Data))
}

// Match selects messages from a mailbox: those of one kind (any kind for
// the zero Kind), and optionally of one source and tag or of one token. It
// is a comparable value, so building one allocates nothing.
type Match struct {
	kind  Kind
	by    matchBy
	src   Addr
	tag   int
	token uint64
}

// matchBy says which fields beyond the kind a Match compares.
type matchBy uint8

const (
	byKind matchBy = iota
	bySrcTag
	byToken
	byNothing // selects no message
)

// MatchAny selects every message.
var MatchAny = Match{}

// MatchNone selects no message.
var MatchNone = Match{by: byNothing}

// MatchKind selects messages of one kind.
func MatchKind(k Kind) Match { return Match{kind: k, by: byKind} }

// MatchToken selects the response carrying a given token.
func MatchToken(k Kind, token uint64) Match { return Match{kind: k, by: byToken, token: token} }

// MatchSrcTag selects collective and user-send messages by kind, source
// endpoint and tag.
func MatchSrcTag(k Kind, src Addr, tag int) Match {
	return Match{kind: k, by: bySrcTag, src: src, tag: tag}
}

// Matches reports whether mt selects m.
func (mt Match) Matches(m *Message) bool {
	if mt.by == byNothing || mt.kind != 0 && m.Kind != mt.kind {
		return false
	}
	switch mt.by {
	case bySrcTag:
		return m.Src == mt.src && m.Tag == mt.tag
	case byToken:
		return m.Token == mt.token
	}
	return true
}

// Queue is an unbounded in-order message queue with matched removal. It is
// not self-synchronizing; each fabric wraps it with its own blocking
// discipline.
type Queue struct {
	items []*Message
}

// Put appends m.
func (q *Queue) Put(m *Message) { q.items = append(q.items, m) }

// TryPop removes and returns the first message match selects, or nil.
func (q *Queue) TryPop(match Match) *Message {
	for i, m := range q.items {
		if match.Matches(m) {
			q.items = slices.Delete(q.items, i, i+1) // clears the vacated slot
			return m
		}
	}
	return nil
}

// DropBelow removes every message of a view epoch below epoch, keeping
// the order of the rest.
func (q *Queue) DropBelow(epoch uint64) {
	q.items = slices.DeleteFunc(q.items, func(m *Message) bool { return m.Epoch < epoch })
}

// Len returns the number of queued messages.
func (q *Queue) Len() int { return len(q.items) }
