// Package msg defines the protocol messages exchanged by ARMCI user
// processes and data servers, and the matching queues the fabrics deliver
// them into.
package msg

import (
	"fmt"
	"slices"
	"time"

	"armci/internal/shmem"
)

// Addr names an endpoint of the emulated cluster: either the user process
// of a rank or the data server of a node. ARMCI runs one server thread per
// SMP node; it handles remote-memory requests for every process of the
// node.
type Addr struct {
	Server bool
	ID     int // rank for user endpoints, node index for servers
}

// User returns the endpoint address of rank's user process.
func User(rank int) Addr { return Addr{ID: rank} }

// ServerOf returns the endpoint address of node's data server.
func ServerOf(node int) Addr { return Addr{Server: true, ID: node} }

// NICOf returns the endpoint address of node's NIC agent — the paper's
// §5 future-work offload target. Agents share the server lifecycle and
// occupy server IDs at numNodes+node.
func NICOf(node, numNodes int) Addr { return Addr{Server: true, ID: numNodes + node} }

func (a Addr) String() string {
	if a.Server {
		return fmt.Sprintf("srv%d", a.ID)
	}
	return fmt.Sprintf("p%d", a.ID)
}

// IsNIC reports whether a is a NIC agent address, given the node count.
func (a Addr) IsNIC(numNodes int) bool { return a.Server && a.ID >= numNodes }

// Pair is a directed (source, destination) endpoint pair packed into one
// word: the key of every per-pair table on the message path (pipeline
// sequencing, the recorder's counters and histograms). A map keyed by a
// uint64 takes the runtime's fast path, where a two-Addr struct is hashed
// as 32 bytes on every send and every arrival. Endpoint IDs fit in 31 bits.
type Pair uint64

// PairOf packs the pair src → dst.
func PairOf(src, dst Addr) Pair { return Pair(addrWord(src))<<32 | Pair(addrWord(dst)) }

// Src returns the pair's source endpoint.
func (p Pair) Src() Addr { return wordAddr(uint32(p >> 32)) }

// Dst returns the pair's destination endpoint.
func (p Pair) Dst() Addr { return wordAddr(uint32(p)) }

const serverBit = 1 << 31

func addrWord(a Addr) uint32 {
	w := uint32(a.ID) &^ serverBit
	if a.Server {
		w |= serverBit
	}
	return w
}

func wordAddr(w uint32) Addr { return Addr{Server: w&serverBit != 0, ID: int(w &^ serverBit)} }

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

// Message is one protocol message. A single struct covers every kind; the
// populated fields depend on Kind.
type Message struct {
	Kind Kind
	Src  Addr
	Dst  Addr

	// Origin is the rank on whose behalf a server request is made (for
	// requests relayed through servers it can differ from Src.ID).
	Origin int

	// Token correlates a response with its request.
	Token uint64

	// Tag carries the phase of collective messages, the tag of user
	// point-to-point sends, or the lock index of lock requests.
	Tag int

	// Ptr is the target memory location of data and RMW requests.
	Ptr shmem.Ptr

	// Stride describes non-contiguous put/get/acc layouts. Zero value
	// means contiguous (length given by Data or N).
	Stride shmem.Strided

	// N is the byte count of a get request.
	N int

	// Op is the RMW sub-operation (KindRmw) or accumulate element type
	// (KindAcc, as shmem.AccOp).
	Op uint8

	// Scale is the accumulate scale factor.
	Scale float64

	// Operands carries RMW operands and results.
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

	// Dup marks an injected duplicate copy (fault injection only);
	// duplicates are suppressed before delivery and never reach
	// protocol code. Not transmitted on the wire.
	Dup bool

	// FaultDelay is the extra latency the fault-injection stage added
	// to this message (diagnostic; not transmitted on the wire).
	FaultDelay time.Duration
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
