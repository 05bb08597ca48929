// view.go — the membership messages of elastic runs. A coordinator-owned
// View names the cluster roster at one view epoch: per node, the
// incarnation currently admitted and its direct data-listener address.
// Views travel coordinator→worker on every membership change, ViewAck
// answers one worker→coordinator, and EpochReport carries the recovery
// hand-off coordinator→worker. All three use the same strict tiling discipline as the batch
// codec: a malformed body is a descriptive error, an accepted body
// re-encodes byte-identically.
package wire

import (
	"encoding/binary"
	"fmt"
)

// ViewMember is one node slot of a membership view.
type ViewMember struct {
	// Node is the SMP node index of the slot.
	Node int
	// Incarnation is the spawn count of the process currently admitted
	// for the slot (0 = initial launch).
	Incarnation uint32
	// Addr is the member's data-listener address, dialed lazily by every
	// worker on its first send to the node; empty while the slot waits
	// for a respawned incarnation, which makes the node unreachable.
	Addr string
}

// View is a coordinator-stamped membership roster. Epochs increase
// monotonically; a worker holding view e discards traffic from view
// epochs < e, which is what fences out in-flight messages from deposed
// incarnations.
type View struct {
	// Epoch is the view epoch, bumped on every membership change.
	Epoch uint64
	// Resume is the sync epoch survivors resume from after the change
	// (0 on the initial view).
	Resume uint64
	// Dead is the node slot being replaced by this view change, or -1
	// when no slot changed (initial view).
	Dead int
	// Members lists every node slot in node order.
	Members []ViewMember
}

// viewFixed is the fixed prefix of an encoded view: epoch(8) + resume(8)
// + dead(4) + member count(2).
const viewFixed = 22

// viewMemberFixed is the fixed prefix of one encoded member: node(4) +
// incarnation(4) + addr length(2).
const viewMemberFixed = 10

// EncodeView serializes v into a frame body (no length prefix; views
// travel inside cluster control frames that carry their own).
func EncodeView(v View) []byte {
	n := viewFixed
	for _, m := range v.Members {
		n += viewMemberFixed + len(m.Addr)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint64(b, v.Epoch)
	b = binary.LittleEndian.AppendUint64(b, v.Resume)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(v.Dead)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(v.Members)))
	for _, m := range v.Members {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(m.Node)))
		b = binary.LittleEndian.AppendUint32(b, m.Incarnation)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Addr)))
		b = append(b, m.Addr...)
	}
	return b
}

// DecodeView parses an encoded view, rejecting truncated bodies,
// oversized member counts and trailing garbage.
func DecodeView(body []byte) (View, error) {
	var v View
	if len(body) < viewFixed {
		return v, fmt.Errorf("wire: view truncated: %d of %d header bytes", len(body), viewFixed)
	}
	v.Epoch = binary.LittleEndian.Uint64(body)
	v.Resume = binary.LittleEndian.Uint64(body[8:])
	v.Dead = int(int32(binary.LittleEndian.Uint32(body[16:])))
	count := int(binary.LittleEndian.Uint16(body[20:]))
	if count*viewMemberFixed > len(body)-viewFixed {
		return v, fmt.Errorf("wire: view claims %d members, only %d bytes follow", count, len(body)-viewFixed)
	}
	pos := viewFixed
	v.Members = make([]ViewMember, count)
	for i := range v.Members {
		if pos+viewMemberFixed > len(body) {
			return v, fmt.Errorf("wire: view member %d truncated at byte %d of %d", i, pos, len(body))
		}
		m := &v.Members[i]
		m.Node = int(int32(binary.LittleEndian.Uint32(body[pos:])))
		m.Incarnation = binary.LittleEndian.Uint32(body[pos+4:])
		alen := int(binary.LittleEndian.Uint16(body[pos+8:]))
		pos += viewMemberFixed
		if pos+alen > len(body) {
			return v, fmt.Errorf("wire: view member %d address truncated: %d of %d bytes", i, len(body)-pos, alen)
		}
		m.Addr = string(body[pos : pos+alen])
		pos += alen
	}
	if pos != len(body) {
		return v, fmt.Errorf("wire: view carries %d trailing bytes", len(body)-pos)
	}
	return v, nil
}

// ViewAck is a worker's answer to a view change: which view it installed
// and the last sync epoch it committed, so the coordinator can compute the
// resume epoch (max over survivors' committed sync epochs).
type ViewAck struct {
	// Node is the answering worker's node index.
	Node int
	// Epoch is the view epoch being acknowledged.
	Epoch uint64
	// Committed is the last sync epoch this node completed.
	Committed uint64
}

// viewAckLen is the exact body size of an encoded view ack.
const viewAckLen = 20

// EncodeViewAck serializes a into a frame body.
func EncodeViewAck(a ViewAck) []byte {
	b := make([]byte, 0, viewAckLen)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(a.Node)))
	b = binary.LittleEndian.AppendUint64(b, a.Epoch)
	b = binary.LittleEndian.AppendUint64(b, a.Committed)
	return b
}

// DecodeViewAck parses an encoded view ack.
func DecodeViewAck(body []byte) (ViewAck, error) {
	var a ViewAck
	if len(body) != viewAckLen {
		return a, fmt.Errorf("wire: view ack of %d bytes, want %d", len(body), viewAckLen)
	}
	a.Node = int(int32(binary.LittleEndian.Uint32(body)))
	a.Epoch = binary.LittleEndian.Uint64(body[4:])
	a.Committed = binary.LittleEndian.Uint64(body[12:])
	return a, nil
}

// EpochReport is the recovery hand-off the coordinator broadcasts once
// every node acked a new view: the replaced node slot and the sync epoch
// every rank resumes from.
type EpochReport struct {
	// Node is the replaced node slot.
	Node int
	// Epoch is the sync epoch to resume from.
	Epoch uint64
}

// epochReportLen is the exact body size of an encoded epoch report.
const epochReportLen = 12

// EncodeEpochReport serializes r into a frame body.
func EncodeEpochReport(r EpochReport) []byte {
	b := make([]byte, 0, epochReportLen)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Node)))
	b = binary.LittleEndian.AppendUint64(b, r.Epoch)
	return b
}

// DecodeEpochReport parses an encoded epoch report.
func DecodeEpochReport(body []byte) (EpochReport, error) {
	var r EpochReport
	if len(body) != epochReportLen {
		return r, fmt.Errorf("wire: epoch report of %d bytes, want %d", len(body), epochReportLen)
	}
	r.Node = int(int32(binary.LittleEndian.Uint32(body)))
	r.Epoch = binary.LittleEndian.Uint64(body[4:])
	return r, nil
}
