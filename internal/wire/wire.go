// Package wire implements the binary framing of the tcp and proc fabrics.
// Every protocol message is encoded as a length-prefixed frame:
//
//	u32  body length (little endian)
//	body ...
//
// The body is the message's fixed fields with the stride descriptor
// (one count byte per list, then the list) among them, and the payload
// last; a contiguous message's frame is frameFixed bytes before its
// payload. Encoding is deliberately explicit — no reflection — so the
// format is stable, inspectable and cheap.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"armci/internal/msg"
	"armci/internal/shmem"
)

// MaxFrame bounds the size of an accepted frame body to keep a corrupted
// length prefix from provoking a huge allocation.
const MaxFrame = 64 << 20

// ClusterMagic opens every cluster hello frame ("ARMC" little endian). A
// peer presenting anything else is not an armci cluster endpoint — a port
// scanner, a stale connection, a different protocol — and is rejected
// before any other field is trusted.
const ClusterMagic = 0x434d5241

// ClusterVersion is the cluster handshake protocol revision this binary
// speaks. Bump it whenever the hello layout or any cluster control frame
// changes incompatibly; mismatched peers are rejected with a descriptive
// error instead of desynchronizing mid-run. Version 2 added the message
// epoch field, the worker incarnation number and the peer data-listener
// address (elastic membership). Version 3 removed the data frame from
// coordinator connections and its envelope from peer connections, which
// carry bare message frames after a hello that names the dialer's own
// listener. Version 4 added the launch's clock start to the roster.
// Version 5 cut the view ack to node, view epoch and committed sync epoch.
// Version 6 removed the coordinator's barrier arrival and release frames.
// Version 7 removed the vector-segment list from every data frame.
// Version 8 removed the single-word swap and compare&swap, renumbering
// the atomic operation codes after fetch-add.
const ClusterVersion = 8

// frameFixed is the size of a contiguous message's frame before its
// payload, length prefix included: prefix(4) + kind(1) + src(5) + dst(5) +
// origin(4) + token, seq, epoch, sent, arrival, tag (6×8) + ptr(17) +
// stride list counts(2) + n(4) + op(1) + scale(8) + operands(32) +
// payload length(4). A stride adds 4 bytes per count and 8 per stride.
const frameFixed = 135

// clusterHelloFixed is the fixed prefix of a cluster hello frame body:
// magic(4) + version(2) + node(4) + procs(4) + ppn(4) + cookie(8) +
// incarnation(4) + addrlen(2). The peer address bytes follow.
const clusterHelloFixed = 32

// ClusterHello is the versioned handshake a multi-process worker presents
// to the rendezvous coordinator before being admitted, and to a peer
// worker at the head of each data connection it dials: which node it
// claims, the cluster shape it was launched with, and the shared-secret
// cookie proving it belongs to this run.
type ClusterHello struct {
	// Node is the SMP node index the worker claims to host.
	Node int
	// Procs is the total user-process count the worker was launched for.
	Procs int
	// ProcsPerNode is the rank-to-node grouping the worker assumes.
	ProcsPerNode int
	// Cookie is the per-launch shared secret; the coordinator rejects a
	// hello whose cookie does not match the run's.
	Cookie uint64
	// Incarnation counts how many times this node slot has been
	// (re)spawned: 0 for the initial launch, bumped by the coordinator
	// on every elastic respawn so stale traffic is attributable.
	Incarnation uint32
	// PeerAddr is the worker's data-listener address, dialed lazily by
	// every worker (itself included) on its first send to this node. In
	// a peer hello it tells the acceptor where to send its answers.
	PeerAddr string
}

// EncodeClusterHello serializes h into a ready-to-write frame (length
// prefix included).
func EncodeClusterHello(h ClusterHello) []byte {
	b := make([]byte, 0, clusterHelloFixed+len(h.PeerAddr))
	b = binary.LittleEndian.AppendUint32(b, ClusterMagic)
	b = binary.LittleEndian.AppendUint16(b, ClusterVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(h.Node)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(h.Procs)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(h.ProcsPerNode)))
	b = binary.LittleEndian.AppendUint64(b, h.Cookie)
	b = binary.LittleEndian.AppendUint32(b, h.Incarnation)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(h.PeerAddr)))
	b = append(b, h.PeerAddr...)
	return frame(b)
}

// DecodeClusterHello parses a cluster hello frame body, enforcing strict
// version negotiation: a wrong magic or protocol version is a descriptive
// error, never a silent desync, and truncated or oversized bodies are
// rejected before any field is interpreted.
func DecodeClusterHello(body []byte) (ClusterHello, error) {
	var h ClusterHello
	if len(body) < clusterHelloFixed {
		return h, fmt.Errorf("wire: cluster hello truncated: %d of %d bytes", len(body), clusterHelloFixed)
	}
	if magic := binary.LittleEndian.Uint32(body); magic != ClusterMagic {
		return h, fmt.Errorf("wire: bad cluster magic %#08x (want %#08x): peer is not an armci cluster endpoint", magic, uint32(ClusterMagic))
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != ClusterVersion {
		return h, fmt.Errorf("wire: cluster protocol version %d, this binary speaks %d: mixed armci builds in one launch", v, ClusterVersion)
	}
	h.Node = int(int32(binary.LittleEndian.Uint32(body[6:])))
	h.Procs = int(int32(binary.LittleEndian.Uint32(body[10:])))
	h.ProcsPerNode = int(int32(binary.LittleEndian.Uint32(body[14:])))
	h.Cookie = binary.LittleEndian.Uint64(body[18:])
	h.Incarnation = binary.LittleEndian.Uint32(body[26:])
	alen := int(binary.LittleEndian.Uint16(body[30:]))
	if len(body) != clusterHelloFixed+alen {
		return h, fmt.Errorf("wire: cluster hello of %d bytes, want %d for a %d-byte peer address", len(body), clusterHelloFixed+alen, alen)
	}
	h.PeerAddr = string(body[clusterHelloFixed:])
	return h, nil
}

// AppendEncode appends m's ready-to-write frame (length prefix included)
// to b and returns the extended slice, growing b at most once. Callers on
// the hot path pass a reused buffer (b[:0]) so steady-state sends do not
// allocate per frame. The pipeline stamps Seq, Sent and Arrival before a
// send, and the receive side needs all three (duplicate suppression,
// latency metrics, enforcing fault-injected arrival times), so they are
// carried on the wire. The frame has a scale field and four operands: an
// accumulate's scale, which the message keeps in Operands[0], goes in the
// first, and every other kind's operands in the four.
func AppendEncode(b []byte, m *msg.Message) []byte {
	d := m.Strided()
	if need := frameFixed + 4*len(d.Count) + 8*len(d.Stride) + len(m.Data); cap(b)-len(b) < need {
		b = append(make([]byte, 0, max(2*cap(b), len(b)+need)), b...)
	}
	var scale uint64
	ops := m.Operands
	if m.Kind == msg.KindAcc {
		scale, ops = uint64(ops[0]), [4]int64{}
	}
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length prefix, backfilled below
	b = append(b, byte(m.Kind))
	b = appendAddr(b, m.Src)
	b = appendAddr(b, m.Dst)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(m.Origin)))
	b = binary.LittleEndian.AppendUint64(b, m.Token)
	b = binary.LittleEndian.AppendUint64(b, m.Seq)
	b = binary.LittleEndian.AppendUint64(b, m.Epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(m.Sent)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(m.Arrival)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(m.Tag)))
	b = appendPtr(b, m.Ptr)
	b = appendStride(b, d)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(m.N)))
	b = append(b, m.Op)
	b = binary.LittleEndian.AppendUint64(b, scale)
	for _, v := range ops {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Data)))
	b = append(b, m.Data...)
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// Decode parses a frame body produced by AppendEncode into a message of
// its own, with a payload of its own.
func Decode(body []byte) (*msg.Message, error) { return DecodeIn(nil, body) }

// DecodeIn is Decode for a link reader: the message, its stride
// descriptor and its payload are born in a, which belongs to the caller's
// goroutine (nil: allocated on their own). The payload of a get response
// or of a user-level send is the one exception: it goes to the caller of
// Get or Recv, who may keep it for as long as it likes, so it is always an
// exact allocation of its own. A frame no message encodes to is an error:
// an endpoint ID past 31 bits, an accumulate with operands or another kind
// with a scale.
func DecodeIn(a *msg.Arena, body []byte) (*msg.Message, error) {
	d := decoder{buf: body}
	var m msg.Message
	m.Kind = msg.Kind(d.u8())
	m.Src = d.addr()
	m.Dst = d.addr()
	m.Origin = int(int32(d.u32()))
	m.Token = d.u64()
	m.Seq = d.u64()
	m.Epoch = d.u64()
	m.Sent = time.Duration(int64(d.u64()))
	m.Arrival = time.Duration(int64(d.u64()))
	m.Tag = int(int64(d.u64()))
	m.Ptr = d.ptr()
	m.Stride = d.stride(a)
	m.N = int(int32(d.u32()))
	m.Op = d.u8()
	scale := d.u64()
	for i := range m.Operands {
		m.Operands[i] = int64(d.u64())
	}
	switch {
	case d.err != nil:
	case m.Kind == msg.KindAcc && m.Operands != [4]int64{}:
		d.err = fmt.Errorf("wire: accumulate frame carries operands %v", m.Operands)
	case m.Kind == msg.KindAcc:
		m.Operands[0] = int64(scale)
	case scale != 0:
		d.err = fmt.Errorf("wire: %s frame carries a scale", m.Kind)
	}
	n := int(d.u32())
	if d.err == nil && (n < 0 || n > len(d.buf)-d.pos) {
		d.err = fmt.Errorf("wire: payload length %d exceeds remaining %d bytes", n, len(d.buf)-d.pos)
	}
	if d.err == nil && d.pos+n != len(d.buf) {
		d.err = fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.pos-n)
	}
	if d.err != nil {
		return nil, d.err
	}
	payload := d.buf[d.pos : d.pos+n]
	if m.Kind == msg.KindGetResp || m.Kind == msg.KindSend {
		if n > 0 {
			m.Data = append([]byte(nil), payload...)
		}
		return a.New(m), nil
	}
	p := a.NewWith(m, n)
	copy(p.Data, payload)
	return p, nil
}

// WriteFrame writes one pre-encoded frame to w.
func WriteFrame(w io.Writer, f []byte) error {
	_, err := w.Write(f)
	return err
}

// ReadFrame reads one frame body from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return body, nil
}

// FrameBuf is a frame stream's parse state: the bytes read but not yet
// returned as frames, in one reused buffer. It is the frame parser of the
// socket link's reader (cluster.ServePair): a read(2) fills Free, Filled
// records it, and Next returns every frame it completed. A single read
// usually brings in a frame's header and body together, often several
// frames. The buffer starts at 4 KiB, grows to the largest frame and is
// never allocated per frame. The zero value is ready to use.
type FrameBuf struct {
	buf  []byte
	r, w int // buf[r:w] is read but not yet returned
}

// Free returns the buffer's free tail for the next read once Next found no
// frame, first moving the unread bytes to the front of a buffer large
// enough for the frame they begin. It invalidates Next's bodies.
func (b *FrameBuf) Free() []byte {
	have, need := b.w-b.r, 4
	if have >= 4 {
		need += int(binary.LittleEndian.Uint32(b.buf[b.r:]))
	}
	if have == 0 || b.r+need > len(b.buf) { // with nothing unread the move is free
		buf := b.buf
		if need > len(buf) {
			buf = make([]byte, max(need, 2*len(buf), 4096))
		}
		copy(buf, b.buf[b.r:b.w])
		b.buf, b.r, b.w = buf, 0, have
	}
	return b.buf[b.w:]
}

// Filled records that a read put n bytes at the start of Free's slice.
func (b *FrameBuf) Filled(n int) { b.w += n }

// Next returns the next complete frame's body, which aliases the buffer
// until the next Free, or ok false when the bytes held end short of one. A
// length over MaxFrame is an error.
func (b *FrameBuf) Next() (body []byte, ok bool, err error) {
	if b.w-b.r < 4 {
		return nil, false, nil
	}
	n := binary.LittleEndian.Uint32(b.buf[b.r:])
	if n > MaxFrame {
		return nil, false, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	end := b.r + 4 + int(n)
	if end > b.w {
		return nil, false, nil
	}
	body, b.r = b.buf[b.r+4:end], end
	return body, true, nil
}

func frame(body []byte) []byte {
	out := make([]byte, 0, 4+len(body))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, body...)
}

func appendAddr(b []byte, a msg.Addr) []byte {
	flag := byte(0)
	if a.Server() {
		flag = 1
	}
	b = append(b, flag)
	return binary.LittleEndian.AppendUint32(b, uint32(a.ID()))
}

func appendPtr(b []byte, p shmem.Ptr) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Rank))
	b = append(b, byte(p.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Seg))
	return binary.LittleEndian.AppendUint64(b, uint64(p.Off))
}

func appendStride(b []byte, s shmem.Strided) []byte {
	b = append(b, byte(len(s.Count)))
	for _, c := range s.Count {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(c)))
	}
	b = append(b, byte(len(s.Stride)))
	for _, st := range s.Stride {
		b = binary.LittleEndian.AppendUint64(b, uint64(st))
	}
	return b
}

type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated frame at byte %d of %d", d.pos, len(d.buf))
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || d.pos+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.pos+2 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.pos+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.pos+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

func (d *decoder) addr() msg.Addr {
	flag := d.u8()
	if flag > 1 && d.err == nil {
		d.err = fmt.Errorf("wire: bad endpoint flag %#x", flag)
	}
	id := d.u32()
	if id >= 1<<31 && d.err == nil {
		d.err = fmt.Errorf("wire: endpoint id %d past 31 bits", id)
	}
	if flag == 1 {
		return msg.ServerOf(int(id))
	}
	return msg.User(int(id))
}

func (d *decoder) ptr() shmem.Ptr {
	var p shmem.Ptr
	p.Rank = int32(d.u32())
	p.Kind = shmem.Kind(d.u8())
	p.Seg = int32(d.u32())
	p.Off = int64(d.u64())
	return p
}

// stride decodes a stride descriptor into a (nil for one with neither
// counts nor strides), its vectors in the arena's descriptor slot.
func (d *decoder) stride(a *msg.Arena) *shmem.Strided {
	nc := int(d.u8())
	if d.err != nil || nc*4 > len(d.buf)-d.pos {
		d.fail()
		return nil
	}
	var counts []byte
	counts, d.pos = d.buf[d.pos:d.pos+nc*4], d.pos+nc*4
	ns := int(d.u8())
	if d.err != nil || ns*8 > len(d.buf)-d.pos {
		d.fail()
		return nil
	}
	if nc == 0 && ns == 0 {
		return nil
	}
	s := a.StridedN(nc, ns)
	for i := range s.Count {
		s.Count[i] = int(int32(binary.LittleEndian.Uint32(counts[4*i:])))
	}
	for i := range s.Stride {
		s.Stride[i] = int64(d.u64())
	}
	return s
}
