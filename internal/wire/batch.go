// Batch framing: the body carried by msg.KindBatch messages. A batch
// packs many small operations bound for one node's data server into a
// single wire frame:
//
//	u16  entry count (>= 1)
//	u32  payload length
//	per entry (35 bytes fixed):
//	    u8   op (BatchPut | BatchAcc | BatchStore)
//	    ptr  target location (17 bytes)
//	    u32  payload offset
//	    u32  payload length (>= 1)
//	    u8   accumulate element type (BatchAcc only, else 0)
//	    f64  accumulate scale      (BatchAcc only, else 0)
//	payload bytes (the entries' data, concatenated in order)
//
// The decoder is strict: entries must tile the payload exactly and in
// order — every entry's offset must equal the running end of the
// previous one and the last must end precisely at the payload length —
// so truncated, overlapping or gapped entry tables are rejected, and
// any accepted body re-encodes byte-identically (no two distinct
// batches share an encoding).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"armci/internal/shmem"
)

// BatchOp is the operation kind of one batch entry.
type BatchOp uint8

const (
	// BatchPut copies the entry payload into contiguous byte memory.
	BatchPut BatchOp = 1
	// BatchAcc atomically accumulates the entry payload (dst +=
	// scale*src) into contiguous memory; AccOp and Scale select the
	// element type and factor.
	BatchAcc BatchOp = 2
	// BatchStore writes one word cell; the payload is the value as 8
	// little-endian bytes. It is the put-with-flag notify path: the
	// server applies it after every earlier entry of the same batch, so
	// a consumer spinning on the flag observes the preceding puts.
	BatchStore BatchOp = 3
)

func (o BatchOp) String() string {
	switch o {
	case BatchPut:
		return "put"
	case BatchAcc:
		return "acc"
	case BatchStore:
		return "store"
	}
	return fmt.Sprintf("BatchOp(%d)", uint8(o))
}

// BatchEntry is one coalesced operation.
type BatchEntry struct {
	Op    BatchOp
	Ptr   shmem.Ptr
	AccOp uint8   // shmem.AccOp, BatchAcc only
	Scale float64 // BatchAcc only
	Data  []byte  // payload; 8 LE bytes (the value) for BatchStore
}

// batchEntrySize is the fixed per-entry table size:
// op(1) + ptr(17) + off(4) + len(4) + accop(1) + scale(8).
const batchEntrySize = 35

// batchHeaderSize is count(2) + payloadLen(4).
const batchHeaderSize = 6

// EncodeBatch serializes entries into a freshly allocated batch body of
// exactly the encoded size (no length prefix — the body travels as a
// message payload, not a raw frame).
func EncodeBatch(entries []BatchEntry) []byte {
	return AppendBatch(make([]byte, 0, BatchSize(entries)), entries)
}

// BatchSize returns the encoded size of the batch body for entries.
func BatchSize(entries []BatchEntry) int {
	payload := 0
	for _, e := range entries {
		payload += len(e.Data)
	}
	return BatchBodySize(len(entries), payload)
}

// BatchBodySize returns the encoded size of a batch body of n entries
// whose payloads total payload bytes.
func BatchBodySize(n, payload int) int {
	return batchHeaderSize + n*batchEntrySize + payload
}

// AppendBatch appends the batch body for entries to b and returns the
// extended slice.
func AppendBatch(b []byte, entries []BatchEntry) []byte {
	if len(entries) == 0 || len(entries) > math.MaxUint16 {
		panic(fmt.Sprintf("wire: batch of %d entries out of range [1,%d]", len(entries), math.MaxUint16))
	}
	payload := 0
	for _, e := range entries {
		payload += len(e.Data)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(entries)))
	b = binary.LittleEndian.AppendUint32(b, uint32(payload))
	off := 0
	for _, e := range entries {
		b = append(b, byte(e.Op))
		b = appendPtr(b, e.Ptr)
		b = binary.LittleEndian.AppendUint32(b, uint32(off))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Data)))
		b = append(b, e.AccOp)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Scale))
		off += len(e.Data)
	}
	for _, e := range entries {
		b = append(b, e.Data...)
	}
	return b
}

// DecodeBatch parses a batch body produced by AppendBatch into a new
// entry table of exact size; see AppendDecodeBatch.
func DecodeBatch(body []byte) ([]BatchEntry, error) {
	return AppendDecodeBatch(nil, body)
}

// AppendDecodeBatch parses a batch body produced by AppendBatch and
// appends its entries to dst, growing it at most once. It rejects
// anything malformed: zero entries, unknown ops, zero-length or
// out-of-order entries, tables that overlap, leave gaps, or run past the
// payload, per-op field misuse, and trailing bytes — all before it
// returns any entry, so a caller never applies part of a bad frame.
//
// Each entry's Data aliases body (capped at the entry's end, so an
// append to it cannot overwrite the next entry): the caller must own
// body and leave it unchanged while it uses the entries.
func AppendDecodeBatch(dst []BatchEntry, body []byte) ([]BatchEntry, error) {
	d := decoder{buf: body}
	count := int(d.u16())
	payloadLen := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if count == 0 {
		return nil, fmt.Errorf("wire: batch with zero entries")
	}
	entriesEnd := batchHeaderSize + count*batchEntrySize
	if want := entriesEnd + payloadLen; len(body) != want {
		return nil, fmt.Errorf("wire: batch body is %d bytes, want %d (%d entries + %d payload)",
			len(body), want, count, payloadLen)
	}
	dst = slices.Grow(dst, count)
	entries := dst[len(dst) : len(dst)+count]
	running := 0
	for i := range entries {
		e := &entries[i]
		e.Op = BatchOp(d.u8())
		e.Ptr = d.ptr()
		off := int(d.u32())
		n := int(d.u32())
		e.AccOp = d.u8()
		e.Scale = math.Float64frombits(d.u64())
		if d.err != nil {
			return nil, d.err
		}
		if n < 1 {
			return nil, fmt.Errorf("wire: batch entry %d has length %d", i, n)
		}
		if off != running {
			return nil, fmt.Errorf("wire: batch entry %d at offset %d, want %d (entries must tile the payload in order)", i, off, running)
		}
		if off+n > payloadLen {
			return nil, fmt.Errorf("wire: batch entry %d spans [%d,%d) past payload of %d bytes", i, off, off+n, payloadLen)
		}
		switch e.Op {
		case BatchPut:
			if e.AccOp != 0 || e.Scale != 0 {
				return nil, fmt.Errorf("wire: batch put entry %d carries accumulate fields", i)
			}
		case BatchAcc:
			if op := shmem.AccOp(e.AccOp); op != shmem.AccFloat64 && op != shmem.AccInt64 {
				return nil, fmt.Errorf("wire: batch acc entry %d has unknown element type %d", i, e.AccOp)
			}
		case BatchStore:
			if n != 8 {
				return nil, fmt.Errorf("wire: batch store entry %d carries %d payload bytes, want 8", i, n)
			}
			if e.AccOp != 0 || e.Scale != 0 {
				return nil, fmt.Errorf("wire: batch store entry %d carries accumulate fields", i)
			}
		default:
			return nil, fmt.Errorf("wire: batch entry %d has unknown op %d", i, uint8(e.Op))
		}
		start, end := entriesEnd+off, entriesEnd+off+n
		e.Data = body[start:end:end]
		running = off + n
	}
	if running != payloadLen {
		return nil, fmt.Errorf("wire: batch payload of %d bytes but entries cover %d", payloadLen, running)
	}
	return dst[:len(dst)+count], nil
}
