package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"armci/internal/shmem"
)

func sampleBatches() [][]BatchEntry {
	return [][]BatchEntry{
		{
			{Op: BatchPut, Ptr: shmem.Ptr{Rank: 1, Kind: 1, Seg: 0, Off: 8}, Data: []byte{1, 2, 3, 4}},
		},
		{
			{Op: BatchPut, Ptr: shmem.Ptr{Rank: 2, Kind: 1, Seg: 1, Off: 0}, Data: []byte("abcdefgh")},
			{Op: BatchAcc, Ptr: shmem.Ptr{Rank: 2, Kind: 1, Seg: 1, Off: 64},
				AccOp: uint8(shmem.AccFloat64), Scale: 2.5, Data: make([]byte, 16)},
			{Op: BatchStore, Ptr: shmem.Ptr{Rank: 2, Kind: 2, Seg: 0, Off: 3},
				Data: binary.LittleEndian.AppendUint64(nil, 42)},
		},
		{
			{Op: BatchAcc, Ptr: shmem.Ptr{Rank: 0, Kind: 1, Seg: 3, Off: 16},
				AccOp: uint8(shmem.AccInt64), Scale: -1, Data: make([]byte, 8)},
			{Op: BatchPut, Ptr: shmem.Ptr{Rank: 0, Kind: 1, Seg: 3, Off: 24}, Data: []byte{9}},
		},
	}
}

// burst is a coalesced burst's batch: n-1 8-byte puts to consecutive
// words, closed by a notify store.
func burst(n int) []BatchEntry {
	entries := make([]BatchEntry, n)
	for i := range entries[:n-1] {
		entries[i] = BatchEntry{Op: BatchPut, Ptr: shmem.Ptr{Rank: 1, Kind: 1, Seg: 1, Off: int64(8 * i)},
			Data: binary.LittleEndian.AppendUint64(nil, uint64(i))}
	}
	entries[n-1] = BatchEntry{Op: BatchStore, Ptr: shmem.Ptr{Rank: 1, Kind: 2, Seg: 1},
		Data: binary.LittleEndian.AppendUint64(nil, 1)}
	return entries
}

// FuzzBatchDecode feeds arbitrary bytes to the batch-body decoder: it
// must never panic or over-allocate, and any body it accepts must
// re-encode byte-identically, so truncated, overlapping or padded entry
// tables can never alias a valid batch. Every accepted entry's Data must
// be the sub-slice of the input its table row names — the decoder
// aliases the body rather than copying it — with no capacity past the
// entry's end, and decoding onto a non-empty table must append the same
// entries and keep the ones already there.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	for _, entries := range sampleBatches() {
		f.Add(EncodeBatch(entries))
	}
	f.Add(EncodeBatch(burst(256)))
	// A truncated valid body, one with trailing garbage, and one whose
	// second entry overlaps the first (offset rewound to 0).
	body := EncodeBatch(sampleBatches()[1])
	f.Add(body[:len(body)/2])
	f.Add(append(append([]byte{}, body...), 0xff))
	overlap := append([]byte{}, body...)
	binary.LittleEndian.PutUint32(overlap[batchHeaderSize+batchEntrySize+18:], 0)
	f.Add(overlap)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if re := EncodeBatch(entries); !bytes.Equal(re, data) {
			t.Fatalf("accepted batch body does not round-trip:\n in=%x\nout=%x", data, re)
		}
		start := batchHeaderSize + len(entries)*batchEntrySize
		for i, e := range entries {
			if &e.Data[0] != &data[start] || cap(e.Data) != len(e.Data) {
				t.Fatalf("entry %d: Data is not the input's bytes [%d,%d)", i, start, start+len(e.Data))
			}
			start += len(e.Data)
		}
		kept := []BatchEntry{{Op: BatchStore, Data: []byte("kept")}}
		appended, err := AppendDecodeBatch(kept, data)
		if err != nil || !reflect.DeepEqual(appended[:1], kept) || !bytes.Equal(EncodeBatch(appended[1:]), data) {
			t.Fatalf("AppendDecodeBatch onto a non-empty table: %v\n got %+v\nwant %+v after %+v", err, appended, entries, kept)
		}
	})
}

// TestBatchRoundTrip pins field fidelity for representative batches.
func TestBatchRoundTrip(t *testing.T) {
	for _, entries := range sampleBatches() {
		got, err := DecodeBatch(EncodeBatch(entries))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, entries) {
			t.Errorf("round trip mutated batch:\nsent %#v\ngot  %#v", entries, got)
		}
	}
}

// TestBatchDecodeRejections drives the strict decoder through every
// malformed shape it must refuse: truncation, overlap, gaps, trailing
// bytes, zero entries and per-op field misuse.
func TestBatchDecodeRejections(t *testing.T) {
	valid := EncodeBatch(sampleBatches()[1])
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte{}, valid...))
	}
	secondOff := batchHeaderSize + batchEntrySize + 18 // entry 1's offset field
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"zero entries", func() []byte {
			b := EncodeBatch(sampleBatches()[0])
			binary.LittleEndian.PutUint16(b, 0)
			return b[:batchHeaderSize]
		}(), "zero entries"},
		{"truncated table", valid[:batchHeaderSize+batchEntrySize-3], "body is"},
		{"truncated payload", valid[:len(valid)-2], "body is"},
		{"trailing bytes", append(append([]byte{}, valid...), 0xaa), "body is"},
		{"overlapping entries", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[secondOff:], 0)
			return b
		}), "tile the payload"},
		{"gapped entries", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[secondOff:], 9)
			return b
		}), "tile the payload"},
		{"unknown op", mutate(func(b []byte) []byte {
			b[batchHeaderSize] = 0x7f
			return b
		}), "unknown op"},
		{"put with acc fields", mutate(func(b []byte) []byte {
			b[batchHeaderSize+26] = uint8(shmem.AccInt64)
			return b
		}), "accumulate fields"},
		{"acc with bad element type", mutate(func(b []byte) []byte {
			b[batchHeaderSize+batchEntrySize+26] = 9
			return b
		}), "element type"},
		{"store with wrong width", func() []byte {
			return EncodeBatch([]BatchEntry{{
				Op: BatchStore, Ptr: shmem.Ptr{Kind: 2}, Data: []byte{1, 2, 3},
			}})
		}(), "want 8"},
	}
	for _, tc := range cases {
		if _, err := DecodeBatch(tc.body); err == nil {
			t.Errorf("%s: decoder accepted a malformed batch", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
