// Package shmem models the globally addressable shared memory of an ARMCI
// cluster: every process owns segments of remotely accessible memory, and a
// global pointer names a location as a (rank, segment, offset) tuple — the
// same representation the paper uses ("remote memory is referenced using a
// tuple of the remote process' id number and the virtual memory address").
//
// Two segment kinds exist:
//
//   - word segments hold int64 cells and support the ARMCI atomic
//     operations — fetch-and-add, swap, compare&swap — plus the operations
//     the paper adds for software queuing locks: atomic swap and
//     compare&swap on PAIRS of longs, which is exactly what is needed to
//     store a global pointer atomically.
//
//   - byte segments hold bulk array data and support contiguous and
//     strided put/get/accumulate, ARMCI's signature non-contiguous
//     transfers.
//
// All fabrics share one Space per cluster (the emulation runs in a single
// OS process even when messages cross real TCP sockets); the ARMCI protocol
// layers enforce that memory on a remote *node* is only touched via data
// server messages, never directly.
package shmem

import "fmt"

// Kind distinguishes word segments from byte segments.
type Kind uint8

const (
	// KindWord segments hold int64 cells addressed by word index.
	KindWord Kind = 1
	// KindByte segments hold raw bytes addressed by byte offset.
	KindByte Kind = 2
)

func (k Kind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindByte:
		return "byte"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Ptr is a global pointer: it names one cell (word segments) or one byte
// (byte segments) in the memory of some process. The zero Ptr is the nil
// pointer; segment numbering starts at 1 so no valid location is zero.
type Ptr struct {
	Rank int32 // owning process
	Kind Kind
	Seg  int32 // 1-based segment id within (Rank, Kind)
	Off  int64 // word index or byte offset within the segment
}

// IsNil reports whether p is the nil global pointer.
func (p Ptr) IsNil() bool { return p == Ptr{} }

// Add returns p displaced by n cells (words or bytes, by segment kind).
func (p Ptr) Add(n int64) Ptr { p.Off += n; return p }

// String formats the pointer for diagnostics.
func (p Ptr) String() string {
	if p.IsNil() {
		return "<nil>"
	}
	return fmt.Sprintf("%d:%s%d+%d", p.Rank, p.Kind, p.Seg, p.Off)
}

// Pack encodes the pointer into two int64 words so it can live in a pair
// of atomic cells, mirroring the paper's pair-of-longs representation. The
// nil pointer packs to (0, 0).
func (p Ptr) Pack() (hi, lo int64) {
	if p.IsNil() {
		return 0, 0
	}
	hi = int64(p.Rank)<<32 | int64(uint32(p.Seg))<<2 | int64(p.Kind)
	return hi, p.Off
}

// Unpack decodes a pointer previously encoded with Pack.
func Unpack(hi, lo int64) Ptr {
	if hi == 0 && lo == 0 {
		return Ptr{}
	}
	return Ptr{
		Rank: int32(hi >> 32),
		Kind: Kind(hi & 0b11),
		Seg:  int32(uint32(hi) >> 2),
		Off:  lo,
	}
}

// Cells names the memory a wait's predicate reads: N consecutive cells
// (words or bytes, by P's kind) from P. The zero Cells names nothing — a
// predicate that reads no memory, or only fabric state.
type Cells struct {
	P Ptr
	N int64
}

// Cell returns the Cells of the one cell at p.
func Cell(p Ptr) Cells { return Cells{p, 1} }

// Overlaps reports whether a write of n cells from p — or, p of no kind,
// of all of p.Rank's memory — touches any of c.
func (c Cells) Overlaps(p Ptr, n int64) bool {
	if c.N <= 0 || p.Rank != c.P.Rank {
		return false
	}
	if p.Kind == 0 {
		return true
	}
	return p.Kind == c.P.Kind && p.Seg == c.P.Seg && p.Off < c.P.Off+c.N && c.P.Off < p.Off+n
}
