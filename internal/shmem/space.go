package shmem

import (
	"fmt"
	"math"
	"sync"
)

// Space is the cluster-wide collection of remotely accessible segments.
// One Space backs one emulated cluster. Every operation touches one rank's
// segments and is serialized by that rank's mutex, so the concurrent
// fabrics (channel and TCP) are data-race free and accesses to different
// ranks' memory never wait on each other; the simulated fabric runs one
// actor at a time and never contends.
type Space struct {
	nodeOf   []int // rank -> node index
	numNodes int
	ranks    []rankMem

	// onWrite, when non-nil, is invoked (outside every rank lock) after
	// every mutation with the region written: n cells (words or bytes, by
	// p's kind) from p, or — p of no kind — all of p.Rank's memory. The
	// concurrent fabrics use it to wake the processes blocked in WaitUntil
	// on cells it overlaps (MCS locked flags, op_done counters); the
	// simulated fabric pokes every process in a WaitUntil.
	onWrite func(p Ptr, n int64)
}

// cacheLine is the padding that keeps neighbouring ranks' locks off each
// other's cache lines: two 64-byte lines, the unit adjacent-line
// prefetchers move.
const cacheLine = 128

// rankMem is one rank's memory, its dirty-page tracking and the mutex
// that serializes every access to them.
type rankMem struct {
	mu    sync.Mutex
	words [][]int64
	bytes [][]byte
	prot  protState

	_ [cacheLine]byte
}

// NewSpace creates a Space for len(nodeOf) processes, where nodeOf maps
// each rank to its node index (processes on the same node share an SMP and
// may access each other's segments directly).
func NewSpace(nodeOf []int) *Space {
	s := &Space{nodeOf: append([]int(nil), nodeOf...)}
	for _, n := range nodeOf {
		if n+1 > s.numNodes {
			s.numNodes = n + 1
		}
	}
	s.ranks = make([]rankMem, len(nodeOf))
	return s
}

// NumNodes returns the number of SMP nodes in the space.
func (s *Space) NumNodes() int { return s.numNodes }

// SetOnWrite installs the post-mutation notification hook.
func (s *Space) SetOnWrite(fn func(p Ptr, n int64)) { s.onWrite = fn }

// NumRanks returns the number of processes in the space.
func (s *Space) NumRanks() int { return len(s.ranks) }

// Node returns the node index of rank.
func (s *Space) Node(rank int) int { return s.nodeOf[rank] }

// notify runs the onWrite hook, if any, for a mutation of n cells from p.
func (s *Space) notify(p Ptr, n int64) {
	if s.onWrite != nil {
		s.onWrite(p, n)
	}
}

// locked runs fn holding rank's mutex. Mutators route through it so that
// a panic inside fn — a bad pointer, an out-of-range access — unwinds
// with the mutex released: on the simulated fabric such a panic is
// recovered and reported as the run's failure, and a mutex left locked
// would instead freeze every other process into a silent hang. The
// onWrite hook deliberately stays outside fn: it re-enters scheduler
// state that must never be touched under a rank lock.
func (s *Space) locked(rank int32, fn func(r *rankMem)) {
	r := &s.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r)
}

// AllocWords allocates a zeroed word segment of n cells owned by rank and
// returns a pointer to its first cell.
func (s *Space) AllocWords(rank, n int) Ptr {
	if n <= 0 {
		panic(fmt.Sprintf("shmem: AllocWords(%d, %d): non-positive size", rank, n))
	}
	r := &s.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	r.words = append(r.words, make([]int64, n))
	return Ptr{Rank: int32(rank), Kind: KindWord, Seg: int32(len(r.words)), Off: 0}
}

// AllocBytes allocates a zeroed byte segment of n bytes owned by rank and
// returns a pointer to its first byte.
func (s *Space) AllocBytes(rank, n int) Ptr {
	if n <= 0 {
		panic(fmt.Sprintf("shmem: AllocBytes(%d, %d): non-positive size", rank, n))
	}
	r := &s.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bytes = append(r.bytes, make([]byte, n))
	return Ptr{Rank: int32(rank), Kind: KindByte, Seg: int32(len(r.bytes)), Off: 0}
}

// wordsAt resolves a word pointer into this rank's memory to its backing
// slice starting at p. Callers hold r.mu.
func (r *rankMem) wordsAt(p Ptr, n int64) []int64 {
	if p.Kind != KindWord {
		panic(fmt.Sprintf("shmem: %v is not a word pointer", p))
	}
	seg := r.words[p.Seg-1]
	if p.Off < 0 || p.Off+n > int64(len(seg)) {
		panic(fmt.Sprintf("shmem: word access %v+%d out of range (segment %d cells)", p, n, len(seg)))
	}
	return seg[p.Off : p.Off+n]
}

// bytesAt resolves a byte pointer into this rank's memory to its backing
// slice starting at p. Callers hold r.mu.
func (r *rankMem) bytesAt(p Ptr, n int64) []byte {
	if p.Kind != KindByte {
		panic(fmt.Sprintf("shmem: %v is not a byte pointer", p))
	}
	seg := r.bytes[p.Seg-1]
	if p.Off < 0 || p.Off+n > int64(len(seg)) {
		panic(fmt.Sprintf("shmem: byte access %v+%d out of range (segment %d bytes)", p, n, len(seg)))
	}
	return seg[p.Off : p.Off+n]
}

// --- word operations (ARMCI atomic memory operations) ---

// Load atomically reads the cell at p.
func (s *Space) Load(p Ptr) int64 {
	r := &s.ranks[p.Rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wordsAt(p, 1)[0]
}

// Store atomically writes v to the cell at p.
func (s *Space) Store(p Ptr, v int64) {
	s.locked(p.Rank, func(r *rankMem) { r.store(p, v) })
	s.notify(p, 1)
}

// store writes v to the cell at p. Callers hold r.mu.
func (r *rankMem) store(p Ptr, v int64) {
	r.wordsAt(p, 1)[0] = v
	r.mark(p, 1)
}

// FetchAdd atomically adds delta to the cell at p and returns the previous
// value (ARMCI_RMW fetch-and-add; the ticket lock's fetch-and-increment).
func (s *Space) FetchAdd(p Ptr, delta int64) int64 {
	var old int64
	s.locked(p.Rank, func(r *rankMem) {
		w := r.wordsAt(p, 1)
		old = w[0]
		w[0] += delta
		r.mark(p, 1)
	})
	s.notify(p, 1)
	return old
}

// Pair is a pair of longs — the operand size of the atomic operations the
// paper adds to ARMCI so global pointers can be manipulated atomically.
type Pair struct{ Hi, Lo int64 }

// PackPtr converts a global pointer to its two-word representation.
func PackPtr(p Ptr) Pair { hi, lo := p.Pack(); return Pair{hi, lo} }

// UnpackPtr converts a two-word representation back to a pointer.
func (v Pair) UnpackPtr() Ptr { return Unpack(v.Hi, v.Lo) }

// LoadPair atomically reads the two consecutive cells at p.
func (s *Space) LoadPair(p Ptr) Pair {
	r := &s.ranks[p.Rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.wordsAt(p, 2)
	return Pair{w[0], w[1]}
}

// StorePair atomically writes the two consecutive cells at p.
func (s *Space) StorePair(p Ptr, v Pair) {
	s.locked(p.Rank, func(r *rankMem) {
		w := r.wordsAt(p, 2)
		w[0], w[1] = v.Hi, v.Lo
		r.mark(p, 2)
	})
	s.notify(p, 2)
}

// SwapPair atomically replaces the two consecutive cells at p with v and
// returns their previous contents.
func (s *Space) SwapPair(p Ptr, v Pair) Pair {
	var old Pair
	s.locked(p.Rank, func(r *rankMem) {
		w := r.wordsAt(p, 2)
		old = Pair{w[0], w[1]}
		w[0], w[1] = v.Hi, v.Lo
		r.mark(p, 2)
	})
	s.notify(p, 2)
	return old
}

// CompareAndSwapPair atomically stores new in the two consecutive cells at
// p if they hold old. It returns the pair observed before the operation
// (equal to old exactly when the swap happened).
func (s *Space) CompareAndSwapPair(p Ptr, old, new Pair) Pair {
	var prev Pair
	s.locked(p.Rank, func(r *rankMem) {
		w := r.wordsAt(p, 2)
		prev = Pair{w[0], w[1]}
		if prev == old {
			w[0], w[1] = new.Hi, new.Lo
			r.mark(p, 2)
		}
	})
	s.notify(p, 2)
	return prev
}

// --- byte operations (remote memory copy and accumulate) ---

// Put copies data into memory at p.
func (s *Space) Put(p Ptr, data []byte) {
	s.locked(p.Rank, func(r *rankMem) { r.put(p, data) })
	s.notify(p, int64(len(data)))
}

// put copies data into memory at p. Callers hold r.mu.
func (r *rankMem) put(p Ptr, data []byte) {
	copy(r.bytesAt(p, int64(len(data))), data)
	r.mark(p, int64(len(data)))
}

// AccOp selects the element type of an accumulate operation.
type AccOp uint8

const (
	// AccFloat64 interprets the region as float64 and performs
	// dst += scale * src with scale carried as a float64.
	AccFloat64 AccOp = 1
	// AccInt64 interprets the region as int64 and performs
	// dst += scale * src with scale carried as an int64 in the float bits.
	AccInt64 AccOp = 2
)

// Accumulate atomically performs dst += scale*src elementwise at p. The
// data length must be a multiple of 8. scale is interpreted per op.
func (s *Space) Accumulate(op AccOp, p Ptr, data []byte, scale float64) {
	s.locked(p.Rank, func(r *rankMem) { r.accumulate(op, p, data, scale) })
	s.notify(p, int64(len(data)))
}

// accumulate performs dst += scale*src elementwise at p. Callers hold
// r.mu.
func (r *rankMem) accumulate(op AccOp, p Ptr, data []byte, scale float64) {
	if len(data)%8 != 0 {
		panic(fmt.Sprintf("shmem: accumulate length %d not a multiple of 8", len(data)))
	}
	dst := r.bytesAt(p, int64(len(data)))
	r.mark(p, int64(len(data)))
	switch op {
	case AccFloat64:
		for i := 0; i+8 <= len(data); i += 8 {
			d := math.Float64frombits(leUint64(dst[i:]))
			v := math.Float64frombits(leUint64(data[i:]))
			lePutUint64(dst[i:], math.Float64bits(d+scale*v))
		}
	case AccInt64:
		k := int64(scale)
		for i := 0; i+8 <= len(data); i += 8 {
			d := int64(leUint64(dst[i:]))
			v := int64(leUint64(data[i:]))
			lePutUint64(dst[i:], uint64(d+k*v))
		}
	default:
		panic(fmt.Sprintf("shmem: unknown accumulate op %d", op))
	}
}

func leUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func lePutUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
