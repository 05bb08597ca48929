package ga

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"armci"
)

// Elem addresses one global element.
type Elem struct{ R, C int }

// checkElem validates one element index.
func (a *Array) checkElem(e Elem) {
	if e.R < 0 || e.R >= a.rows || e.C < 0 || e.C >= a.cols {
		panic(fmt.Sprintf("ga: %q element (%d,%d) outside %dx%d", a.name, e.R, e.C, a.rows, a.cols))
	}
}

// elemPtr returns the global pointer of one element.
func (a *Array) elemPtr(e Elem) armci.Ptr {
	rank := a.Owner(e.R, e.C)
	rlo, _, clo, _ := a.Distribution(rank)
	_, bc := a.blockDims(rank)
	return a.ptrs[rank].Add(int64(8 * ((e.R-rlo)*bc + (e.C - clo))))
}

// groupByOwner splits element indices by owning rank, remembering the
// original positions so results can be reassembled in caller order.
func (a *Array) groupByOwner(elems []Elem) map[int][]int {
	groups := make(map[int][]int)
	for i, e := range elems {
		a.checkElem(e)
		rank := a.Owner(e.R, e.C)
		groups[rank] = append(groups[rank], i)
	}
	return groups
}

// sortedOwners returns the group keys in ascending rank order, so the
// message pattern is deterministic.
func sortedOwners(groups map[int][]int) []int {
	owners := make([]int, 0, len(groups))
	for r := range groups {
		owners = append(owners, r)
	}
	sort.Ints(owners)
	return owners
}

// Gather reads an arbitrary list of elements (NGA_Gather). One vector-get
// message per owning rank, regardless of how scattered the elements are.
func (a *Array) Gather(elems []Elem) []float64 {
	out := make([]float64, len(elems))
	groups := a.groupByOwner(elems)
	for _, rank := range sortedOwners(groups) {
		idxs := groups[rank]
		reads := make([]armci.VecRead, len(idxs))
		for k, i := range idxs {
			reads[k] = armci.VecRead{Ptr: a.elemPtr(elems[i]), N: 8}
		}
		bufs := a.p.GetV(reads)
		for k, i := range idxs {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(bufs[k]))
		}
	}
	return out
}

// Scatter writes an arbitrary list of elements (NGA_Scatter). One
// vector-put message per owning rank; non-blocking like Put — complete
// via Sync or a fence.
func (a *Array) Scatter(elems []Elem, vals []float64) {
	if len(elems) != len(vals) {
		panic(fmt.Sprintf("ga: scatter of %d elements with %d values", len(elems), len(vals)))
	}
	groups := a.groupByOwner(elems)
	for _, rank := range sortedOwners(groups) {
		idxs := groups[rank]
		pieces := make([]armci.VecPiece, len(idxs))
		data := make([]byte, 8*len(idxs))
		for k, i := range idxs {
			word := data[8*k : 8*k+8]
			binary.LittleEndian.PutUint64(word, math.Float64bits(vals[i]))
			pieces[k] = armci.VecPiece{Ptr: a.elemPtr(elems[i]), Data: word}
		}
		a.p.PutV(pieces)
	}
}

// Counter is a cluster-global atomic int64, the facility behind
// NGA_Read_inc: Global Arrays applications use such counters for dynamic
// load balancing (each worker atomically claims the next task index).
// The counter lives in the word memory of its home rank and is updated
// with ARMCI fetch-and-add — local-direct or one server round trip.
type Counter struct {
	p    *armci.Proc
	cell armci.Ptr
}

// NewCounter collectively creates a counter homed at the given rank,
// initialized to zero. Every rank must call it with the same home.
func NewCounter(p *armci.Proc, home int) *Counter {
	if home < 0 || home >= p.Size() {
		panic(fmt.Sprintf("ga: counter home %d outside 0..%d", home, p.Size()-1))
	}
	var mine armci.Ptr
	if p.Rank() == home {
		mine = p.MallocWordsLocal(1)
	}
	// All-gather the home's pointer (only the home contributes).
	vec := make([]int64, 2)
	if p.Rank() == home {
		hi, lo := mine.Pack()
		vec[0], vec[1] = hi, lo
	}
	p.AllReduceSumInt64(vec)
	return &Counter{p: p, cell: armci.UnpackPtr(vec[0], vec[1])}
}

// ReadInc atomically adds inc and returns the previous value.
func (c *Counter) ReadInc(inc int64) int64 {
	return c.p.FetchAdd(c.cell, inc)
}

// Value reads the counter.
func (c *Counter) Value() int64 { return c.p.Load(c.cell) }
