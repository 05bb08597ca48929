// Package ga is a compact Global Arrays substrate built on the armci
// package, as much of it as the paper's GA_Sync() evaluation uses. A
// two-dimensional float64 array is block-distributed over a near-square
// process grid; any process reads or writes arbitrary global patches with
// one-sided strided operations against the owners' memory, and GA_Sync
// (Sync) fences all outstanding transfers and synchronizes — with either
// the original AllFence+MPI_Barrier implementation or the paper's
// combined ARMCI_Barrier.
package ga

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"armci"
)

// SyncMode selects the implementation behind Sync (GA_Sync).
type SyncMode uint8

const (
	// SyncNew uses the paper's combined fence+barrier (ARMCI_Barrier).
	SyncNew SyncMode = iota
	// SyncOld uses the original serialized AllFence + MPI_Barrier.
	SyncOld
	// SyncOldPipelined is the ablation with overlapped fence round trips.
	SyncOldPipelined
)

func (m SyncMode) String() string {
	switch m {
	case SyncNew:
		return "new"
	case SyncOld:
		return "old"
	case SyncOldPipelined:
		return "old-pipelined"
	}
	return fmt.Sprintf("SyncMode(%d)", uint8(m))
}

// Array is one rank's handle to a block-distributed 2-D float64 array.
type Array struct {
	p          *armci.Proc
	name       string
	rows, cols int
	pr, pc     int   // process grid dimensions (pr*pc == Size)
	rowSplit   []int // pr+1 block boundaries over rows
	colSplit   []int // pc+1 block boundaries over cols
	ptrs       []armci.Ptr
	mode       SyncMode
	scratch    []byte // one piece's owner bytes, reused by every Get and Put
	region     region // one piece's descriptor, reused by every Get and Put
}

// Create collectively builds a rows×cols array distributed uniformly over
// all ranks on a near-square grid. Every rank must call it with identical
// arguments; the call synchronizes.
func Create(p *armci.Proc, name string, rows, cols int) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("ga: array %q needs positive dims, got %dx%d", name, rows, cols)
	}
	n := p.Size()
	pr := nearSquareRows(n)
	pc := n / pr
	a := &Array{
		p: p, name: name, rows: rows, cols: cols, pr: pr, pc: pc,
		rowSplit: split(rows, pr),
		colSplit: split(cols, pc),
	}
	br, bc := a.blockDims(p.Rank())
	bytes := 8 * br * bc
	if bytes == 0 {
		bytes = 8 // keep empty blocks addressable
	}
	// Collective exchange of the block base pointers (synchronizing).
	a.ptrs = p.Malloc(bytes)
	return a, nil
}

// nearSquareRows returns the largest divisor of n not exceeding √n.
func nearSquareRows(n int) int {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return best
}

// split returns k+1 boundaries dividing n as evenly as possible.
func split(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// SetSyncMode selects the GA_Sync implementation (default SyncNew). All
// ranks must agree.
func (a *Array) SetSyncMode(m SyncMode) { a.mode = m }

// gridPos returns rank's position on the process grid (row-major).
func (a *Array) gridPos(rank int) (gr, gc int) { return rank / a.pc, rank % a.pc }

// rankAt returns the rank at grid position (gr, gc).
func (a *Array) rankAt(gr, gc int) int { return gr*a.pc + gc }

// Distribution returns the half-open global index ranges of rank's block:
// rows [rlo, rhi), cols [clo, chi).
func (a *Array) Distribution(rank int) (rlo, rhi, clo, chi int) {
	gr, gc := a.gridPos(rank)
	return a.rowSplit[gr], a.rowSplit[gr+1], a.colSplit[gc], a.colSplit[gc+1]
}

// blockDims returns the local block shape of rank.
func (a *Array) blockDims(rank int) (br, bc int) {
	rlo, rhi, clo, chi := a.Distribution(rank)
	return rhi - rlo, chi - clo
}

// checkPatch validates a half-open patch.
func (a *Array) checkPatch(rlo, rhi, clo, chi int) {
	if rlo < 0 || clo < 0 || rhi > a.rows || chi > a.cols || rlo >= rhi || clo >= chi {
		panic(fmt.Sprintf("ga: %q patch [%d,%d)x[%d,%d) outside %dx%d",
			a.name, rlo, rhi, clo, chi, a.rows, a.cols))
	}
}

// eachBlock visits every owner block intersecting the patch, passing the
// owning rank and the half-open global intersection.
func (a *Array) eachBlock(rlo, rhi, clo, chi int, fn func(rank, irlo, irhi, iclo, ichi int)) {
	for gr := 0; gr < a.pr; gr++ {
		brlo, brhi := a.rowSplit[gr], a.rowSplit[gr+1]
		if brhi <= rlo || brlo >= rhi || brlo == brhi {
			continue
		}
		for gc := 0; gc < a.pc; gc++ {
			bclo, bchi := a.colSplit[gc], a.colSplit[gc+1]
			if bchi <= clo || bclo >= chi || bclo == bchi {
				continue
			}
			fn(a.rankAt(gr, gc),
				max(rlo, brlo), min(rhi, brhi),
				max(clo, bclo), min(chi, bchi))
		}
	}
}

// region backs one piece's descriptor: its count and stride slices are
// views of it. An Array keeps one and rewrites it for every piece, since
// no transfer keeps a descriptor past its call (a send only borrows it,
// and a fabric that delivers later copies it).
type region struct {
	count  [2]int
	stride [1]int64
}

// blockRegion maps a global intersection to the owner-local strided
// descriptor and base pointer. The descriptor is a view of a.region,
// valid until the next call.
func (a *Array) blockRegion(rank, irlo, irhi, iclo, ichi int) (armci.Ptr, armci.Strided) {
	orlo, _, oclo, _ := a.Distribution(rank)
	_, bc := a.blockDims(rank)
	base := a.ptrs[rank].Add(int64(8 * ((irlo-orlo)*bc + (iclo - oclo))))
	rows := irhi - irlo
	g := &a.region
	*g = region{count: [2]int{8 * (ichi - iclo), rows}, stride: [1]int64{int64(8 * bc)}}
	if rows == 1 {
		return base, armci.Strided{Count: g.count[:1]}
	}
	return base, armci.Strided{Count: g.count[:], Stride: g.stride[:]}
}

// patchBytes appends the intersection rows of a row-major patch buffer
// to dst as little-endian float64s, the layout of the owner's block
// memory.
func patchBytes(dst []byte, buf []float64, rlo, clo, chi int, irlo, irhi, iclo, ichi int) []byte {
	cols, w := chi-clo, ichi-iclo
	dst = slices.Grow(dst, 8*(irhi-irlo)*w)
	for r := irlo; r < irhi; r++ {
		row := (r-rlo)*cols + (iclo - clo)
		for _, v := range buf[row : row+w] {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// Put writes the row-major buf into the global patch rows [rlo,rhi) ×
// cols [clo,chi) (GA_Put / NGA_Put). Non-blocking completion semantics:
// remote pieces are guaranteed visible only after Sync or a fence. buf
// may be reused as soon as Put returns: each piece is encoded into the
// array's scratch, which the transfer is done with before Put moves on.
func (a *Array) Put(rlo, rhi, clo, chi int, buf []float64) {
	a.checkPatch(rlo, rhi, clo, chi)
	if want := (rhi - rlo) * (chi - clo); len(buf) != want {
		panic(fmt.Sprintf("ga: %q put buffer %d elements, patch needs %d", a.name, len(buf), want))
	}
	a.eachBlock(rlo, rhi, clo, chi, func(rank, irlo, irhi, iclo, ichi int) {
		dst, desc := a.blockRegion(rank, irlo, irhi, iclo, ichi)
		a.scratch = patchBytes(a.scratch[:0], buf, rlo, clo, chi, irlo, irhi, iclo, ichi)
		a.p.PutStrided(dst, desc, a.scratch)
	})
}

// Get reads the global patch into a fresh row-major buffer (GA_Get).
// Blocking.
func (a *Array) Get(rlo, rhi, clo, chi int) []float64 {
	a.checkPatch(rlo, rhi, clo, chi) // before sizing the result
	out := make([]float64, (rhi-rlo)*(chi-clo))
	a.GetTo(rlo, rhi, clo, chi, out, chi-clo)
	return out
}

// GetTo reads the global patch rows [rlo,rhi) × cols [clo,chi) into buf
// with leading dimension ld (NGA_Get's form): cell (r, c) lands at
// buf[(r-rlo)*ld + (c-clo)], and no other element of buf is written.
// Blocking.
func (a *Array) GetTo(rlo, rhi, clo, chi int, buf []float64, ld int) {
	a.checkPatch(rlo, rhi, clo, chi)
	if need := (rhi-rlo-1)*ld + chi - clo; ld < chi-clo || len(buf) < need {
		panic(fmt.Sprintf("ga: %q get buffer %d elements with leading dimension %d, patch [%d,%d)x[%d,%d) needs %d and ld >= %d",
			a.name, len(buf), ld, rlo, rhi, clo, chi, need, chi-clo))
	}
	a.eachBlock(rlo, rhi, clo, chi, func(rank, irlo, irhi, iclo, ichi int) {
		src, desc := a.blockRegion(rank, irlo, irhi, iclo, ichi)
		a.scratch = a.p.GetStrided(a.scratch[:0], src, desc)
		b := a.scratch
		w := ichi - iclo
		for r := irlo; r < irhi; r++ {
			row := buf[(r-rlo)*ld+(iclo-clo):][:w]
			for j := range row {
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
			}
			b = b[8*w:]
		}
	})
}

// Sync is GA_Sync: it completes all outstanding array communication
// everywhere and synchronizes all ranks, using the configured
// implementation (the paper's combined barrier by default).
func (a *Array) Sync() {
	switch a.mode {
	case SyncNew:
		a.p.Barrier()
	case SyncOld:
		a.p.SyncOld()
	case SyncOldPipelined:
		a.p.SyncOldPipelined()
	default:
		panic(fmt.Sprintf("ga: unknown sync mode %v", a.mode))
	}
}
