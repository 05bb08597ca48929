package ga_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"armci"
	"armci/ga"
)

// runGA executes body on every rank of a simulated cluster.
func runGA(t *testing.T, procs int, body func(p *armci.Proc)) {
	t.Helper()
	if _, err := armci.Run(armci.Options{Procs: procs, Fabric: armci.FabricSim}, body); err != nil {
		t.Fatal(err)
	}
}

// TestDistributionPartitions is the property test on the block
// decomposition: for random shapes and process counts, the per-rank
// blocks exactly tile the global index space with no overlap.
func TestDistributionPartitions(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		procs := 1 + r.Intn(12)
		rows := 1 + r.Intn(40)
		cols := 1 + r.Intn(40)
		ok := true
		runGA(t, procs, func(p *armci.Proc) {
			a, err := ga.Create(p, "part", rows, cols)
			if err != nil {
				panic(err)
			}
			if p.Rank() != 0 {
				return
			}
			covered := make([]int, rows*cols)
			for q := 0; q < procs; q++ {
				rlo, rhi, clo, chi := a.Distribution(q)
				if rlo < 0 || rhi > rows || clo < 0 || chi > cols || rlo > rhi || clo > chi {
					ok = false
					return
				}
				for i := rlo; i < rhi; i++ {
					for j := clo; j < chi; j++ {
						covered[i*cols+j]++
					}
				}
			}
			for _, c := range covered {
				if c != 1 {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPutGetRoundTripRandomPatches writes random patches from random
// ranks and reads them back from other ranks after a sync.
func TestPutGetRoundTripRandomPatches(t *testing.T) {
	const procs, rows, cols = 4, 24, 18
	rng := rand.New(rand.NewSource(99))
	type patch struct{ rlo, rhi, clo, chi, writer int }
	var patches []patch
	for i := 0; i < 8; i++ {
		rlo, clo := rng.Intn(rows-2), rng.Intn(cols-2)
		patches = append(patches, patch{
			rlo: rlo, rhi: rlo + 1 + rng.Intn(rows-rlo-1),
			clo: clo, chi: clo + 1 + rng.Intn(cols-clo-1),
			writer: rng.Intn(procs),
		})
	}
	runGA(t, procs, func(p *armci.Proc) {
		a, err := ga.Create(p, "rt", rows, cols)
		if err != nil {
			panic(err)
		}
		// Patches are applied one at a time, synced between, so later
		// patches legitimately overwrite earlier ones.
		for pi, pt := range patches {
			if p.Rank() == pt.writer {
				buf := make([]float64, (pt.rhi-pt.rlo)*(pt.chi-pt.clo))
				for i := range buf {
					buf[i] = float64(pi*1000 + i)
				}
				a.Put(pt.rlo, pt.rhi, pt.clo, pt.chi, buf)
			}
			a.Sync()
			// Reader: rank (writer+1) mod procs verifies.
			if p.Rank() == (pt.writer+1)%procs {
				got := a.Get(pt.rlo, pt.rhi, pt.clo, pt.chi)
				for i, v := range got {
					if v != float64(pi*1000+i) {
						panic(fmt.Sprintf("patch %d element %d = %v", pi, i, v))
					}
				}
			}
			a.Sync()
		}
	})
}

// TestGetAssemblesAcrossBlocks reads a patch spanning all four blocks of
// a 2x2 grid and checks element-exact assembly.
func TestGetAssemblesAcrossBlocks(t *testing.T) {
	const procs, n = 4, 16
	runGA(t, procs, func(p *armci.Proc) {
		a, err := ga.Create(p, "asm", n, n)
		if err != nil {
			panic(err)
		}
		// Each rank fills its own block with rank-tagged coordinates.
		rlo, rhi, clo, chi := a.Distribution(p.Rank())
		buf := make([]float64, (rhi-rlo)*(chi-clo))
		k := 0
		for i := rlo; i < rhi; i++ {
			for j := clo; j < chi; j++ {
				buf[k] = float64(i*n + j)
				k++
			}
		}
		a.Put(rlo, rhi, clo, chi, buf)
		a.Sync()
		// Everyone reads the center patch spanning the block corners.
		got := a.Get(n/2-2, n/2+2, n/2-2, n/2+2)
		k = 0
		for i := n/2 - 2; i < n/2+2; i++ {
			for j := n/2 - 2; j < n/2+2; j++ {
				if got[k] != float64(i*n+j) {
					panic(fmt.Sprintf("element (%d,%d) = %v, want %d", i, j, got[k], i*n+j))
				}
				k++
			}
		}
		a.Sync()
	})
}

// TestGetToLeadingDimension: a patch spanning all four owners of a 2×2
// grid lands at its leading-dimension offsets inside a larger buffer,
// with every element outside it untouched, whether the owners are remote
// or share the reader's node; a leading dimension narrower than the patch
// or a buffer too short for its last row is refused.
func TestGetToLeadingDimension(t *testing.T) {
	const n, ld, off = 16, 11, 3
	const rlo, rhi, clo, chi = 5, 11, 6, 12
	const sentinel = -1.0
	for _, ppn := range []int{1, 2} {
		_, err := armci.Run(armci.Options{Procs: 4, ProcsPerNode: ppn, Fabric: armci.FabricSim}, func(p *armci.Proc) {
			a, err := ga.Create(p, "ld", n, n)
			if err != nil {
				panic(err)
			}
			brlo, brhi, bclo, bchi := a.Distribution(p.Rank())
			own := make([]float64, 0, (brhi-brlo)*(bchi-bclo))
			for i := brlo; i < brhi; i++ {
				for j := bclo; j < bchi; j++ {
					own = append(own, float64(i*n+j))
				}
			}
			a.Put(brlo, brhi, bclo, bchi, own)
			a.Sync()
			buf := make([]float64, off+(rhi-rlo)*ld+2)
			for i := range buf {
				buf[i] = sentinel
			}
			a.GetTo(rlo, rhi, clo, chi, buf[off:], ld)
			for i, v := range buf {
				want := sentinel
				if k := i - off; k >= 0 && k/ld < rhi-rlo && k%ld < chi-clo {
					want = float64((rlo+k/ld)*n + clo + k%ld)
				}
				if v != want {
					panic(fmt.Sprintf("%d per node: buf[%d] = %v, want %v", ppn, i, v, want))
				}
			}
			for _, bad := range []func(){
				func() { a.GetTo(rlo, rhi, clo, chi, buf, chi-clo-1) },                     // ld narrower than the patch
				func() { a.GetTo(rlo, rhi, clo, chi, buf[:(rhi-rlo-1)*ld+chi-clo-1], ld) }, // last row cut short
			} {
				func() {
					defer func() {
						if recover() == nil {
							panic("expected a panic")
						}
					}()
					bad()
				}()
			}
			a.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPatchAllocations pins the allocations of a Get and a Put of a
// patch spanning both blocks of a one-node, two-rank array, so both
// owners are local and no message is involved. What is left is Get's
// result: a piece is packed into and encoded from the array's scratch,
// its descriptor is the array's own, rewritten for every piece, and
// walking a descriptor allocates nothing. A descriptor allocated per
// piece adds two to either count (four if its slices are made apart), a
// fresh byte slice per piece, as Get and Put once made, two more, and an
// intermediate float64 slice per piece two more.
func TestPatchAllocations(t *testing.T) {
	const wantGet, wantPut = 1, 0
	var get, put float64
	_, err := armci.Run(armci.Options{Procs: 2, ProcsPerNode: 2, Fabric: armci.FabricSim}, func(p *armci.Proc) {
		a, err := ga.Create(p, "allocs", 8, 8)
		if err != nil {
			panic(err)
		}
		if p.Rank() != 0 {
			return
		}
		if _, _, _, chi := a.Distribution(0); chi <= 2 || chi >= 6 {
			panic("patch does not span both blocks")
		}
		buf := make([]float64, 6*4)
		get = testing.AllocsPerRun(50, func() { a.Get(1, 7, 2, 6) })
		put = testing.AllocsPerRun(50, func() { a.Put(1, 7, 2, 6, buf) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if get != wantGet || put != wantPut {
		t.Errorf("allocations per patch: Get %v, Put %v; want %d and %d", get, put, wantGet, wantPut)
	}
}

// TestSyncModesAllWork: each GA_Sync implementation provides visibility.
func TestSyncModesAllWork(t *testing.T) {
	for _, mode := range []ga.SyncMode{ga.SyncNew, ga.SyncOld, ga.SyncOldPipelined} {
		t.Run(mode.String(), func(t *testing.T) {
			const procs, n = 4, 12
			runGA(t, procs, func(p *armci.Proc) {
				a, err := ga.Create(p, "mode", n, n)
				if err != nil {
					panic(err)
				}
				a.SetSyncMode(mode)
				me := p.Rank()
				// Everyone writes one value into every remote block.
				for q := 0; q < procs; q++ {
					if q == me {
						continue
					}
					rlo, _, clo, _ := a.Distribution(q)
					a.Put(rlo, rlo+1, clo, clo+1, []float64{float64(me + 1)})
				}
				a.Sync()
				rlo, _, clo, _ := a.Distribution(me)
				got := a.Get(rlo, rlo+1, clo, clo+1)
				// The last writer in put order wins; all writers put
				// distinct positive values, so any positive value proves
				// a write arrived; zero proves sync failed.
				if got[0] == 0 {
					panic(fmt.Sprintf("rank %d: block corner still zero after %v sync", me, mode))
				}
				a.Sync()
			})
		})
	}
}

// TestSingleProcess: the degenerate 1-rank array works end to end.
func TestSingleProcess(t *testing.T) {
	runGA(t, 1, func(p *armci.Proc) {
		a, err := ga.Create(p, "solo", 5, 7)
		if err != nil {
			panic(err)
		}
		buf := make([]float64, 35)
		for i := range buf {
			buf[i] = float64(i)
		}
		a.Put(0, 5, 0, 7, buf)
		a.Sync()
		got := a.Get(2, 4, 3, 6)
		want := []float64{17, 18, 19, 24, 25, 26}
		for i := range want {
			if got[i] != want[i] {
				panic(fmt.Sprintf("got %v", got))
			}
		}
	})
}

// TestUnevenDimensions: dims not divisible by the grid still partition
// and transfer correctly.
func TestUnevenDimensions(t *testing.T) {
	const procs = 6 // grid 2x3
	runGA(t, procs, func(p *armci.Proc) {
		a, err := ga.Create(p, "uneven", 7, 11)
		if err != nil {
			panic(err)
		}
		buf := make([]float64, 7*11)
		for i := range buf {
			buf[i] = float64(i + 1)
		}
		if p.Rank() == 0 {
			a.Put(0, 7, 0, 11, buf)
		}
		a.Sync()
		got := a.Get(0, 7, 0, 11)
		for i := range buf {
			if got[i] != buf[i] {
				panic(fmt.Sprintf("element %d = %v", i, got[i]))
			}
		}
		a.Sync()
	})
}

// TestCreateValidation and patch validation.
func TestValidation(t *testing.T) {
	runGA(t, 2, func(p *armci.Proc) {
		if _, err := ga.Create(p, "bad", 0, 5); err == nil {
			panic("zero rows accepted")
		}
		a, err := ga.Create(p, "ok", 4, 4)
		if err != nil {
			panic(err)
		}
		for _, fn := range []func(){
			func() { a.Get(0, 5, 0, 4) },                     // row overflow
			func() { a.Get(-1, 2, 0, 4) },                    // negative
			func() { a.Get(2, 2, 0, 4) },                     // empty
			func() { a.Get(3, 1, 0, 4) },                     // reversed
			func() { a.Put(0, 2, 0, 2, make([]float64, 3)) }, // size mismatch
		} {
			func() {
				defer func() {
					if recover() == nil {
						panic("expected a panic")
					}
				}()
				fn()
			}()
		}
		a.Sync()
	})
}
