package check

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"armci"
	"armci/internal/elastic"
	"armci/internal/shmem"
	"armci/internal/workload"
)

// workloadBody builds the per-rank body of one case. The workload has
// three phases, all oracle-bearing:
//
//   - a critical-section phase: Iters times, take the lock, increment a
//     shared counter homed at rank 0 (remote ranks fence the store
//     before releasing), release. Exercises the mutual-exclusion and
//     FIFO oracles; the final counter value is a state-level check that
//     no increment was lost even if the trace happened to mask an
//     overlap.
//   - a put-round phase: Rounds times, every rank stores a round-tagged
//     value into a rotating peer's slot array, synchronizes with the
//     case's sync variant, reads its own slots back locally (the fence
//     guarantee made the remote store visible), and synchronizes again
//     so verification finishes before the next round overwrites.
//     Exercises the fence and delivery oracles.
//   - a notify/wait phase: Rounds times, every rank streams chunked
//     data into its right neighbor's buffer — the first chunks with
//     NbPut, the last with PutFlag — while consuming from its left
//     neighbor with WaitFlag and verifying every chunk byte-for-byte.
//     With coalescing on, the chunks and the flag ride one batched
//     frame; a coalescer that reorders within the batch lets the flag
//     overtake its data, which the byte verification catches (the
//     chunks are sized so the stale window exceeds the consumer's poll
//     gap). Outstanding NbPut handles are then collected with WaitAll.
//     With coalescing on, each round's frame also writes one word of the
//     neighbor's twice, and the neighbor checks after the round's sync
//     that the later value is the one that stayed: an order check that
//     holds whatever the timing, where the stale-chunk check needs the
//     consumer to poll inside the server's apply.
//
// All phases route every global synchronization through the case's sync
// variant (real or mutated), so a broken barrier is exposed to both the
// trace-level fence oracle and the state-level read-back.
func workloadBody(c Case, col *collector) func(p *armci.Proc) {
	if mutationSpecs[c.Mutation].elastic {
		// The elastic-recovery mutation replaces the whole workload: the
		// case's crashrank plan injects the (emulated) crash, the hazard
		// makes survivors keep the aborted epoch's writes, and the
		// pure-replay oracle is the state check.
		return func(p *armci.Proc) {
			cfg := elastic.Config{Steps: 4, Seed: c.Seed, SkipRollback: true}
			res := elastic.Run(p, cfg)
			if want := elastic.Oracle(cfg, p.Size()); res.Fingerprint != want {
				col.addf("elastic fingerprint 0x%016x diverges from pure-replay oracle 0x%016x — aborted-epoch state survived recovery",
					res.Fingerprint, want)
			}
		}
	}
	if c.Workload != "" {
		// A named workload (internal/workload) replaces all three phases;
		// its own invariant oracle reports through the state collector and
		// its synchronization routes through the case's sync variant, so
		// the trace-level fence/delivery oracles still apply. validateCase
		// already accepted the spec.
		sp, err := workload.Parse(c.Workload)
		if err != nil {
			panic(fmt.Sprintf("check: workloadBody on unvalidated case: %v", err))
		}
		return workload.Build(sp, workload.Config{
			Seed:    c.Seed,
			Sync:    c.Sync,
			Report:  col.addf,
			Hazards: mutationSpecs[c.Mutation].hazards,
		})
	}
	if f, err := armci.ParseFaults(c.Faults); err == nil && f.CrashHeldAcquire > 0 {
		// A crashheld plan fail-stops a rank inside the lock phase; the
		// dead rank can join no collective, so the case runs the
		// crash-recovery workload instead of the three-phase one.
		return crashWorkloadBody(c, col, f)
	}
	return func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		counter := p.MallocWords(1)[0] // rank 0's cell
		slots := p.MallocWords(n)
		nbuf := p.Malloc(notifyChunks * notifyChunkBytes)
		nflag := p.MallocWords(1)
		var rewrite []shmem.Ptr // round r's twice-written word at +8r
		if c.Coalesce || mutationSpecs[c.Mutation].coalesceHazard {
			rewrite = p.Malloc(8 * c.Rounds)
		}
		var epoch int
		syncFn := syncFor(p, c, &epoch)

		if c.Alg != "" {
			mu := lockFor(p, c)
			node0 := p.NodeOf(0)
			for i := 0; i < c.Iters; i++ {
				mu.Lock()
				v := p.Load(counter)
				p.Store(counter, v+1)
				if node0 != p.MyNode() {
					// Complete the store before handing off, so the next
					// holder reads the fresh value.
					p.Fence(node0)
				}
				mu.Unlock()
			}
		}
		syncFn()
		if me == 0 && c.Alg != "" {
			want := int64(n * c.Iters)
			if got := p.Load(counter); got != want {
				col.addf("critical-section counter = %d, want %d (increments lost)", got, want)
			}
		}

		for r := 0; r < c.Rounds; r++ {
			shift := 1
			if n > 1 {
				shift = 1 + r%(n-1)
			}
			dst := (me + shift) % n
			p.Store(slots[dst].Add(int64(me)), roundVal(r, me))
			syncFn()
			src := ((me-shift)%n + n) % n
			if got := p.Load(slots[me].Add(int64(src))); got != roundVal(r, src) {
				col.addf("put round %d: rank %d read slot[%d] = %d, want %d (store from rank %d escaped the fence)",
					r+1, me, src, got, roundVal(r, src), src)
			}
			syncFn()
		}

		for r := 0; r < c.Rounds; r++ {
			dst := (me + 1) % n
			src := (me - 1 + n) % n
			var hs []*armci.Handle
			if rewrite != nil {
				w := rewrite[dst].Add(int64(8 * r))
				hs = append(hs, p.NbPut(w, rewriteVal(r, me, 1)), p.NbPut(w, rewriteVal(r, me, 2)))
			}
			for k := 0; k < notifyChunks-1; k++ {
				hs = append(hs, p.NbPut(nbuf[dst].Add(int64(k*notifyChunkBytes)), chunkData(r, me, k)))
			}
			last := notifyChunks - 1
			p.PutFlag(nbuf[dst].Add(int64(last*notifyChunkBytes)), chunkData(r, me, last),
				nflag[dst], int64(r+1))
			p.WaitFlag(nflag[me], int64(r+1))
			for k := 0; k < notifyChunks; k++ {
				got := p.Get(nbuf[me].Add(int64(k*notifyChunkBytes)), notifyChunkBytes)
				if want := chunkData(r, src, k); !bytes.Equal(got, want) {
					col.addf("notify round %d: rank %d read stale chunk %d from rank %d (flag overtook its data)",
						r+1, me, k, src)
				}
			}
			p.WaitAll(hs...)
			// One synchronization per round: the consumer verified before
			// entering, so next round's producer cannot overwrite early.
			syncFn()
			if rewrite != nil {
				got := p.Get(rewrite[me].Add(int64(8*r)), 8)
				if want := rewriteVal(r, src, 2); !bytes.Equal(got, want) {
					col.addf("notify round %d: rank %d's word written twice by rank %d in one frame holds %x, want the later %x (the batch was applied out of order)",
						r+1, me, src, got, want)
				}
			}
		}
	}
}

// crashWorkloadBody is the workload of crashheld cases: lock phase only.
// Every rank — the designated victim included — runs Iters critical
// sections over the shared counter; the victim fail-stops inside the
// acquire the plan names, contributing only the increments it completed
// before dying. There is no barrier (the dead rank cannot enter one):
// rank 0, which homes the counter, instead waits — bounded — until the
// surviving increments have all landed, then checks the total. A lock
// that loses increments (or never recovers from the crash) leaves the
// counter short and trips the state oracle; a lock that hangs trips
// liveness via the sim deadlock detector or the op deadline.
func crashWorkloadBody(c Case, col *collector, f armci.Faults) func(p *armci.Proc) {
	return func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		counter := p.MallocWords(1)[0] // rank 0's cell
		mu := lockFor(p, c)
		node0 := p.NodeOf(0)
		csDelay := mutationSpecs[c.Mutation].csDelay
		for i := 0; i < c.Iters; i++ {
			mu.Lock() // the victim dies in here at its designated acquire
			p.Store(counter, p.Load(counter)+1)
			if csDelay > 0 {
				// Lease-mutation cases stretch the tenure past the TTL, so
				// waiters depose this (live) holder mid-section.
				p.Env().Clock().Sleep(csDelay)
			}
			if node0 != p.MyNode() {
				p.Fence(node0)
			}
			mu.Unlock()
		}
		if me != 0 || f.CrashHeldRank == 0 {
			return // the victim never gets here; only rank 0 verifies
		}
		// The victim dies inside acquire number CrashHeldAcquire, before
		// that section's increment (a plan past Iters never fires).
		victimIters := c.Iters
		if f.CrashHeldAcquire <= c.Iters {
			victimIters = f.CrashHeldAcquire - 1
		}
		want := int64((n-1)*c.Iters + victimIters)
		// Survivors fence remote increments before releasing, so once the
		// last one finishes the counter — homed here — reads complete.
		bound := time.Second // virtual time: event-driven, costs nothing
		if c.Fabric != armci.FabricSim {
			bound = 10 * time.Second
		}
		p.Env().WaitUntilFor("crash-counter", shmem.Cell(counter), func() bool {
			return p.Load(counter) >= want
		}, bound)
		if got := p.Load(counter); got != want {
			col.addf("crash-recovery counter = %d, want %d (%d survivors x %d iters + %d from the victim)",
				got, want, n-1, c.Iters, victimIters)
		}
	}
}

// Notify/wait phase geometry: enough chunks, each large enough, that a
// batch applied in reverse keeps the earliest chunk unwritten for
// several microseconds after the flag lands — well past the consumer's
// poll gap — while staying within the coalescer's entry and frame
// limits so everything rides a single batch.
const (
	notifyChunks     = 4
	notifyChunkBytes = 512
)

// chunkData is the payload rank src streams as chunk k of notify round
// r — unique per (round, writer, chunk) so stale bytes are unambiguous.
func chunkData(r, src, k int) []byte {
	b := make([]byte, notifyChunkBytes)
	for i := range b {
		b[i] = byte(r*131 + src*17 + k*7 + i)
	}
	return b
}

// rewriteVal is the i-th value rank src writes to its neighbor's word in
// notify round r.
func rewriteVal(r, src, i int) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(r*1000+src*10+i))
}

// roundVal is the value rank src writes in put round r — unique per
// (round, writer) so a stale or missing store is unambiguous.
func roundVal(r, src int) int64 { return int64((r+1)*1000 + src + 1) }

// lockFor returns the case's lock 0 handle: the real algorithm, or the
// mutated variant when the case's mutation targets the lock.
func lockFor(p *armci.Proc, c Case) armci.Mutex {
	if m, ok := mutationSpecs[c.Mutation]; ok && m.lock != nil {
		return m.lock(p)
	}
	alg, err := armci.ParseLockAlg(c.Alg)
	if err != nil {
		panic(fmt.Sprintf("check: lockFor on unvalidated case: %v", err))
	}
	return p.Mutex(0, alg)
}

// syncFor returns the case's global synchronization: the real variant,
// or the mutated one when the case's mutation targets the sync.
func syncFor(p *armci.Proc, c Case, epoch *int) func() {
	if m, ok := mutationSpecs[c.Mutation]; ok && m.syncFn != nil {
		return m.syncFn(p, epoch)
	}
	sy, _ := workload.SyncNamed(c.Sync)
	return func() { sy.Proc(p) }
}
