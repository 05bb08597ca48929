package workload

import (
	"encoding/binary"
	"math/rand"

	"armci"
)

// mixedBody is the adversarial workload: a program sampled from the
// seeded grammar — op kind (word store / byte put / accumulate) ×
// target skew (uniform / hot / neighbor) × payload size × non-blocking
// or blocking — and executed round by round. Every rank generates the
// identical global plan from the shared seed, executes its own slice of
// it, and maintains a local model of the whole distributed state by
// replaying the full plan; the plan is conflict-free by construction
// (each writer owns a word slot and a byte segment per target, and
// accumulates are commutative-exact), so the model is schedule-
// independent even though the wire interleaving is not.
//
// Oracle: mixed-mode state replay. After each round's sync, every rank
// compares its own incoming region — word slots, byte segments,
// accumulator cells — against the model byte-for-byte, plus two
// plan-sampled remote reads that exercise the get path against other
// ranks' regions.
func mixedBody(sp Spec, cfg Config) func(*armci.Proc) {
	sy, _ := SyncNamed(cfg.Sync)
	return func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		ops, rounds, maxBytes, nbPct := sp.Ops, sp.Rounds, sp.MaxBytes, sp.NbPct
		wordSlots := p.MallocWords(n)
		byteRegion := p.Malloc(n * maxBytes)
		accRegion := p.Malloc(8 * mixedAccCells)
		sy.Proc(p)

		// Model of the whole distributed state, indexed [owner][writer].
		words := make([]int64, n*n)
		bmodel := make([][]byte, n)
		for o := range bmodel {
			bmodel[o] = make([]byte, n*maxBytes)
		}
		accs := make([]int64, n*mixedAccCells)

		rng := rand.New(rand.NewSource(sp.genSeed(cfg.Seed) + 0x6d697865)) // same stream on every rank
		for round := 0; round < rounds; round++ {
			plan, reads := mixedRound(rng, n, ops, sp.Skew, maxBytes, nbPct, round)
			var hs []*armci.Handle
			for _, op := range plan {
				switch op.kind {
				case opWord:
					words[op.target*n+op.rank] = op.val
				case opBytes:
					copy(bmodel[op.target][op.rank*maxBytes+op.slot:], mixedPayload(op.val, op.size))
				case opAcc:
					accs[op.target*mixedAccCells+op.slot] += op.val
				}
				if op.rank != me {
					continue
				}
				switch op.kind {
				case opWord:
					p.Store(wordSlots[op.target].Add(int64(me)), op.val)
				case opBytes:
					dst := byteRegion[op.target].Add(int64(me*maxBytes + op.slot))
					if op.nb {
						hs = append(hs, p.NbPut(dst, mixedPayload(op.val, op.size)))
					} else {
						p.Put(dst, mixedPayload(op.val, op.size))
					}
				case opAcc:
					cell := accRegion[op.target].Add(int64(8 * op.slot))
					if op.nb {
						hs = append(hs, p.NbAcc(armci.AccInt64, cell, leWords([]int64{op.val}), 1))
					} else {
						p.Accumulate(armci.AccInt64, cell, armci.Contig(8), leWords([]int64{op.val}), 1)
					}
				}
			}
			p.WaitAll(hs...)
			sy.Proc(p)

			for w := 0; w < n; w++ {
				if got, want := p.Load(wordSlots[me].Add(int64(w))), words[me*n+w]; got != want {
					cfg.reportf("mixed round %d: rank %d word slot from writer %d = %d, want %d (a store was lost or reordered)",
						round+1, me, w, got, want)
				}
			}
			got := p.Get(byteRegion[me], n*maxBytes)
			for i := range got {
				if got[i] != bmodel[me][i] {
					cfg.reportf("mixed round %d: rank %d byte region diverges from the replay at offset %d (writer %d)",
						round+1, me, i, i/maxBytes)
					break
				}
			}
			ab := p.Get(accRegion[me], 8*mixedAccCells)
			for i := 0; i < mixedAccCells; i++ {
				if got, want := int64(binary.LittleEndian.Uint64(ab[8*i:])), accs[me*mixedAccCells+i]; got != want {
					cfg.reportf("mixed round %d: rank %d accumulator cell %d = %d, want %d (an accumulate was lost)",
						round+1, me, i, got, want)
				}
			}
			for _, rd := range reads {
				if rd.rank != me {
					continue
				}
				if got, want := p.Load(wordSlots[rd.owner].Add(int64(rd.writer))), words[rd.owner*n+rd.writer]; got != want {
					cfg.reportf("mixed round %d: rank %d remote word read (owner %d, writer %d) = %d, want %d",
						round+1, me, rd.owner, rd.writer, got, want)
				}
				gb := p.Get(byteRegion[rd.owner].Add(int64(rd.writer*maxBytes)), maxBytes)
				wb := bmodel[rd.owner][rd.writer*maxBytes : (rd.writer+1)*maxBytes]
				for i := range gb {
					if gb[i] != wb[i] {
						cfg.reportf("mixed round %d: rank %d remote byte read (owner %d, writer %d) stale at offset %d",
							round+1, me, rd.owner, rd.writer, i)
						break
					}
				}
			}
			sy.Proc(p)
		}
	}
}

// mixedAccCells is the size of each rank's contended accumulator array.
const mixedAccCells = 4

// mixedOp kinds.
const (
	opWord = iota
	opBytes
	opAcc
)

// mixedOp is one sampled operation of the plan.
type mixedOp struct {
	rank   int // issuing rank
	kind   int
	target int // destination rank
	slot   int // byte offset (opBytes) or accumulator cell (opAcc)
	size   int // payload bytes (opBytes)
	val    int64
	nb     bool
}

// mixedRead is one sampled post-sync verification read.
type mixedRead struct {
	rank, owner, writer int
}

// mixedRound samples one round of the plan: ops operations per rank
// plus two verification reads per rank. Every rank calls this with an
// identically-seeded rng, so the global plan — and therefore the model
// replay — agrees everywhere.
func mixedRound(rng *rand.Rand, n, ops int, skew string, maxBytes, nbPct, round int) ([]mixedOp, []mixedRead) {
	plan := make([]mixedOp, 0, n*ops)
	idx := 0
	for writer := 0; writer < n; writer++ {
		for o := 0; o < ops; o++ {
			op := mixedOp{
				rank:   writer,
				kind:   rng.Intn(3),
				target: mixedTarget(rng, skew, writer, n),
				val:    int64((round+1)*1_000_000 + idx*173 + writer + 1),
				nb:     rng.Intn(100) < nbPct,
			}
			switch op.kind {
			case opBytes:
				op.size = 8 + rng.Intn(maxBytes-7) // [8, maxBytes]
				op.slot = rng.Intn(maxBytes - op.size + 1)
			case opAcc:
				op.slot = rng.Intn(mixedAccCells)
			}
			plan = append(plan, op)
			idx++
		}
	}
	reads := make([]mixedRead, 0, 2*n)
	for rank := 0; rank < n; rank++ {
		for k := 0; k < 2; k++ {
			reads = append(reads, mixedRead{rank: rank, owner: rng.Intn(n), writer: rng.Intn(n)})
		}
	}
	return plan, reads
}

// mixedTarget samples the destination rank under the spec's skew:
// uniform spreads load, hot funnels everything at rank 0, neighbor
// shifts one right (the ALock-style locality pattern).
func mixedTarget(rng *rand.Rand, skew string, writer, n int) int {
	switch skew {
	case "hot":
		return 0
	case "neighbor":
		return (writer + 1) % n
	}
	return rng.Intn(n)
}

// mixedPayload renders the byte pattern of one put — a pure function of
// the op's value so a stale slot is unambiguous.
func mixedPayload(val int64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(int(val) + i*13)
	}
	return b
}
