package main

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"time"

	"armci"
	gen "armci/internal/workload"
)

// workload is one closed loop: as many clients as ranks, each issuing its
// next operation when the previous one returned.
type workload struct {
	name string
	// why is the one line BENCHMARK.json carries.
	why string
	// options are the armci.Run options of every run of the workload.
	options func() armci.Options
	// setup is collective: every rank allocates what the operations need,
	// precomputes its oracle's expectations and returns its two kinds.
	// seed drives payload bytes, target order and the generators' seed,
	// never the number or the shape of the operations. rec is nil on an
	// untraced run.
	setup func(p *armci.Proc, seed int64, rec *recorder) (op, alt *kind)
}

// runDeadline bounds one armci.Run: a hang ends in an error instead of
// eating the driver's 180 s.
const runDeadline = 100 * time.Second

// lockHome is the rank every cluster lock lives at. It is not rank 0, so
// that rank 0 — the rank that records spans — takes the remote path the
// paper's lock figures are about.
const lockHome = 1

// withLocks adds the three cluster locks every run creates: 0 (used
// under LockQueue) and 1 (under LockHybrid) are contended by all ranks,
// 2 is for the uncontended cycle. Only lock-chan4 uses locks in its
// operations; the other workloads carry them so the traced run can time
// hand-offs on their fabric too.
func withLocks(o armci.Options) armci.Options {
	o.NumMutexes, o.LockHomes, o.Deadline = 3, []int{lockHome, lockHome, lockHome}, runDeadline
	return o
}

var workloads = []*workload{
	{
		name:    "sync-tcp4",
		why:     "Fig. 7 on loopback sockets: 3 puts then Barrier vs SyncOld at 4 ranks; sync engine, collectives, server fence path and tcpnet router do the work",
		options: func() armci.Options { return withLocks(armci.Options{Procs: 4, Fabric: armci.FabricTCP}) },
		setup:   func(p *armci.Proc, seed int64, rec *recorder) (op, alt *kind) { return syncKinds(p, seed, rec, false) },
	},
	{
		name:    "lock-chan4",
		why:     "Fig. 8 with no socket and no codec: 4 ranks contend for a queue lock vs the hybrid lock; lock protocol, RMW service and mailbox wake-up dominate",
		options: func() armci.Options { return withLocks(armci.Options{Procs: 4, Fabric: armci.FabricChan}) },
		setup:   lockSetup,
	},
	{
		name: "rma-tcp2",
		why:  "reads beside writes with no collective: one 8 B Get round trip (coalescer idle) vs a 256-put coalesced burst plus Fence at 2 ranks",
		options: func() armci.Options {
			return withLocks(armci.Options{Procs: 2, Fabric: armci.FabricTCP, Coalesce: armci.Coalesce{Enabled: true}})
		},
		setup: rmaSetup,
	},
	{
		name:    "app-tcp4",
		why:     "time to a verified application result: a 64x64 ga stencil solve vs a parameter-server accumulate storm, every layer contributing",
		options: func() armci.Options { return withLocks(armci.Options{Procs: 4, Fabric: armci.FabricTCP}) },
		setup:   appSetup,
	},
	{
		name: "model-sim16",
		why:  "the simulator's own wall cost per simulated sync at 16 ranks: kernel, engine, server and collectives with no goroutine wake-up and no socket",
		options: func() armci.Options {
			return withLocks(armci.Options{Procs: 16, Fabric: armci.FabricSim, Preset: armci.PresetMyrinet2000})
		},
		setup: func(p *armci.Proc, seed int64, rec *recorder) (op, alt *kind) { return syncKinds(p, seed, rec, true) },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// corruptOracle, when set, makes every oracle expect a wrong value: the
// test of the failure accounting and the -corrupt flag use it to show a
// broken result is counted, not averaged away.
var corruptOracle atomic.Bool

// skew is added to an oracle's expected value.
func skew() int64 {
	if corruptOracle.Load() {
		return 1
	}
	return 0
}

// --- sync-tcp4 and model-sim16: puts to every peer, then a global sync ---

const syncPayload = 64

// Virtual µs per operation of model-sim16, pinned: the simulator is
// deterministic and these are the paper-fidelity numbers (Fig. 7 at 16
// ranks with one 64 B put per peer). A change here is a change of the
// model, not of performance.
const (
	vtNewNS = 248783
	vtOldNS = 1797337
)

// syncKinds builds op = put to each peer + Barrier, alt = the same puts
// + SyncOld. Rank q's slot r holds the last stamp rank r put there. With
// model the fabric is the simulated one: rank 0's virtual time per
// operation is pinned, and the targets keep their natural order, because
// the order moves the virtual time (the seed then drives the payload
// alone).
func syncKinds(p *armci.Proc, seed int64, rec *recorder, model bool) (op, alt *kind) {
	c := &calls{p: p, rec: rec}
	me, n := p.Rank(), p.Size()
	slots := p.Malloc(syncPayload * n)
	rng := rand.New(rand.NewSource(seed<<8 + int64(me)))
	peers := make([]int, 0, n-1)
	for q := 0; q < n; q++ {
		if q != me {
			peers = append(peers, q)
		}
	}
	b := 64
	if model {
		b = 8 // a simulated 16-rank sync costs 2-5 ms of wall time
	} else {
		rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	}
	payload := make([]byte, syncPayload)
	rng.Read(payload)
	mine := slots[me]

	// The two kinds share the slots, so a stamp encodes which kind wrote
	// it: op writes 2i, alt writes 2i+1.
	mk := func(label string, id spanID, sync func(), pinned time.Duration) *kind {
		parity := int64(id)
		k := &kind{label: label, b: b, serial: 1}
		k.run = func(i int) {
			t := c.rec.begin()
			binary.LittleEndian.PutUint64(payload, uint64(2*int64(i)+parity))
			for _, q := range peers {
				c.Put(slots[q].Add(int64(syncPayload*me)), payload)
			}
			sync()
			c.rec.end(id, t, i)
		}
		k.check = func(last int, fabricPerOp time.Duration) int {
			bad := 0
			want := 2*int64(last) + parity + skew()
			for _, q := range peers {
				got := c.p.Get(mine.Add(int64(syncPayload*q)), 8)
				if int64(binary.LittleEndian.Uint64(got)) != want {
					bad++
				}
			}
			if model && me == 0 && fabricPerOp != 0 && fabricPerOp != pinned+time.Duration(skew()) {
				bad++
			}
			return bad
		}
		return k
	}
	return mk("puts + Barrier", spanOp, c.Barrier, vtNewNS),
		mk("puts + SyncOld", spanAlt, c.SyncOld, vtOldNS)
}

// --- lock-chan4: a contended critical section under two lock algorithms ---

// lockSetup (the seed is unused: the cycle has no payload and no choice
// of target) builds op = Lock, Load, Store, Fence, Unlock on the queue
// lock, alt = the same cycle on the hybrid lock, all ranks contending.
// Each algorithm guards its own counter at the locks' home. The Fence before
// Unlock is what the API requires of a critical section that writes with
// the asynchronous Store: without it the next holder's Load may overtake
// the Store on another path.
func lockSetup(p *armci.Proc, _ int64, rec *recorder) (op, alt *kind) {
	c := &calls{p: p, rec: rec}
	n := p.Size()
	counters := p.MallocWords(2)[lockHome]
	home := p.NodeOf(lockHome)
	mk := func(label string, id spanID, alg armci.LockAlg, acq, rel spanID) *kind {
		idx := int(id)
		mu := p.Mutex(idx, alg)
		cell := counters.Add(int64(idx))
		k := &kind{label: label, b: 256, serial: n}
		k.run = func(i int) {
			t := c.rec.begin()
			c.Lock(mu, acq)
			c.Store(cell, c.Load(cell)+1)
			c.Fence(home)
			c.Unlock(mu, rel)
			c.rec.end(id, t, i)
		}
		k.check = func(last int, _ time.Duration) int {
			// Every rank ran `last` cycles under this lock; a lost
			// update means two of them overlapped.
			if p.Rank() == lockHome && p.Load(cell) != int64(last*n)+skew() {
				return 1
			}
			return 0
		}
		return k
	}
	return mk("queue-lock cycle", spanOp, armci.LockQueue, spanLockAcquire, spanLockRelease),
		mk("hybrid-lock cycle", spanAlt, armci.LockHybrid, spanHybridAcquire, spanHybridRelease)
}

// --- rma-tcp2: a read round trip beside a coalesced write burst ---

const burstWords = 256

// rmaSetup builds op = one blocking 8 B Get from the right neighbour,
// alt = 256 8 B Puts to it and a Fence. The neighbour's buffer is written
// by this rank alone, so every Get must return what this rank's last
// fenced burst put there.
func rmaSetup(p *armci.Proc, seed int64, rec *recorder) (op, alt *kind) {
	c := &calls{p: p, rec: rec}
	me, n := p.Rank(), p.Size()
	bufs := p.Malloc(8 * burstWords)
	right, left := (me+1)%n, (me+n-1)%n
	node := p.NodeOf(right)
	// word w of burst j carries salt(rank)+j*burstWords+w.
	salt := func(rank int) uint64 { return uint64(seed)<<32 + uint64(rank)<<24 }
	word := make([]byte, 8)
	bursts := 0 // completed bursts by this rank (and, in lockstep, by the left one)
	burst := func() {
		bursts++
		base := salt(me) + uint64(bursts*burstWords)
		for w := 0; w < burstWords; w++ {
			binary.LittleEndian.PutUint64(word, base+uint64(w))
			c.Put(bufs[right].Add(int64(8*w)), word)
		}
		c.Fence(node)
	}
	// One burst before the first block, so the first Get has something to
	// verify.
	burst()
	p.MPIBarrier()

	misread := 0
	op = &kind{label: "8 B Get", b: 512, serial: 1}
	op.run = func(i int) {
		t := c.rec.begin()
		w := i % burstWords
		got := binary.LittleEndian.Uint64(c.Get(bufs[right].Add(int64(8*w)), 8))
		if got != salt(me)+uint64(bursts*burstWords+w)+uint64(skew()) {
			misread++
		}
		c.rec.end(spanOp, t, i)
	}
	op.check = func(int, time.Duration) int {
		bad := misread
		misread = 0
		return bad
	}
	alt = &kind{label: "256 x 8 B Put + Fence", b: 32, serial: 1}
	alt.run = func(i int) {
		t := c.rec.begin()
		burst()
		c.rec.end(spanAlt, t, i)
	}
	alt.check = func(int, time.Duration) int {
		// The left neighbour has completed as many bursts as this rank.
		local := p.Get(bufs[me], 8*burstWords)
		base := salt(left) + uint64(bursts*burstWords) + uint64(skew())
		for w := 0; w < burstWords; w++ {
			if binary.LittleEndian.Uint64(local[8*w:]) != base+uint64(w) {
				return 1
			}
		}
		return 0
	}
	return op, alt
}

// --- app-tcp4: two generated applications with their own oracles ---

const (
	stencilSpec     = "stencil:rows=64,cols=64,halo=1,steps=8"
	paramServerSpec = "paramserver:hot=0,updates=64,width=64"
)

// appSetup builds op = one stencil solve, alt = one parameter-server
// solve, each verified by the generated workload's exact oracle.
func appSetup(p *armci.Proc, seed int64, rec *recorder) (op, alt *kind) {
	c := &calls{p: p, rec: rec}
	mk := func(label, spec string, id spanID, b int) *kind {
		sp, err := gen.Parse(spec)
		if err != nil {
			panic(err)
		}
		failures := 0
		body := gen.Build(sp, gen.Config{
			Seed:   seed,
			Report: func(string, ...any) { failures++ },
		})
		k := &kind{label: label, b: b, serial: 1}
		k.run = func(i int) {
			t := c.rec.begin()
			body(p)
			c.rec.end(id, t, i)
		}
		k.check = func(int, time.Duration) int {
			bad := failures + int(skew())
			failures = 0
			return bad
		}
		return k
	}
	return mk("stencil solve", stencilSpec, spanOp, 1), mk("paramserver solve", paramServerSpec, spanAlt, 4)
}
