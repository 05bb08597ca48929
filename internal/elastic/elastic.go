// Package elastic is the recovery subsystem over the cluster runtime:
// it turns rank crashes into recoveries by pairing a deterministic
// replicated workload with membership views, Space replication and a
// respawn path.
//
// Every rank streams the dirty-page delta of its protected memory to a
// deterministic peer — rank r replicates to p(r) = (r+1) mod n and holds
// the shadow of its left neighbor l(r) = (r-1+n) mod n — at every sync
// epoch, using the coalesced KindBatch frame format of the wire layer.
// When a worker process dies under armci-run -elastic, the launch
// coordinator bumps the membership view epoch, respawns the dead node
// with a higher incarnation number, and drives the recovery protocol:
// survivors roll back (or forward) to the last cluster-committed epoch,
// the newcomer rebuilds its Space from the replica its right neighbor
// holds, in-flight traffic of the aborted epoch is fenced by the
// pipeline's view-epoch stamp, every rank rebases its collectives to the
// new view, and everyone resumes from the last completed sync epoch. On
// the in-process fabrics the same protocol runs with a cooperative crash
// emulation (wipe-and-restore), so the recovery arithmetic is testable
// deterministically on the simulator.
//
// The step protocol, per sync epoch e (committed state is epoch e-1):
//
//	body(e)                  deterministic commutative mutations
//	barrier A                every step-e mutation applied everywhere
//	capture delta; put blob into peer staging; store header len then
//	epoch (header-last); fence peer; barrier B
//	apply own staging to own shadow; snapshot; committed = e; barrier C
//
// Barrier A is the only one that must fence: it is the paper's combined
// fence and barrier in-process and AllFence plus the plain barrier under
// armci-run -elastic (newRunner says why). Every other barrier, here and
// in recovery, is the plain collective barrier: the puts it orders were
// fenced before it, or what it orders is local. Barrier B guarantees
// every rank's staging holds its left neighbor's epoch-e delta before
// anyone applies; barrier C keeps epoch e+1 puts out of staging areas
// still being applied. On recovery, "max survivor committed" R is
// well-defined to within one epoch: a rank at R-1 is provably between
// barrier B of epoch R and its commit, so its memory already holds the
// full epoch-R state and it rolls forward by completing the commit; a
// rank at R rolls back to its snapshot.
package elastic

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"armci"
	"armci/internal/core"
	"armci/internal/shmem"
	"armci/internal/transport"
	"armci/internal/wire"
)

// Config parameterizes one elastic-replication run. The injected crash
// is the run's fault plan: its crashrank knob (Faults.ElasticCrashRank
// and ElasticCrashStep) kills that rank partway through that sync epoch.
type Config struct {
	// Steps is the number of sync epochs of useful work (0: 6).
	Steps int
	// Seed varies the operation mix (targets, cells, addends).
	Seed int64
	// NoRepl disables the replication machinery entirely: each step is
	// body + barrier A, nothing captured, streamed or snapshotted. The
	// benchmark layer prices the steady-state replication overhead by
	// comparing against this variant. It cannot combine with a crash —
	// there is no replica to recover from.
	NoRepl bool
	// SkipRollback arms the repl-stale-epoch mutation: survivors skip
	// the rollback to the resume epoch and keep the aborted epoch's
	// partial writes, so re-execution double-applies fetch-adds. The
	// conformance harness proves the state oracle catches this.
	SkipRollback bool
}

// SlotBytes is the per-writer slot width of the protected byte buffer:
// rank r owns slot r of every buffer it writes, so byte puts from
// different ranks never overlap and the workload stays commutative.
const SlotBytes = 16

// Result is what every rank returns from Run. After a correct run the
// Fingerprint — the cluster-wide digest of all protected memory in rank
// order — is identical on every rank and equal to the crash-free run's.
type Result struct {
	// Fingerprint is the cluster digest (identical on all ranks).
	Fingerprint uint64
	// Recovered reports whether this rank participated in a recovery.
	Recovered bool
	// Incarnation is the worker's spawn count (procnet only; 0 on the
	// in-process fabrics and for never-crashed workers).
	Incarnation uint32
	// RecoveryTime is the span this rank spent inside the recovery
	// protocol, crash detection to the end of the re-establish
	// checkpoint — deterministic virtual time on the sim fabric, wall
	// time elsewhere. Zero when no recovery happened.
	RecoveryTime time.Duration
}

// The workload's fixed shape: each rank's protected state is rows int64
// cells, the target of the remote fetch-adds, plus a byte buffer of one
// SlotBytes slot per rank; each rank issues ops fetch-adds per step.
const (
	rows = 3 * shmem.PageWords
	ops  = 8
)

// sized fills the unset Steps; Run and Oracle both start from it.
func (c *Config) sized() {
	if c.Steps == 0 {
		c.Steps = 6
	}
}

// runner is the per-rank protocol state. The pointer vectors hold one
// base pointer per rank for every piece of the layout. Protected
// segments are allocated before Protect, replica machinery after
// (excluded from tracking, capture, snapshot and rollback).
type runner struct {
	p     *armci.Proc
	cfg   Config
	space *shmem.Space
	n     int
	rank  int
	peer  int // (rank+1)%n — where this rank's replica lives
	left  int // (rank-1+n)%n — whose replica this rank holds

	// The injected crash (crashStep 0: none), from the fault plan.
	crashRank, crashStep int

	settle func() // barrier A: the body's writes applied everywhere

	stateW  []armci.Ptr // word: rows cells of fetch-add state       (protected)
	stateB  []armci.Ptr // byte: n SlotBytes slots, one per writer   (protected)
	shadowE []armci.Ptr // word: 1 cell, sync epoch of the shadow
	hdr     []armci.Ptr // word: 2 cells, staging header [len, epoch]
	fp      []armci.Ptr // word: n+1 cells, fingerprint exchange
	shadow  []armci.Ptr // byte: left neighbor's replica, words then bytes
	staging []armci.Ptr // byte: incoming delta blob from left neighbor

	committed uint64
	snap      *shmem.RankSnapshot
	recovered bool
	recoveryT time.Duration
}

// Run executes the elastic-replication workload on p's fabric. Under
// armci-run -elastic it survives a real worker kill at the configured
// crash step; on the in-process fabrics the crash is emulated
// cooperatively. The returned fingerprint equals the crash-free run's
// on every fabric.
func Run(p *armci.Proc, cfg Config) Result {
	cfg.sized()
	if f := p.Env().Faults(); f.ElasticCrashStep > cfg.Steps {
		panic(fmt.Sprintf("elastic: crash epoch %d beyond Steps %d", f.ElasticCrashStep, cfg.Steps))
	} else if cfg.NoRepl && f.ElasticCrashStep > 0 {
		panic("elastic: NoRepl cannot combine with a crash — there is no replica to recover from")
	}
	if ee, ok := p.Env().(transport.ElasticEnv); ok && ee.ElasticEnabled() {
		return newRunner(p, cfg, true).runElastic(ee)
	}
	return newRunner(p, cfg, false).runEmulated()
}

// newRunner lays the per-rank memory out and builds the pointer
// vectors. In-process (symmetric=false) the bases come from the
// collective allocator's pointer exchange, which tolerates any
// asymmetry in what the runtime allocated before us (lock homes, trace
// buffers). Under the real recovery machinery (symmetric=true) a
// respawned incarnation cannot join allocation exchanges that ran before
// it existed, so the vectors are built by SPMD symmetry: the elastic
// launch pins one rank per node running this exact sequence of local
// allocations, making every rank's layout identical.
func newRunner(p *armci.Proc, cfg Config, symmetric bool) *runner {
	n := p.Size()
	f := p.Env().Faults()
	r := &runner{
		p: p, cfg: cfg, space: p.Env().Space(),
		n: n, rank: p.Rank(), peer: (p.Rank() + 1) % n, left: (p.Rank() - 1 + n) % n,
		crashRank: f.ElasticCrashRank % n, crashStep: f.ElasticCrashStep,
		settle: p.Barrier,
	}
	if symmetric {
		// The combined barrier's op_init/op_done counters are cumulative
		// for the life of a run, but a respawned server restarts op_done
		// at 0, and the frames fenceView drops were counted in op_init and
		// never applied: across a view change the counters are wrong. So
		// under the real recovery machinery barrier A fences explicitly.
		r.settle = p.SyncOld
	}
	words := func(count int) []armci.Ptr {
		if !symmetric {
			return p.MallocWords(count)
		}
		return mirror(p.MallocWordsLocal(count), n)
	}
	bytes := func(count int) []armci.Ptr {
		if !symmetric {
			return p.Malloc(count)
		}
		return mirror(p.MallocLocal(count), n)
	}
	// Protected application state.
	r.stateW = words(rows)
	r.stateB = bytes(SlotBytes * n)
	// Protect only the window just allocated: segments below it are
	// runtime internals (live synchronization state that must never be
	// captured or rolled back), segments after it the replica machinery.
	r.space.ProtectRange(r.rank, int(r.stateW[r.rank].Seg)-1, int(r.stateB[r.rank].Seg)-1)
	// Replica machinery, outside the protected set.
	r.shadowE = words(1)
	r.hdr = words(2)
	r.fp = words(n + 1)
	r.shadow = bytes(r.shadowLen())
	r.staging = bytes(r.stagingCap())
	// The all-zero initial shadow is a correct replica of the all-zero
	// initial protected state: epoch 0 is committed from the start.
	r.snap = r.space.Snapshot(r.rank, 0)
	return r
}

// mirror projects one rank's fresh local allocation onto every rank by
// SPMD symmetry.
func mirror(mine armci.Ptr, n int) []armci.Ptr {
	vec := make([]armci.Ptr, n)
	for q := range vec {
		vec[q] = mine
		vec[q].Rank = int32(q)
	}
	return vec
}

// shadowLen is the shadow byte-segment size: the left neighbor's full
// protected set, word cells as raw little-endian first, bytes after.
func (r *runner) shadowLen() int { return 8*rows + SlotBytes*r.n }

// stagingCap bounds the delta blob: batch header + one entry per
// worst-case alternating dirty page + full payload.
func (r *runner) stagingCap() int {
	pages := (rows+shmem.PageWords-1)/shmem.PageWords +
		(SlotBytes*r.n+shmem.PageBytes-1)/shmem.PageBytes
	return 8 + 40*(pages+2) + r.shadowLen()
}

// shadowOff maps a pointer into this rank's protected set to its
// offset in the shadow segment replicating it (word cells as raw
// little-endian first, bytes after).
func (r *runner) shadowOff(p shmem.Ptr) int64 {
	if p.Kind == shmem.KindWord {
		if p.Seg != r.stateW[r.rank].Seg {
			panic(fmt.Sprintf("elastic: delta range in unexpected word segment %d", p.Seg))
		}
		return 8 * p.Off
	}
	if p.Seg != r.stateB[r.rank].Seg {
		panic(fmt.Sprintf("elastic: delta range in unexpected byte segment %d", p.Seg))
	}
	return 8*rows + p.Off
}

// --- deterministic workload ---

// mix is a splitmix64-style hash: the whole operation stream is a pure
// function of (seed, epoch, rank, op), so re-execution after a rollback
// replays identical mutations.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v * 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 29
	}
	return h
}

// body runs this rank's epoch-e mutations: ops remote fetch-adds into
// commutative targets, then one put of this rank's slot into a rotating
// peer's byte buffer. With partial set (the crashing rank), only the
// first half of the fetch-adds run and the put is skipped — the state a
// mid-body crash leaves behind.
func (r *runner) body(e uint64, partial bool) {
	seed := uint64(r.cfg.Seed)
	count := ops
	if partial {
		count = ops / 2
	}
	for k := 0; k < count; k++ {
		h := mix(seed, e, uint64(r.rank), uint64(k))
		target := int(h % uint64(r.n))
		cell := int64((h >> 16) % rows)
		add := int64(1 + (h>>40)%7)
		r.p.FetchAdd(r.stateW[target].Add(cell), add)
	}
	if partial {
		return
	}
	target := (r.rank + int(e)) % r.n
	var slot [SlotBytes]byte
	binary.LittleEndian.PutUint64(slot[:], mix(seed, e, uint64(r.rank), 1e9))
	binary.LittleEndian.PutUint64(slot[8:], mix(seed, e, uint64(r.rank), 2e9))
	r.p.Put(r.stateB[target].Add(int64(SlotBytes*r.rank)), slot[:])
}

// --- replication ---

// blob encodes delta ranges of this rank's protected memory as a batch
// of puts into the peer's shadow segment — the receiver decodes and
// applies them locally with WriteRaw.
func (r *runner) blob(deltas []shmem.DeltaRange) []byte {
	if len(deltas) == 0 {
		return nil
	}
	entries := make([]wire.BatchEntry, 0, len(deltas))
	for _, d := range deltas {
		entries = append(entries, wire.BatchEntry{
			Op:   wire.BatchPut,
			Ptr:  r.shadow[r.peer].Add(r.shadowOff(d.Ptr)),
			Data: d.Data,
		})
	}
	return wire.EncodeBatch(entries)
}

// stream ships blob into the peer's staging area and publishes the
// header, epoch last: per-pair FIFO to the peer's server plus the
// header-last ordering make a torn staging write unobservable. The
// fence guarantees remote completion before the caller's next barrier.
func (r *runner) stream(blob []byte, epoch uint64) {
	if len(blob) > r.stagingCap() {
		panic(fmt.Sprintf("elastic: delta blob of %d bytes exceeds staging capacity %d", len(blob), r.stagingCap()))
	}
	if len(blob) > 0 {
		r.p.Put(r.staging[r.peer], blob)
	}
	r.p.Store(r.hdr[r.peer], int64(len(blob)))
	r.p.Store(r.hdr[r.peer].Add(1), int64(epoch))
	r.p.Fence(r.p.NodeOf(r.peer))
}

// applyStaging applies the staged left-neighbor delta to the local
// shadow and stamps the shadow epoch. The caller synchronizes (barrier
// B or the recovery barriers), so the header is final here.
func (r *runner) applyStaging(epoch uint64) {
	gotEpoch := uint64(r.p.Load(r.hdr[r.rank].Add(1)))
	if gotEpoch != epoch {
		panic(fmt.Sprintf("elastic: rank %d staging holds epoch %d, want %d", r.rank, gotEpoch, epoch))
	}
	if ln := r.p.Load(r.hdr[r.rank]); ln > 0 {
		raw := r.space.ReadRaw(r.staging[r.rank], int(ln))
		entries, err := wire.DecodeBatch(raw)
		if err != nil {
			panic(fmt.Sprintf("elastic: rank %d staged blob corrupt: %v", r.rank, err))
		}
		for _, en := range entries {
			if int(en.Ptr.Rank) != r.rank || en.Ptr.Kind != shmem.KindByte || en.Ptr.Seg != r.shadow[r.rank].Seg {
				panic(fmt.Sprintf("elastic: rank %d staged entry targets %v, not the local shadow", r.rank, en.Ptr))
			}
			r.space.WriteRaw(en.Ptr, en.Data)
		}
	}
	r.p.Store(r.shadowE[r.rank], int64(epoch))
}

// step runs one sync epoch to commit; re-execution after a recovery
// runs it again from the body.
func (r *runner) step(e uint64) {
	r.body(e, false)
	r.settle() // A
	if r.cfg.NoRepl {
		r.committed = e
		return
	}
	blob := r.blob(r.space.CaptureDelta(r.rank, true))
	r.stream(blob, e)
	r.p.MPIBarrier() // B: the staged deltas, fenced by stream
	r.applyStaging(e)
	r.snap = r.space.Snapshot(r.rank, e)
	r.committed = e
	r.p.MPIBarrier() // C: the local applies, before epoch e+1 stages
}

// reestablish runs a full checkpoint at epoch e: every rank streams its
// entire protected set, so a respawned rank's empty shadow is rebuilt
// from nothing. Survivor shadows are overwritten with identical state.
func (r *runner) reestablish(e uint64) {
	blob := r.blob(r.space.CaptureFull(r.rank, true))
	r.stream(blob, e)
	r.p.MPIBarrier() // the full blobs, fenced by stream
	r.applyStaging(e)
	r.p.MPIBarrier() // the local applies, before the resumed epoch stages
}

// repairLeases sweeps the run's lock table (when it has one) for leases
// still registered to the dead rank, freeing each with the lease lock's
// epoch-advancing CAS and waking queued successors — rejoin-time lease
// restamp, so re-executed critical sections need not wait out a TTL.
func (r *runner) repairLeases(dead int) {
	t := r.p.Locks()
	if t == nil {
		return
	}
	core.RepairLeasesHeldBy(r.p.Engine(), t, dead)
}

// restoreFromPeer rebuilds this rank's protected memory from the
// replica its right neighbor holds, verifying the shadow is at the
// resume epoch, and commits the restored state.
func (r *runner) restoreFromPeer(resume uint64) {
	if se := uint64(r.p.Load(r.shadowE[r.peer])); se != resume {
		panic(fmt.Sprintf("elastic: rank %d replica on rank %d is at epoch %d, want %d", r.rank, r.peer, se, resume))
	}
	buf := r.p.Get(r.shadow[r.peer], r.shadowLen())
	r.space.WriteRaw(r.stateW[r.rank], buf[:8*rows])
	r.space.WriteRaw(r.stateB[r.rank], buf[8*rows:])
	r.snap = r.space.Snapshot(r.rank, resume)
	r.committed = resume
}

// --- fingerprint ---

const fnvOffset, fnvPrime = uint64(0xcbf29ce484222325), uint64(0x100000001b3)

// fnvFold folds b into an FNV-1a running digest.
func fnvFold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// localFp hashes this rank's protected memory (FNV-1a over the raw
// little-endian serialization).
func (r *runner) localFp() uint64 {
	h := fnvFold(fnvOffset, r.space.ReadRaw(r.stateW[r.rank], 8*rows))
	return fnvFold(h, r.space.ReadRaw(r.stateB[r.rank], SlotBytes*r.n))
}

// fingerprint combines every rank's local digest into one cluster
// digest with one-sided stores between two plain barriers. Each rank
// stores its digest into rank 0's exchange vector; rank 0 folds them in
// rank order and stores the result back into every rank's last cell.
func (r *runner) fingerprint() uint64 {
	r.p.Store(r.fp[0].Add(int64(r.rank)), int64(r.localFp()))
	r.p.Fence(r.p.NodeOf(0))
	r.p.MPIBarrier() // every digest on rank 0, fenced above
	if r.rank == 0 {
		h := fnvOffset
		for q := 0; q < r.n; q++ {
			v := uint64(r.p.Load(r.fp[0].Add(int64(q))))
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h = fnvFold(h, b[:])
		}
		for q := 0; q < r.n; q++ {
			r.p.Store(r.fp[q].Add(int64(r.n)), int64(h))
		}
		r.p.AllFence()
	}
	r.p.MPIBarrier() // the cluster digest everywhere, fenced by rank 0
	return uint64(r.p.Load(r.fp[r.rank].Add(int64(r.n))))
}

// Oracle computes the crash-free cluster fingerprint of cfg on n ranks
// without running anything: the workload's operation stream is a pure
// function of (seed, epoch, rank, op), so replaying it against local
// model arrays yields the exact state every correct run — crash-free or
// recovered — must converge to. Launchers and the conformance harness
// verify results against it with no reference execution.
func Oracle(cfg Config, n int) uint64 {
	cfg.sized()
	words := make([][]int64, n)
	bufs := make([][]byte, n)
	for q := 0; q < n; q++ {
		words[q] = make([]int64, rows)
		bufs[q] = make([]byte, SlotBytes*n)
	}
	seed := uint64(cfg.Seed)
	for e := uint64(1); e <= uint64(cfg.Steps); e++ {
		for q := 0; q < n; q++ {
			for k := 0; k < ops; k++ {
				h := mix(seed, e, uint64(q), uint64(k))
				words[h%uint64(n)][(h>>16)%rows] += int64(1 + (h>>40)%7)
			}
			// Epochs replay in order, so last-writer-wins falls out of
			// the iteration.
			target := (q + int(e)) % n
			binary.LittleEndian.PutUint64(bufs[target][SlotBytes*q:], mix(seed, e, uint64(q), 1e9))
			binary.LittleEndian.PutUint64(bufs[target][SlotBytes*q+8:], mix(seed, e, uint64(q), 2e9))
		}
	}
	h := fnvOffset
	for q := 0; q < n; q++ {
		lq := fnvOffset
		var b [8]byte
		for _, v := range words[q] {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			lq = fnvFold(lq, b[:])
		}
		lq = fnvFold(lq, bufs[q])
		binary.LittleEndian.PutUint64(b[:], lq)
		h = fnvFold(h, b[:])
	}
	return h
}

// --- emulated crash (sim / chan / tcp) ---

// runEmulated drives the workload with a cooperative crash: at the
// crash step the victim executes only a partial body, every rank meets
// at barrier A (standing in for crash detection), the victim wipes its
// protected memory and restores it from the peer replica through real
// remote gets, survivors roll back, and a full re-establish checkpoint
// rebuilds the shadows before the steps re-execute. In-process every
// rank stays alive, so no view changes and no collective is rebased.
func (r *runner) runEmulated() Result {
	// No remote op may land before every rank has protected and
	// snapshotted its segments.
	r.p.MPIBarrier()
	crashed := false
	for e := uint64(1); e <= uint64(r.cfg.Steps); e++ {
		if r.crashStep > 0 && e == uint64(r.crashStep) && !crashed {
			crashed = true
			victim := r.rank == r.crashRank
			r.body(e, victim)
			r.settle() // all partial-epoch mutations applied: "crash detected"
			recT0 := r.p.Now()
			resume := e - 1
			if victim {
				r.space.WipeProtected(r.rank)
				r.restoreFromPeer(resume)
			} else {
				r.repairLeases(r.crashRank)
				if !r.cfg.SkipRollback {
					r.space.Restore(r.rank, r.snap)
				}
			}
			r.p.MPIBarrier() // restored: the victim's gets block, rollbacks are local
			r.reestablish(resume)
			r.committed = resume
			r.recovered = true
			r.recoveryT = r.p.Now() - recT0
		}
		r.step(e)
	}
	return Result{Fingerprint: r.fingerprint(), Recovered: r.recovered, RecoveryTime: r.recoveryT}
}

// --- real crash (procnet under armci-run -elastic) ---

// runElastic drives the workload over the real recovery machinery: the
// victim worker exits mid-body, the coordinator detects the connection
// loss, bumps the view and respawns; survivors are thrown out of their
// blocking calls with a ViewInterrupt and converge on the resume epoch
// with the respawned incarnation.
func (r *runner) runElastic(ee transport.ElasticEnv) Result {
	if r.p.Env().NumNodes() != r.n {
		panic(fmt.Sprintf("elastic: %d ranks on %d nodes — elastic recovery needs one rank per node", r.n, r.p.Env().NumNodes()))
	}
	inc := ee.Incarnation()
	if inc > 0 {
		// Respawned incarnation: no step state exists; join the
		// in-progress recovery directly. (Survivors cannot aim a remote
		// op at this rank before it allocates: their AwaitResume returns
		// only once this rank acked the view, which it does after
		// newRunner laid the segments out.)
		r.recoverVictim(ee)
	} else {
		// Allocation is purely local; no remote op may land before
		// every rank has laid out its segments.
		r.p.MPIBarrier()
	}
	for e := r.committed + 1; e <= uint64(r.cfg.Steps); e++ {
		crashHere := inc == 0 && r.crashStep > 0 &&
			r.rank == r.crashRank && e == uint64(r.crashStep)
		if r.guarded(func() { r.stepElastic(e, crashHere) }) {
			r.recoverSurvivor(ee)
		}
		e = r.committed
	}
	return Result{Fingerprint: r.fingerprint(), Recovered: r.recovered, Incarnation: inc, RecoveryTime: r.recoveryT}
}

// stepElastic is step with the real crash injection: the victim's
// worker process exits mid-body, taking its server (and its whole Space
// replica) with it.
func (r *runner) stepElastic(e uint64, crashHere bool) {
	if crashHere {
		r.body(e, true)
		os.Exit(3)
	}
	r.step(e)
}

// guarded runs fn and reports whether a membership change aborted it
// (a ViewInterrupt); every other panic propagates.
func (r *runner) guarded(fn func()) (interrupted bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := transport.AsViewInterrupt(p); !ok {
				panic(p)
			}
			interrupted = true
		}
	}()
	fn()
	return false
}

// resumeView acknowledges the view with this rank's committed sync epoch
// and waits for the coordinator's hand-off. AwaitResume returns only once
// every node acked, so every node has passed fenceView and dropped the
// old view's frames; the rebase then puts every rank's collectives on the
// new view's tags, however many of the old view's each had completed.
func (r *runner) resumeView(ee transport.ElasticEnv, committed uint64) (dead int, resume uint64) {
	ee.AckView(committed)
	dead, resume = ee.AwaitResume()
	r.p.Comm().Rebase(ee.ViewEpoch())
	return dead, resume
}

// recoverSurvivor converges a surviving rank on the cluster resume
// epoch after a view change. AckView first: it fences the aborted
// epoch's traffic (epoch bump, mailbox purge, dead-pair reset) and
// reports this rank's committed sync epoch for the coordinator's resume
// computation.
func (r *runner) recoverSurvivor(ee transport.ElasticEnv) {
	recT0 := r.p.Now()
	dead, resume := r.resumeView(ee, r.committed)
	r.repairLeases(dead)
	switch {
	case r.committed == resume:
		// Possibly mid-body of the aborted epoch: roll back to the
		// replicated snapshot (clears the dirty set with it).
		if !r.cfg.SkipRollback {
			r.space.Restore(r.rank, r.snap)
		}
	case r.committed == resume-1:
		// Provably between barrier B of the resume epoch and the
		// commit: memory already holds the full epoch, the staged
		// delta is fully delivered (its writer fenced before B) —
		// complete the commit instead of rolling back.
		r.applyStaging(resume)
		r.snap = r.space.Snapshot(r.rank, resume)
		r.committed = resume
	default:
		panic(fmt.Sprintf("elastic: rank %d committed %d cannot reach resume epoch %d", r.rank, r.committed, resume))
	}
	r.rejoin(resume, false, recT0)
}

// recoverVictim is the respawned incarnation's entry: acknowledge the
// view it was spawned under, learn the resume epoch, rebuild protected
// memory from the peer replica and rejoin the full checkpoint.
func (r *runner) recoverVictim(ee transport.ElasticEnv) {
	recT0 := r.p.Now()
	dead, resume := r.resumeView(ee, 0)
	if dead != r.rank {
		panic(fmt.Sprintf("elastic: respawned rank %d told node %d is the replaced slot", r.rank, dead))
	}
	r.rejoin(resume, true, recT0)
}

// rejoin is the recovery every rank of the new view runs once its own
// state is at resume: the respawn restores itself from its replica
// between the first two barriers, then a full checkpoint rebuilds every
// shadow.
func (r *runner) rejoin(resume uint64, respawned bool, recT0 time.Duration) {
	r.p.MPIBarrier() // survivors converged: rollbacks and commits are local
	if respawned {
		r.restoreFromPeer(resume)
	}
	r.p.MPIBarrier() // the respawn restored: its gets block
	r.reestablish(resume)
	r.committed = resume
	r.recovered = true
	r.recoveryT = r.p.Now() - recT0
}
