package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"armci"
	"armci/ga"
)

// spanID names a layer boundary the benchmark can time from outside: a
// call into a public function of one module.
type spanID uint8

const (
	spanOp  spanID = iota // one whole primary operation
	spanAlt               // one whole contrasting operation
	spanPut
	spanGet
	spanFence
	spanAllFence
	spanRmw
	spanStore
	spanAcc
	spanBarrier
	spanSyncOld
	spanLockAcquire
	spanLockRelease
	spanHybridAcquire
	spanHybridRelease
	spanMPIBarrier
	spanAllReduce
	spanGAGet
	spanGAPut
	spanGASync
	spanSyncOp          // the tour's puts to every peer + Barrier, as one
	spanLockUncontended // Lock+Unlock of a remote lock nobody else wants
	numSpanIDs
)

var spanNames = [numSpanIDs]string{
	spanOp: "op", spanAlt: "alt",
	spanPut: "proc.put_issue", spanGet: "proc.get", spanFence: "proc.fence",
	spanAllFence: "proc.allfence", spanRmw: "proc.rmw", spanStore: "proc.store",
	spanAcc: "proc.acc", spanBarrier: "core.barrier", spanSyncOld: "core.syncold",
	spanLockAcquire: "core.lock_acquire", spanLockRelease: "core.lock_release",
	spanHybridAcquire: "core.hybrid_acquire", spanHybridRelease: "core.hybrid_release",
	spanMPIBarrier: "collective.mpibarrier", spanAllReduce: "collective.allreduce",
	spanGAGet: "ga.get_patch", spanGAPut: "ga.put_patch", spanGASync: "ga.sync",
	spanSyncOp: "core.sync_op", spanLockUncontended: "core.lock_uncontended",
}

// span is one timed call: what, when (ns since the recorder started),
// inside which enclosing span (-1: none) and for which operation.
type span struct {
	id         spanID
	parent     int32
	op         int32
	start, end int64
}

// recorder keeps one rank's spans in memory; nothing is written until
// the run is over. A nil recorder records nothing, so the untraced run
// pays one nil check per call. It is used from its rank's goroutine only.
type recorder struct {
	t0      time.Time
	on      bool
	spans   []span
	open    []int32 // indices of the spans begun and not yet ended
	dropped int     // spans not kept because the buffer was full
}

// newRecorder allocates the whole span buffer before anything is
// timed; once capacity spans are kept, further ones are counted as
// dropped.
func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity), open: make([]int32, 0, 8)}
}

// begin opens a span and returns its handle (-1 when not recording).
func (r *recorder) begin() int32 {
	if r == nil || !r.on {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	h := int32(len(r.spans))
	r.spans = append(r.spans, span{parent: parent, start: int64(time.Since(r.t0))})
	r.open = append(r.open, h)
	return h
}

// end closes the span begin returned. Spans nest, so h is the innermost
// open one.
func (r *recorder) end(id spanID, h int32, op int) {
	if h < 0 {
		return
	}
	s := &r.spans[h]
	s.id, s.op, s.end = id, int32(op), int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// durationsUS returns the duration of every kept span of id, in µs.
func (r *recorder) durationsUS(id spanID) []float64 {
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.id == id && s.end != 0 {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// spanJSON is the span file's record.
type spanJSON struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
}

// write stores the spans as a JSON array under dir. Index i of the array
// is the value other spans' "parent" refers to.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	out := make([]spanJSON, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			s.op = out[s.parent].Op // a call belongs to the operation around it
		}
		out[i] = spanJSON{Name: spanNames[s.id], StartNS: s.start, EndNS: s.end, Parent: s.parent, Op: s.op}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	return path, os.WriteFile(path, data, 0o644)
}

// calls is how a workload reaches the public surface: each method is the
// plain call with a span around it.
type calls struct {
	p   *armci.Proc
	rec *recorder
}

func (c *calls) Put(dst armci.Ptr, data []byte) {
	t := c.rec.begin()
	c.p.Put(dst, data)
	c.rec.end(spanPut, t, 0)
}

func (c *calls) Get(src armci.Ptr, n int) []byte {
	t := c.rec.begin()
	b := c.p.Get(src, n)
	c.rec.end(spanGet, t, 0)
	return b
}

func (c *calls) Fence(node int) {
	t := c.rec.begin()
	c.p.Fence(node)
	c.rec.end(spanFence, t, 0)
}

func (c *calls) AllFence() {
	t := c.rec.begin()
	c.p.AllFence()
	c.rec.end(spanAllFence, t, 0)
}

func (c *calls) Load(ptr armci.Ptr) int64 {
	t := c.rec.begin()
	v := c.p.Load(ptr)
	c.rec.end(spanRmw, t, 0)
	return v
}

func (c *calls) Store(ptr armci.Ptr, v int64) {
	t := c.rec.begin()
	c.p.Store(ptr, v)
	c.rec.end(spanStore, t, 0)
}

func (c *calls) Accumulate(dst armci.Ptr, data []byte) {
	t := c.rec.begin()
	c.p.Accumulate(armci.AccInt64, dst, armci.Contig(len(data)), data, 1)
	c.rec.end(spanAcc, t, 0)
}

func (c *calls) Barrier() {
	t := c.rec.begin()
	c.p.Barrier()
	c.rec.end(spanBarrier, t, 0)
}

func (c *calls) SyncOld() {
	t := c.rec.begin()
	c.p.SyncOld()
	c.rec.end(spanSyncOld, t, 0)
}

func (c *calls) Lock(mu armci.Mutex, id spanID) {
	t := c.rec.begin()
	mu.Lock()
	c.rec.end(id, t, 0)
}

func (c *calls) Unlock(mu armci.Mutex, id spanID) {
	t := c.rec.begin()
	mu.Unlock()
	c.rec.end(id, t, 0)
}

func (c *calls) MPIBarrier() {
	t := c.rec.begin()
	c.p.MPIBarrier()
	c.rec.end(spanMPIBarrier, t, 0)
}

func (c *calls) AllReduce(vec []int64) {
	t := c.rec.begin()
	c.p.AllReduceSumInt64(vec)
	c.rec.end(spanAllReduce, t, 0)
}

func (c *calls) GAGet(a *ga.Array, rlo, rhi, clo, chi int) []float64 {
	t := c.rec.begin()
	v := a.Get(rlo, rhi, clo, chi)
	c.rec.end(spanGAGet, t, 0)
	return v
}

func (c *calls) GAPut(a *ga.Array, rlo, rhi, clo, chi int, buf []float64) {
	t := c.rec.begin()
	a.Put(rlo, rhi, clo, chi, buf)
	c.rec.end(spanGAPut, t, 0)
}

func (c *calls) GASync(a *ga.Array) {
	t := c.rec.begin()
	a.Sync()
	c.rec.end(spanGASync, t, 0)
}
