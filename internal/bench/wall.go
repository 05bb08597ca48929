package bench

import (
	"fmt"
	"time"

	"armci"
	"armci/internal/workload"
)

// wallOp is one operation of a wall-clock workload, counted on its own
// fabric: setup prepares a rank (collectively) and returns its run, one
// operation. serial marks an operation the ranks take one after another
// (a critical section), where each rank's is one; else one is every
// rank's at once (a sync, the ranks' gets side by side).
type wallOp struct {
	name   string
	opts   armci.Options
	serial bool
	setup  func(p *armci.Proc) (run func())
}

// wallRuns is how many operations every rank runs in a counted run.
const wallRuns = 8

// wallOps are the operations the wall-clock benchmark times, each as a
// copy of its workload's: what one such operation sends is fixed by the
// protocol, so these counts repeat exactly where the times do not. The
// queue-lock cycle of lock-chan4 is left out: its swaps race, and how
// many messages a hand-off takes depends on which rank wins.
var wallOps = []wallOp{
	{name: "sync-tcp4/op", opts: armci.Options{Procs: 4, Fabric: armci.FabricTCP}, setup: wallSync((*armci.Proc).Barrier)},
	{name: "sync-tcp4/alt", opts: armci.Options{Procs: 4, Fabric: armci.FabricTCP}, setup: wallSync((*armci.Proc).SyncOld)},
	{name: "lock-chan4/alt", opts: armci.Options{Procs: 4, Fabric: armci.FabricChan, NumMutexes: 1, LockHomes: []int{1}},
		serial: true, setup: wallHybridCycle},
	{name: "rma-tcp2/op", opts: armci.Options{Procs: 2, Fabric: armci.FabricTCP, Coalesce: armci.Coalesce{Enabled: true}}, setup: wallGet},
	{name: "rma-tcp2/alt", opts: armci.Options{Procs: 2, Fabric: armci.FabricTCP, Coalesce: armci.Coalesce{Enabled: true}}, setup: wallBurst},
	{name: "app-tcp4/op", opts: armci.Options{Procs: 4, Fabric: armci.FabricTCP}, setup: wallApp("stencil:rows=64,cols=64,halo=1,steps=8")},
	{name: "app-tcp4/alt", opts: armci.Options{Procs: 4, Fabric: armci.FabricTCP}, setup: wallApp("paramserver:hot=0,updates=64,width=64")},
}

// Wall counts, per operation of each of wallOps, the messages sent and
// the bytes they carried, and on tcp the socket writes (frames) that
// carried them: a run of wallRuns operations per rank less a run of none,
// divided by the operations. Every value is exact and repeats run after
// run, so each is gated: a count gates the mechanism, make benchpairs
// gates the time. The fabric options do not apply: each operation runs on
// the fabric its workload names, with no fault plan.
func Wall() (*Table, error) {
	t := &Table{
		Cols: []Col{
			{Key: "op", Head: "operation", Width: -16},
			{Key: "sends", Head: "sends/op", Width: 10, Prec: 2, Metric: "wall/{}/sends", Unit: "sends"},
			{Key: "bytes", Head: "bytes/op", Width: 12, Prec: 1, Metric: "wall/{}/bytes", Unit: "B"},
			{Key: "frames", Head: "frames/op", Width: 10, Prec: 2, Metric: "wall/{}/frames", Unit: "frames"},
		},
		Sections: []Section{{
			Title: fmt.Sprintf("Real fabrics: what one operation of each wall-clock workload sends (%d per rank, less a run of none)", wallRuns),
			Cols:  "op sends bytes frames",
		}},
		Notes: []string{"(frames: socket writes on tcp; \"-\": chan writes none)"},
	}
	for _, w := range wallOps {
		var got [2][3]float64
		for i, n := range []int{0, wallRuns} {
			o := w.opts
			o.Deadline = time.Minute
			rep, err := armci.Run(o, func(p *armci.Proc) {
				run := w.setup(p)
				p.MPIBarrier()
				for range n {
					run()
				}
				p.MPIBarrier()
			})
			if err != nil {
				return nil, fmt.Errorf("bench: wall %s: %w", w.name, err)
			}
			writes, _ := rep.Stats.LinkWrites()
			got[i] = [3]float64{float64(rep.Stats.Sends()), float64(rep.Stats.Bytes()), float64(writes)}
		}
		ops := float64(wallRuns)
		if w.serial {
			ops *= float64(w.opts.Procs)
		}
		row := []any{w.name, (got[1][0] - got[0][0]) / ops, (got[1][1] - got[0][1]) / ops, (got[1][2] - got[0][2]) / ops}
		if w.opts.Fabric != armci.FabricTCP {
			row[3] = "-"
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// wallSync is sync-tcp4's operation: a 64 B put to every peer, then sync.
func wallSync(sync func(*armci.Proc)) func(p *armci.Proc) func() {
	return func(p *armci.Proc) func() {
		me, n := p.Rank(), p.Size()
		slots := p.Malloc(64 * n)
		payload := make([]byte, 64)
		return func() {
			for q := 0; q < n; q++ {
				if q != me {
					p.Put(slots[q].Add(int64(64*me)), payload)
				}
			}
			sync(p)
		}
	}
}

// wallHybridCycle is lock-chan4's alt: a hybrid-lock critical section
// that loads, stores and fences a counter at the lock's home.
func wallHybridCycle(p *armci.Proc) func() {
	cell := p.MallocWords(1)[1]
	home := p.NodeOf(1)
	mu := p.Mutex(0, armci.LockHybrid)
	return func() {
		mu.Lock()
		p.Store(cell, p.Load(cell)+1)
		p.Fence(home)
		mu.Unlock()
	}
}

// wallGet is rma-tcp2's op: one blocking 8 B Get from the right neighbour.
func wallGet(p *armci.Proc) func() {
	bufs := p.Malloc(8)
	right := (p.Rank() + 1) % p.Size()
	return func() { p.Get(bufs[right], 8) }
}

// wallBurst is rma-tcp2's alt: 256 coalesced 8 B puts to the right
// neighbour, then a Fence.
func wallBurst(p *armci.Proc) func() {
	const words = 256
	bufs := p.Malloc(8 * words)
	right := (p.Rank() + 1) % p.Size()
	node := p.NodeOf(right)
	word := make([]byte, 8)
	return func() {
		for w := 0; w < words; w++ {
			p.Put(bufs[right].Add(int64(8*w)), word)
		}
		p.Fence(node)
	}
}

// wallApp is one of app-tcp4's solves: the generated workload of spec,
// its oracle armed.
func wallApp(spec string) func(p *armci.Proc) func() {
	sp, err := workload.Parse(spec)
	if err != nil {
		panic(err)
	}
	return func(p *armci.Proc) func() {
		body := workload.Build(sp, workload.Config{Seed: 1})
		return func() { body(p) }
	}
}
