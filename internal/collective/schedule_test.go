package collective

import (
	"fmt"
	"math/big"
	"testing"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/trace"
	"armci/internal/transport"
)

// stubEnv answers only what building a schedule asks of an Env — the
// cluster's shape; any other call hits the nil embedded Env and panics.
type stubEnv struct {
	transport.Env
	n, me, ppn int
}

func (e stubEnv) Size() int      { return e.n }
func (e stubEnv) Rank() int      { return e.me }
func (e stubEnv) Node(r int) int { return r / e.ppn }

// shapeName extends BarrierAlg's names to the two reduction-only shapes.
func shapeName(sh BarrierAlg) string {
	switch sh {
	case exchange:
		return "exchange"
	case hierReduce:
		return "hier-reduce"
	}
	return sh.String()
}

// checkSchedules builds every rank's schedule for sh with no fabric and
// executes them against in-memory FIFOs, one per (src, dst, phase). Each
// rank starts with the value rank+1 and the knowledge that it alone has
// entered; a message carries its sender's current value and knowledge.
// The schedules pair up when every rank finishes and no message is left
// over; they are a barrier when every rank leaves knowing that all have
// entered; they are a reduction when every rank leaves with the exact sum.
func checkSchedules(t *testing.T, sh BarrierAlg, n, ppn, radix int) {
	t.Helper()
	type flight struct {
		sum  int64
		seen *big.Int
	}
	type key struct{ src, dst, phase int }
	scheds := make([][]step, n)
	sum := make([]int64, n)
	seen := make([]*big.Int, n)
	for me := range scheds {
		c := New(stubEnv{n: n, me: me, ppn: ppn})
		c.SetRadix(radix)
		scheds[me] = c.schedule(sh)
		sum[me] = int64(me + 1)
		seen[me] = new(big.Int).SetBit(new(big.Int), me, 1)
	}
	fifo := make(map[key][]flight)
	pc := make([]int, n)
	for progress := true; progress; {
		progress = false
		for me, steps := range scheds {
			for ; pc[me] < len(steps); pc[me]++ {
				s := steps[pc[me]]
				if s.op == send {
					k := key{me, s.peer, s.phase}
					fifo[k] = append(fifo[k], flight{sum[me], new(big.Int).Set(seen[me])})
					progress = true
					continue
				}
				k := key{s.peer, me, s.phase}
				q := fifo[k]
				if len(q) == 0 {
					break // blocked until the peer sends
				}
				if fifo[k] = q[1:]; len(q) == 1 {
					delete(fifo, k)
				}
				if s.op == recvAdd {
					sum[me] += q[0].sum
				} else {
					sum[me] = q[0].sum
				}
				seen[me].Or(seen[me], q[0].seen)
				progress = true
			}
		}
	}
	where := fmt.Sprintf("%s n=%d ppn=%d radix=%d", shapeName(sh), n, ppn, radix)
	for k, q := range fifo {
		t.Fatalf("%s: %d message(s) %d→%d phase %d never received", where, len(q), k.src, k.dst, k.phase)
	}
	everyone := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(n)), big.NewInt(1))
	reduces := sh == exchange || sh == BarrierKnomial || sh == hierReduce
	for me, steps := range scheds {
		if pc[me] < len(steps) {
			s := steps[pc[me]]
			t.Fatalf("%s: rank %d waits forever at step %d for rank %d phase %d", where, me, pc[me], s.peer, s.phase)
		}
		if seen[me].Cmp(everyone) != 0 {
			t.Fatalf("%s: rank %d leaves before every rank has entered (knows of %b)", where, me, seen[me])
		}
		if want := int64(n) * int64(n+1) / 2; reduces && sum[me] != want {
			t.Fatalf("%s: rank %d holds %d, want the sum %d", where, me, sum[me], want)
		}
	}
}

// TestSchedulesPairUp checks the schedules as data: every shape, every
// size to 40 (pairwise: powers of two), over node layouts and radices,
// and the tree shapes once at the size of the largest sweep.
func TestSchedulesPairUp(t *testing.T) {
	for sh := BarrierPairwise; sh < numShapes; sh++ {
		for n := 1; n <= 40; n++ {
			if sh == BarrierPairwise && n&(n-1) != 0 {
				continue
			}
			for _, ppn := range []int{1, 2, 3, 8} {
				for _, radix := range []int{2, 3, 4} {
					checkSchedules(t, sh, n, ppn, radix)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, sh := range []BarrierAlg{BarrierKnomial, BarrierHierarchical, hierReduce} {
		checkSchedules(t, sh, 4096, 8, DefaultRadix)
	}
}

// TestSetRadixRebuildsSchedule: schedules are cached, so a SetRadix after
// the first k-nomial barrier must drop them. A tree barrier moves 2(N−1)
// messages at every radix; what the radix changes is the fan-in, so count
// the root's receives: 4 children at radix 2 over 16 ranks, 6 at radix 4.
func TestSetRadixRebuildsSchedule(t *testing.T) {
	const procs = 16
	stats := trace.New()
	stats.SetTimeline(true)
	runCluster(t, procs, model.Zero(), stats, func(env transport.Env, c *Comm) {
		c.SetRadix(2)
		c.Barrier(BarrierKnomial)
		c.SetRadix(4)
		c.Barrier(BarrierKnomial)
	})
	toRoot := 0
	for _, e := range stats.Timeline() {
		if e.Kind == msg.KindColl && e.Dst == msg.User(0) {
			toRoot++
		}
	}
	_, at2 := KnomialTree(procs, 0, 2)
	_, at4 := KnomialTree(procs, 0, 4)
	if want := len(at2) + len(at4); toRoot != want || len(at2) == len(at4) {
		t.Fatalf("root received %d messages over a radix-2 then a radix-4 barrier, want %d+%d", toRoot, len(at2), len(at4))
	}
}
