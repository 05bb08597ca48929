package collective

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/trace"
	"armci/internal/transport"
)

// runCluster executes body on every rank of a simulated cluster and
// returns the fabric for post-run inspection.
func runCluster(t *testing.T, procs int, params model.Params, stats *trace.Stats,
	body func(env transport.Env, c *Comm)) *transport.SimFabric {
	t.Helper()
	f, err := transport.NewSim(transport.Config{Procs: procs, Model: params, Trace: stats})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < procs; r++ {
		f.SpawnUser(r, func(env transport.Env) {
			body(env, New(env))
		})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBarrierSafety is the fundamental barrier invariant, checkable
// exactly on the virtual clock: no process may leave the barrier before
// the last process has entered it.
func TestBarrierSafety(t *testing.T) {
	algs := []BarrierAlg{BarrierPairwise, BarrierDissemination, BarrierCentral}
	for _, alg := range algs {
		for _, procs := range []int{2, 4, 8, 16} {
			t.Run(fmt.Sprintf("%v/procs=%d", alg, procs), func(t *testing.T) {
				enter := make([]time.Duration, procs)
				exit := make([]time.Duration, procs)
				runCluster(t, procs, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
					// Deterministic skew so ranks arrive at different times.
					env.Clock().Sleep(time.Duration(env.Rank()*37) * time.Microsecond)
					enter[env.Rank()] = env.Clock().Now()
					c.Barrier(alg)
					exit[env.Rank()] = env.Clock().Now()
				})
				var lastEnter, firstExit time.Duration
				for r := 0; r < procs; r++ {
					if enter[r] > lastEnter {
						lastEnter = enter[r]
					}
					if r == 0 || exit[r] < firstExit {
						firstExit = exit[r]
					}
				}
				if firstExit < lastEnter {
					t.Fatalf("rank left the barrier at %v before the last entered at %v", firstExit, lastEnter)
				}
			})
		}
	}
}

// TestBarrierDisseminationAnyN covers non-power-of-two process counts.
func TestBarrierDisseminationAnyN(t *testing.T) {
	for _, procs := range []int{3, 5, 6, 7, 9, 12} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			enter := make([]time.Duration, procs)
			exit := make([]time.Duration, procs)
			runCluster(t, procs, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
				env.Clock().Sleep(time.Duration((procs-env.Rank())*13) * time.Microsecond)
				enter[env.Rank()] = env.Clock().Now()
				c.Barrier(BarrierDissemination)
				exit[env.Rank()] = env.Clock().Now()
			})
			var lastEnter, firstExit time.Duration
			for r := 0; r < procs; r++ {
				if enter[r] > lastEnter {
					lastEnter = enter[r]
				}
				if r == 0 || exit[r] < firstExit {
					firstExit = exit[r]
				}
			}
			if firstExit < lastEnter {
				t.Fatalf("barrier unsafe: exit %v before enter %v", firstExit, lastEnter)
			}
		})
	}
}

// TestBarrierAutoSelects: auto must work for both power-of-two and other
// process counts.
func TestBarrierAutoSelects(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 6, 8} {
		runCluster(t, procs, model.Zero(), nil, func(env transport.Env, c *Comm) {
			c.Barrier(BarrierAuto)
			c.Barrier(BarrierAuto)
		})
	}
}

// TestBarrierPairwiseRejectsNonPow2 documents the constraint.
func TestBarrierPairwiseRejectsNonPow2(t *testing.T) {
	f, err := transport.NewSim(transport.Config{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		f.SpawnUser(r, func(env transport.Env) {
			New(env).Barrier(BarrierPairwise)
		})
	}
	if err := f.Run(); err == nil {
		t.Fatal("pairwise barrier accepted 3 processes")
	}
}

// TestBarrierMessageCounts pins the message complexity: pairwise moves
// N·log₂N messages, central 2(N−1).
func TestBarrierMessageCounts(t *testing.T) {
	count := func(alg BarrierAlg, procs int) int {
		stats := trace.New()
		runCluster(t, procs, model.Zero(), stats, func(env transport.Env, c *Comm) {
			c.Barrier(alg)
		})
		return stats.Count(msg.KindColl)
	}
	if got := count(BarrierPairwise, 16); got != 16*4 {
		t.Fatalf("pairwise N=16 moved %d messages, want 64", got)
	}
	if got := count(BarrierCentral, 16); got != 2*15 {
		t.Fatalf("central N=16 moved %d messages, want 30", got)
	}
	if got := count(BarrierDissemination, 8); got != 8*3 {
		t.Fatalf("dissemination N=8 moved %d messages, want 24", got)
	}
}

// TestAllReduceSum checks elementwise sums for many process counts,
// including the non-power-of-two fold/unfold path, against a directly
// computed expectation.
func TestAllReduceSum(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			const width = 9
			rng := rand.New(rand.NewSource(int64(procs)))
			inputs := make([][]int64, procs)
			want := make([]int64, width)
			for r := range inputs {
				inputs[r] = make([]int64, width)
				for i := range inputs[r] {
					inputs[r][i] = rng.Int63n(1000) - 500
					want[i] += inputs[r][i]
				}
			}
			results := make([][]int64, procs)
			runCluster(t, procs, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
				vec := append([]int64(nil), inputs[env.Rank()]...)
				c.AllReduceSumInt64(vec)
				results[env.Rank()] = vec
			})
			for r := 0; r < procs; r++ {
				for i := 0; i < width; i++ {
					if results[r][i] != want[i] {
						t.Fatalf("rank %d element %d = %d, want %d", r, i, results[r][i], want[i])
					}
				}
			}
		})
	}
}

// TestBackToBackCollectivesDoNotCross: consecutive collectives must not
// consume each other's phase messages even when ranks are heavily skewed.
func TestBackToBackCollectivesDoNotCross(t *testing.T) {
	const procs = 8
	sums := make([][]int64, procs)
	runCluster(t, procs, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
		me := env.Rank()
		env.Clock().Sleep(time.Duration(me*me*11) * time.Microsecond)
		for round := 0; round < 5; round++ {
			vec := []int64{int64(me + round)}
			c.AllReduceSumInt64(vec)
			sums[me] = append(sums[me], vec[0])
			c.Barrier(BarrierAuto)
		}
	})
	for r := 0; r < procs; r++ {
		for round := 0; round < 5; round++ {
			want := int64(procs*(procs-1)/2 + procs*round)
			if sums[r][round] != want {
				t.Fatalf("rank %d round %d sum %d, want %d", r, round, sums[r][round], want)
			}
		}
	}
}

// TestAllReduceLogDepth: the binary exchange must finish in log-depth
// virtual time, not linear — the heart of the paper's improvement.
func TestAllReduceLogDepth(t *testing.T) {
	params := model.Myrinet2000()
	duration := func(procs int) time.Duration {
		f, err := transport.NewSim(transport.Config{Procs: procs, Model: params})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < procs; r++ {
			f.SpawnUser(r, func(env transport.Env) {
				vec := make([]int64, procs)
				New(env).AllReduceSumInt64(vec)
			})
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return f.Now()
	}
	d4, d16 := duration(4), duration(16)
	// log2(16)/log2(4) = 2: allow generous slack for payload growth, but
	// reject anything close to the 4x of a linear algorithm.
	if ratio := float64(d16) / float64(d4); ratio > 3 {
		t.Fatalf("allreduce scaling looks linear: t(16)/t(4) = %.2f", ratio)
	}
}

// TestAllReduceSumFloat64 checks float sums for many process counts; all
// ranks must return bit-identical vectors.
func TestAllReduceSumFloat64(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 5, 8, 13} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			const width = 6
			rng := rand.New(rand.NewSource(int64(100 + procs)))
			inputs := make([][]float64, procs)
			for r := range inputs {
				inputs[r] = make([]float64, width)
				for i := range inputs[r] {
					inputs[r][i] = rng.NormFloat64()
				}
			}
			results := make([][]float64, procs)
			runCluster(t, procs, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
				vec := append([]float64(nil), inputs[env.Rank()]...)
				c.AllReduceSumFloat64(vec)
				results[env.Rank()] = vec
			})
			// Bit-identical across ranks.
			for r := 1; r < procs; r++ {
				for i := 0; i < width; i++ {
					if results[r][i] != results[0][i] {
						t.Fatalf("rank %d element %d differs: %v vs %v",
							r, i, results[r][i], results[0][i])
					}
				}
			}
			// Close to the reference sum (associativity differences only).
			for i := 0; i < width; i++ {
				var want float64
				for r := 0; r < procs; r++ {
					want += inputs[r][i]
				}
				if diff := math.Abs(results[0][i] - want); diff > 1e-9 {
					t.Fatalf("element %d = %v, reference %v", i, results[0][i], want)
				}
			}
		})
	}
}

// TestMixedCollectiveSequence interleaves int, float and barrier
// collectives; sequencing must keep them apart.
func TestMixedCollectiveSequence(t *testing.T) {
	const procs = 4
	runCluster(t, procs, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
		me := env.Rank()
		env.Clock().Sleep(time.Duration(me*me*7) * time.Microsecond)
		for round := 0; round < 4; round++ {
			iv := []int64{int64(me)}
			c.AllReduceSumInt64(iv)
			if iv[0] != 6 {
				panic(fmt.Sprintf("int round %d: %d", round, iv[0]))
			}
			fv := []float64{0.5}
			c.AllReduceSumFloat64(fv)
			if fv[0] != 2 {
				panic(fmt.Sprintf("float round %d: %v", round, fv[0]))
			}
			c.Barrier(BarrierAuto)
		}
	})
}

// TestRebaseJoinsDivergedComms is an elastic repair's collective state in
// small. Rank 1 is interrupted inside the second barrier after its send:
// rank 0 completes it, rank 1 does not, so rank 0 is one collective
// ahead, as a survivor is of one the view change threw out. Rank 1 also
// leaves a stray frame with the old-base tag of rank 0's next barrier.
// After both rebase to view 1 a barrier completes, and neither rank's
// old-base frame was matched by it: each is still in its mailbox, where a
// Recv takes it (had the barrier taken it, the Recv would wait forever
// and the run would end stuck).
func TestRebaseJoinsDivergedComms(t *testing.T) {
	var seqs [2]int
	runCluster(t, 2, model.Myrinet2000(), nil, func(env transport.Env, c *Comm) {
		me := env.Rank()
		c.Barrier(BarrierPairwise)
		phase := c.schedule(BarrierPairwise)[0].phase
		coll := func(seq int) *msg.Message {
			return &msg.Message{Kind: msg.KindColl, Tag: seq<<16 | phase}
		}
		if me == 1 {
			env.Send(msg.User(0), coll(1)) // its half of barrier 2, then interrupted
			env.Send(msg.User(0), coll(2)) // old-base tag of rank 0's next barrier
		} else {
			c.Barrier(BarrierPairwise)
		}
		seqs[me] = c.seq
		c.Rebase(1)
		c.Barrier(BarrierPairwise)
		stale := 2 - me // rank 0 kept rank 1's stray, rank 1 rank 0's barrier-2 half
		env.Recv(msg.MatchSrcTag(msg.KindColl, msg.User(1-me), stale<<16|phase))
	})
	if seqs != [2]int{2, 1} {
		t.Fatalf("sequences before the rebase = %v, want [2 1]", seqs)
	}
}
