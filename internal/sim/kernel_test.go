package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// call is the handler of a test's events: it runs its argument.
func call(arg any) { arg.(func())() }

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New()
	var woke time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		woke = p.Now()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if woke != 42*time.Millisecond {
		t.Fatalf("woke at %v, want 42ms", woke)
	}
	if k.Now() != 42*time.Millisecond {
		t.Fatalf("kernel finished at %v, want 42ms", k.Now())
	}
}

func TestSleepsInterleave(t *testing.T) {
	k := New()
	var order []string
	mk := func(name string, d time.Duration) {
		k.Spawn(name, func(p *Proc) {
			p.Sleep(d)
			order = append(order, fmt.Sprintf("%s@%v", name, p.Now()))
		})
	}
	mk("c", 30*time.Millisecond)
	mk("a", 10*time.Millisecond)
	mk("b", 20*time.Millisecond)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := "a@10ms,b@20ms,c@30ms"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestZeroSleepYields(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 2; round++ {
				order = append(order, i)
				p.Sleep(0)
			}
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// With cooperative round-robin yielding, rounds interleave:
	// 0,1,2,0,1,2 rather than 0,0,1,1,2,2.
	want := []int{0, 1, 2, 0, 1, 2}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if k.Now() != 0 {
		t.Fatalf("zero sleeps advanced the clock to %v", k.Now())
	}
}

func TestEventsFireInTimeThenSeqOrder(t *testing.T) {
	k := New()
	var fired []string
	k.Spawn("scheduler", func(p *Proc) {
		k.At(20*time.Millisecond, call, func() { fired = append(fired, "b1") })
		k.At(10*time.Millisecond, call, func() { fired = append(fired, "a") })
		k.At(20*time.Millisecond, call, func() { fired = append(fired, "b2") })
		p.Sleep(30 * time.Millisecond)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fired, ","); got != "a,b1,b2" {
		t.Fatalf("events fired %q, want a,b1,b2", got)
	}
}

func TestWaitUntilObservesOtherProcess(t *testing.T) {
	k := New()
	flag := false
	var waited time.Duration
	waiter := k.Spawn("waiter", func(p *Proc) {
		p.WaitUntil("flag", func() bool { return flag })
		waited = p.Now()
	})
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		flag = true
		waiter.Poke()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if waited != 5*time.Millisecond {
		t.Fatalf("waiter resumed at %v, want 5ms", waited)
	}
}

func TestWaitUntilImmediateDoesNotBlock(t *testing.T) {
	k := New()
	ran := false
	k.Spawn("p", func(p *Proc) {
		p.WaitUntil("true", func() bool { return true })
		ran = true
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process never completed")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	k.Spawn("stuck", func(p *Proc) {
		p.WaitUntil("never", func() bool { return false })
	})
	err := k.Run(0)
	if err == nil {
		t.Fatal("want deadlock error, got nil")
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "never") {
		t.Fatalf("error %q should mention deadlock and the block tag", err)
	}
}

func TestDeadlinePropagates(t *testing.T) {
	k := New()
	k.Spawn("slow", func(p *Proc) {
		p.Sleep(time.Hour)
	})
	err := k.Run(time.Second)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want deadline error, got %v", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	k := New()
	k.Spawn("boom", func(p *Proc) {
		panic("kaput")
	})
	err := k.Run(0)
	if err == nil || !strings.Contains(err.Error(), "kaput") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic error naming process and value, got %v", err)
	}
}

func TestPanicUnblocksRun(t *testing.T) {
	k := New()
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("later")
	})
	k.Spawn("other", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
	})
	err := k.Run(0)
	if err == nil || !strings.Contains(err.Error(), "later") {
		t.Fatalf("want propagated panic, got %v", err)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() string {
		k := New()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(i+1) * time.Millisecond)
					log = append(log, fmt.Sprintf("%d:%v", i, p.Now()))
				}
			})
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ",")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\n%s", a, b)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := New()
	var at time.Duration
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		k.After(5*time.Millisecond, call, func() { at = k.Now() })
		p.Sleep(20 * time.Millisecond)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 15*time.Millisecond {
		t.Fatalf("After fired at %v, want 15ms", at)
	}
}

func TestAtClampsToPast(t *testing.T) {
	k := New()
	fired := time.Duration(-1)
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		k.At(1*time.Millisecond, call, func() { fired = k.Now() }) // in the past
		p.Sleep(1 * time.Millisecond)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamped to 10ms", fired)
	}
}

func TestManyProcessesManyEvents(t *testing.T) {
	k := New()
	const procs, rounds = 32, 50
	total := 0
	for i := 0; i < procs; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < rounds; j++ {
				p.Sleep(time.Duration(1+(i+j)%7) * time.Microsecond)
				total++
			}
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if total != procs*rounds {
		t.Fatalf("completed %d steps, want %d", total, procs*rounds)
	}
}

// TestPokedWaitersWakeInRegistrationOrder: the order of the pokes inside
// one event batch is not the order of the wake-ups — waiters run in the
// order they registered, which is what keeps every virtual time where the
// every-step recheck had it.
func TestPokedWaitersWakeInRegistrationOrder(t *testing.T) {
	k := New()
	open := false
	var order []string
	procs := map[string]*Proc{}
	for _, name := range []string{"A", "B", "C"} {
		procs[name] = k.Spawn(name, func(p *Proc) {
			p.WaitUntil("gate", func() bool { return open })
			order = append(order, name)
		})
	}
	k.Spawn("opener", func(p *Proc) {
		k.After(time.Millisecond, call, func() { open = true; procs["C"].Poke() })
		k.After(time.Millisecond, call, func() { procs["A"].Poke() })
		p.Sleep(2 * time.Millisecond)
		procs["B"].Poke()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "A,C,B" {
		t.Fatalf("wake order %q, want A,C,B (registration order within the batch, B a batch later)", got)
	}
}

// TestUnpokedWaiterIsNotReevaluated: a waiter nobody pokes pays for its
// predicate once, on entry, however many steps and events go by.
func TestUnpokedWaiterIsNotReevaluated(t *testing.T) {
	k := New()
	calls := 0
	done := false
	waiter := k.Spawn("waiter", func(p *Proc) {
		p.WaitUntil("done", func() bool { calls++; return done })
	})
	k.Spawn("busy", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Microsecond)
		}
		if calls != 1 {
			t.Errorf("predicate called %d times over 100 steps with no poke, want 1", calls)
		}
		done = true
		waiter.Poke()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("predicate called %d times, want 2 (entry and the one poke)", calls)
	}
}

// TestPokeOnProcessNotWaitingIsNoOp: a poke leaves no mark behind, and a
// WaitUntil entered later still evaluates its predicate on entry.
func TestPokeOnProcessNotWaitingIsNoOp(t *testing.T) {
	k := New()
	ready := false
	var resumed time.Duration
	target := k.Spawn("target", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		p.WaitUntil("ready", func() bool { return ready })
		resumed = p.Now()
	})
	k.Spawn("poker", func(p *Proc) {
		target.Poke() // not started
		p.Sleep(time.Millisecond)
		ready = true
		target.Poke() // asleep
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if resumed != 2*time.Millisecond {
		t.Fatalf("target passed its wait at %v, want 2ms (true on entry)", resumed)
	}
	if k.poked != 0 {
		t.Fatalf("pokes of a process not waiting left %d marks", k.poked)
	}
}

// TestMissedPokeIsNamed: a condition that turned true with no poke is a
// bug in whoever changed the state, and Run says so — with the process
// and its tag, and not as a deadlock or a deadline a caller might excuse.
func TestMissedPokeIsNamed(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline time.Duration
	}{{"deadlock", 0}, {"deadline", time.Second}} {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			flag := false
			k.Spawn("waiter", func(p *Proc) {
				p.WaitUntil("flag", func() bool { return flag })
			})
			k.Spawn("setter", func(p *Proc) {
				flag = true // and no poke
				if tc.deadline > 0 {
					p.Sleep(time.Hour)
				}
			})
			err := k.Run(tc.deadline)
			if err == nil || errors.Is(err, ErrDeadlock) {
				t.Fatalf("want a missed wake-up error outside ErrDeadlock, got %v", err)
			}
			for _, want := range []string{"missed wake-up", "waiter(flag)"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestExitAndAbortInsideCoroutine: the two structured panics mean what
// they meant on goroutines — Exit ends one process and the run goes on,
// Abort ends the run with its error verbatim.
func TestExitAndAbortInsideCoroutine(t *testing.T) {
	k := New()
	finished := false
	k.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(Exit{})
	})
	k.Spawn("survivor", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		finished = true
	})
	if err := k.Run(0); err != nil || !finished {
		t.Fatalf("Exit: err %v, survivor finished %v; want nil, true", err, finished)
	}

	k = New()
	boom := errors.New("structured")
	k.Spawn("aborter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(Abort{Err: boom})
	})
	k.Spawn("other", func(p *Proc) { p.Sleep(time.Hour) })
	if err := k.Run(0); err != boom {
		t.Fatalf("Abort: Run returned %v, want the error verbatim", err)
	}
}

// TestRunStopsWhatItDidNotFinish: a process still parked when Run returns
// is unwound there and then — its deferred calls run, with Stopping true —
// and counts neither as finished nor as a failure.
func TestRunStopsWhatItDidNotFinish(t *testing.T) {
	k := New()
	var unwound []string
	for _, name := range []string{"sleeper", "waiter"} {
		k.Spawn(name, func(p *Proc) {
			defer func() {
				if k.Stopping() {
					unwound = append(unwound, name)
				}
				p.Sleep(time.Millisecond) // a blocking call in the unwind must not park again
			}()
			if name == "sleeper" {
				p.Sleep(time.Hour)
			} else {
				p.WaitUntil("never", func() bool { return false })
			}
		})
	}
	err := k.Run(time.Second)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want deadline error, got %v", err)
	}
	if got := strings.Join(unwound, ","); got != "sleeper,waiter" {
		t.Fatalf("unwound %q, want sleeper,waiter", got)
	}
	if k.live != 2 {
		t.Fatalf("live = %d after the stop, want 2: a stopped process did not finish", k.live)
	}
}
