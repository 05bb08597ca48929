package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelSchedule measures the event-scheduling hot path: one
// Sleep per iteration is one event pushed, popped and fired plus a
// coroutine switch each way. With the recycled events and the one wake
// handler this path is allocation-free in steady state.
func BenchmarkKernelSchedule(b *testing.B) {
	b.ReportAllocs()
	k := New()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelSwitch measures the process switch alone: two processes
// alternate 1 µs sleeps, so every step resumes the process that did not
// run last. ns/op is one switch into a process and back out (plus its
// timer event), with no allocation.
func BenchmarkKernelSwitch(b *testing.B) {
	b.ReportAllocs()
	k := New()
	for _, name := range []string{"ping", "pong"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}

// TestKernelEventAllocBudget pins the scheduling path to its allocation
// budget: the marginal cost of one scheduled-and-fired event must stay far
// below one allocation. A recycling regression (every event heap-allocated
// again) shows up as ~1 alloc/event and fails this test rather than
// waiting for benchmark drift to be noticed.
func TestKernelEventAllocBudget(t *testing.T) {
	const events = 5000
	var runErr error
	avg := testing.AllocsPerRun(5, func() {
		k := New()
		k.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < events; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if err := k.Run(0); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	// Fixed setup (kernel, proc, coroutine) amortizes over the events.
	if perEvent := avg / events; perEvent > 0.01 {
		t.Errorf("scheduling hot path allocates %.3f allocs/event, budget 0.01 — event recycling regressed", perEvent)
	}
}

// TestEventPoolReuse proves fired events actually return to the free
// list: a 1-deep event stream of any length lives on one event struct
// and never grows the heap beyond its pre-sized capacity.
func TestEventPoolReuse(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(k.events) != 0 {
		t.Fatalf("heap holds %d events after drain, want 0", len(k.events))
	}
	if cap(k.events) > initialHeapCap {
		t.Errorf("heap grew to cap %d for a 1-deep event stream, want <= %d (pre-size defeated)",
			cap(k.events), initialHeapCap)
	}
	if len(k.free) != 1 {
		t.Errorf("free list holds %d events after 100 sleeps one at a time, want the 1 they all reused", len(k.free))
	}
}

// TestEventPoolHazardCorrupts proves the mutation hook misbehaves the
// way a real recycle-while-scheduled bug would: with several events in
// flight, recycling a still-scheduled one loses its callback (and
// double-fires the replacement), so the count of observed firings is
// wrong. The conformance harness's self-test relies on this hook
// actually corrupting runs — a hazard kernel that behaved would make
// that self-test vacuous.
func TestEventPoolHazardCorrupts(t *testing.T) {
	fire := func(hazard bool) []int {
		k := New()
		var fired []int
		k.Spawn("scheduler", func(p *Proc) {
			// Armed from process context, the way the harness arms it.
			k.SetEventPoolHazard(hazard)
			// Keep many events in the heap at once so the hazard's
			// stashed event is still scheduled when it gets reused.
			for i := 0; i < 12; i++ {
				i := i
				k.After(time.Duration(10+i)*time.Microsecond, call, func() {
					fired = append(fired, i)
				})
			}
			p.Sleep(time.Millisecond)
		})
		if err := k.Run(0); err != nil {
			t.Fatalf("hazard=%v: %v", hazard, err)
		}
		return fired
	}
	clean := fire(false)
	if len(clean) != 12 {
		t.Fatalf("clean kernel fired %d of 12 events", len(clean))
	}
	broken := fire(true)
	if len(broken) == 12 {
		same := true
		for i := range clean {
			if clean[i] != broken[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("hazard kernel fired every event in order — the mutation hook does not corrupt anything")
		}
	}
}
