// Package sim implements a deterministic discrete-event simulation kernel.
//
// A Kernel owns a virtual clock and a set of cooperating processes. Each
// process is a coroutine (iter.Pull) of the goroutine that called Run: a
// process runs until it calls one of the blocking primitives (Sleep,
// WaitUntil, YieldProc), at which point control switches straight back to
// the kernel's scheduler — no run queue of the Go runtime, no second
// thread — which advances virtual time only when no process is runnable.
// Execution is therefore fully deterministic — the same program produces
// the same event trace and the same virtual-time results on every run —
// which is what allows the benchmark harness to report reproducible
// "paper figure" numbers.
//
// The design follows the classic cooperative process-based simulation
// style (SimPy, CSIM). A process blocked in WaitUntil is re-evaluated when
// it was poked (Proc.Poke), not on every step: whoever changes the state a
// predicate reads pokes its waiter, and a poke nobody made is reported by
// Run as a missed wake-up rather than a deadlock.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"time"
)

// ErrDeadlock is wrapped by the error Run returns when no process is
// runnable and no event is pending. Callers that expect a benign drain
// (servers parked after the workload finished) test for it with
// errors.Is.
var ErrDeadlock = errors.New("deadlock")

// Kernel is a discrete-event scheduler with a virtual clock.
type Kernel struct {
	now      time.Duration
	events   eventHeap
	eventSeq uint64
	free     []*event // fired events awaiting reuse

	procs    []*Proc
	runnable []*Proc // FIFO run queue
	live     int     // processes started and not yet finished

	condWaiters []*Proc // processes blocked in WaitUntil, in registration order
	poked       int     // how many of them carry a poke not yet rechecked

	// shuffle, when non-nil, picks the next runnable process
	// pseudo-randomly instead of FIFO. Still fully deterministic for a
	// given seed: a cheap way to explore alternative interleavings.
	shuffle *rand.Rand

	// hazard enables the deliberately broken event-recycling scheme used
	// by the conformance harness's mutation self-test (see
	// SetEventPoolHazard).
	hazard      bool
	hazardStash *event // still-scheduled event queued for unsafe reuse
	hazardCount int

	stopping bool  // Run is unwinding the processes it did not finish
	failure  error // first panic propagated out of a process
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{events: make(eventHeap, 0, initialHeapCap)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// SetShuffle makes the scheduler pick among simultaneously runnable
// processes pseudo-randomly, seeded (and therefore reproducible), instead
// of strictly FIFO. Event times are unaffected — only the order in which
// equally-ready processes get the CPU changes. Call before Run.
func (k *Kernel) SetShuffle(seed int64) {
	k.shuffle = rand.New(rand.NewSource(seed))
}

// Handler is what an event does when it fires, given the argument it was
// scheduled with. A handler is bound once (a function, or a method value
// its owner keeps) and an event names it beside its argument, so
// scheduling one allocates nothing: a message delivery is the fabric's
// deliver handler and the message, a sleep's wake-up wakeProc and the
// process.
type Handler func(arg any)

// event is a scheduled handler call. Events fire in (at, seq) order so that
// simultaneous events fire in scheduling order, keeping runs deterministic.
type event struct {
	at  time.Duration
	seq uint64
	h   Handler
	arg any
}

// initialHeapCap pre-sizes a kernel's event heap so steady-state
// scheduling never regrows the slice for typical cluster sizes.
const initialHeapCap = 128

// eventHeap is a hand-rolled binary min-heap on (at, seq). It replaces
// container/heap so pushes and pops stay free of the interface{} boxing
// and indirect calls of the generic implementation — this is the hottest
// structure in the simulator.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *eventHeap) pop() *event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil // release the reference so recycled events are not pinned
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < n && s.less(l, next) {
			next = l
		}
		if r < n && s.less(r, next) {
			next = r
		}
		if next == i {
			break
		}
		s[i], s[next] = s[next], s[i]
		i = next
	}
	return top
}

func (h eventHeap) peek() *event { return h[0] }

// At schedules h(arg) to run at absolute virtual time at (clamped to now).
// It may be called from process context or from another event's handler.
func (k *Kernel) At(at time.Duration, h Handler, arg any) {
	if at < k.now {
		at = k.now
	}
	k.eventSeq++
	e := k.getEvent()
	e.at, e.seq, e.h, e.arg = at, k.eventSeq, h, arg
	k.events.push(e)
	if k.hazard {
		k.hazardCount++
		if k.hazardCount%hazardEvery == 0 {
			// BUG (deliberate): queue the event for reuse while it is
			// still sitting in the heap. The next At overwrites its
			// fields in place, losing this handler call and
			// double-firing the new one.
			k.hazardStash = e
		}
	}
}

// getEvent takes an event struct for scheduling: the one the hazard mode
// stashed while it was still scheduled, else the kernel's free list, else
// a new one. A kernel is single-threaded, so the list needs no lock, and
// the scheduling hot path allocates nothing once it holds as many events
// as were ever pending at once. The pop order of the heap is a strict
// total order on (at, seq), so reuse cannot perturb determinism.
func (k *Kernel) getEvent() *event {
	if e := k.hazardStash; e != nil {
		k.hazardStash = nil
		return e
	}
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free = k.free[:n-1]
		return e
	}
	return new(event)
}

// putEvent returns a fired event to the free list, its argument cleared
// so the list never pins a dead message. A hazard kernel's heap can hold
// the same event twice, still to fire again, so it recycles only through
// its stash.
func (k *Kernel) putEvent(e *event) {
	if k.hazard {
		return
	}
	e.h, e.arg = nil, nil
	k.free = append(k.free, e)
}

// hazardEvery is how often the hazard mode recycles a still-scheduled
// event: every third scheduled event, frequent enough that any non-empty
// heap is corrupted within a few message exchanges.
const hazardEvery = 3

// SetEventPoolHazard enables a deliberately broken event-recycling
// scheme: every hazardEvery-th scheduled event is recycled while still
// scheduled, so a later At clobbers its fire time and handler in place.
// It exists solely as a mutation hook for the conformance harness's
// oracle self-test (the bug class a correct event pool must not have);
// never enable it outside tests. It may be called before Run or from
// process context; it affects the events scheduled after the call.
func (k *Kernel) SetEventPoolHazard(on bool) { k.hazard = on }

// After schedules h(arg) to run d from now.
func (k *Kernel) After(d time.Duration, h Handler, arg any) { k.At(k.now+d, h, arg) }

// procState is the lifecycle of a process.
type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated process. All of its methods except Poke and the
// Kernel-side bookkeeping must be called from the process's own body while
// it is the one running.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	fn    func(p *Proc)

	// The process's coroutine (built when Run starts it): next switches to
	// it until it parks or returns, park switches back to the scheduler
	// and reports false once stop has been called.
	next func() (struct{}, bool)
	stop func()
	park func(struct{}) bool

	cond  func() bool // predicate when blocked in WaitUntil
	poked bool        // cond is due a recheck

	blockTag string // diagnostic: what the process is blocked on
}

// Spawn registers a new process executing fn. Processes are started when
// Run is called; fn receives its Proc handle.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, state: stateNew, fn: fn}
	k.procs = append(k.procs, p)
	return p
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// markRunnable appends p to the run queue if it is blocked or new.
func (k *Kernel) markRunnable(p *Proc) {
	if p.state == stateRunnable || p.state == stateRunning || p.state == stateDone {
		return
	}
	p.state = stateRunnable
	p.blockTag = ""
	k.runnable = append(k.runnable, p)
}

// Run starts every spawned process and drives the simulation until all
// processes finish, a deadline elapses (0 = none), or a deadlock occurs.
// It returns an error on deadlock, on deadline, or if a process panicked.
// Whatever it did not finish it stops on the way out: each such process
// unwinds from where it was parked, deferred calls included, with
// Stopping reporting true.
func (k *Kernel) Run(deadline time.Duration) error {
	for _, p := range k.procs {
		if p.state == stateNew {
			k.live++
			k.markRunnable(p)
			p.next, p.stop = iter.Pull(func(park func(struct{}) bool) {
				p.park = park
				k.procMain(p)
			})
		}
	}
	defer k.stopUnfinished()
	for k.live > 0 {
		if k.failure != nil {
			return k.failure
		}
		if len(k.runnable) > 0 {
			i := 0
			if k.shuffle != nil {
				i = k.shuffle.Intn(len(k.runnable))
			}
			p := k.runnable[i]
			k.runnable = append(k.runnable[:i], k.runnable[i+1:]...)
			k.step(p)
			k.recheckConds()
			continue
		}
		if len(k.events) == 0 {
			return k.orMissedWake(k.deadlockError())
		}
		next := k.events.peek().at
		if deadline > 0 && next > deadline {
			return k.orMissedWake(fmt.Errorf("sim: deadline %v exceeded (next event at %v)", deadline, next))
		}
		k.now = next
		for len(k.events) > 0 && k.events.peek().at == k.now {
			e := k.events.pop()
			h, arg := e.h, e.arg
			k.putEvent(e)
			h(arg)
		}
		k.recheckConds()
	}
	return k.failure
}

// step switches to p and returns when it parks or finishes.
func (k *Kernel) step(p *Proc) {
	p.state = stateRunning
	p.next()
}

// stopUnfinished unwinds every process Run is leaving behind — parked in
// a wait, or never started — so that no coroutine outlives the run.
func (k *Kernel) stopUnfinished() {
	k.stopping = true
	for _, p := range k.procs {
		if p.state != stateDone && p.stop != nil {
			p.stop()
			p.state = stateDone
		}
	}
}

// Stopping reports whether Run is on its way out and unwinding the
// processes it did not finish. A call a process deferred reads it to tell
// that unwind from the process finishing (or exiting) on its own.
func (k *Kernel) Stopping() bool { return k.stopping }

// stopped is the panic that unwinds a process Run stops.
type stopped struct{}

// Abort is a panic value a process may raise to terminate the whole
// simulation with a structured error: Run returns Err verbatim instead
// of wrapping it in a generic panic message, so callers can inspect it
// with errors.As.
type Abort struct{ Err error }

// Exit is a panic value a process may raise to terminate only itself,
// mid-body, without failing the simulation: the kernel treats it as a
// normal completion of that process. It models a fail-stop — the fabric
// raises it for an injected crash so the victim vanishes while every
// other process keeps running (and may recover, e.g. by lease repair).
type Exit struct{}

// procMain is the coroutine body wrapping a process function.
func (k *Kernel) procMain(p *Proc) {
	defer func() {
		r := recover()
		if k.stopping {
			return // stopped{}, or whatever a deferred call raised over it
		}
		if r != nil {
			if _, ok := r.(Exit); !ok && k.failure == nil {
				if a, ok := r.(Abort); ok && a.Err != nil {
					k.failure = a.Err
				} else {
					k.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				}
			}
		}
		p.state = stateDone
		k.live--
	}()
	p.fn(p)
}

// yield parks the calling process (whose state has already been set) and
// switches to the scheduler. It returns when the scheduler resumes the
// process, and unwinds it when Run stops it instead.
func (p *Proc) yield() {
	if !p.park(struct{}{}) {
		panic(stopped{})
	}
	p.state = stateRunning
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Even a zero sleep is a scheduling point, giving other runnable
		// processes a chance to interleave deterministically.
		p.YieldProc()
		return
	}
	p.state = stateBlocked
	p.blockTag = "sleep"
	p.k.After(d, wakeProc, p)
	p.yield()
}

// wakeProc is a sleep's timer: it makes the process, its argument,
// runnable.
func wakeProc(arg any) {
	p := arg.(*Proc)
	p.k.markRunnable(p)
}

// YieldProc re-queues the process at the back of the run queue without
// advancing time, letting equally-runnable processes interleave.
func (p *Proc) YieldProc() {
	p.state = stateBlocked
	p.blockTag = "yield"
	p.k.markRunnable(p)
	p.yield()
}

// WaitUntil blocks the process until pred() reports true. The predicate is
// evaluated once on entry and then after every process time slice or event
// batch in which the process was poked: whoever changes state that pred
// reads calls Poke, so the change is observed at the virtual time it
// happens.
func (p *Proc) WaitUntil(tag string, pred func() bool) {
	if pred() {
		return
	}
	p.state = stateBlocked
	p.blockTag = tag
	p.cond = pred
	p.k.condWaiters = append(p.k.condWaiters, p)
	p.yield()
}

// Poke marks p for re-evaluation if it is blocked in WaitUntil, and does
// nothing otherwise. It may be called from any process or event callback;
// the recheck follows the current time slice or event batch.
func (p *Proc) Poke() {
	if p.cond != nil && !p.poked {
		p.poked = true
		p.k.poked++
	}
}

// recheckConds wakes every poked process whose predicate has become true.
// Processes are woken in registration order, whatever the order of the
// pokes, for determinism.
func (k *Kernel) recheckConds() {
	if k.poked == 0 {
		return
	}
	k.poked = 0
	remaining := k.condWaiters[:0]
	for _, p := range k.condWaiters {
		if p.poked {
			p.poked = false
			if p.cond() {
				p.cond = nil
				k.markRunnable(p)
				continue
			}
		}
		remaining = append(remaining, p)
	}
	k.condWaiters = remaining
}

// orMissedWake returns err, the deadlock or deadline Run is about to
// report, unless a waiter's predicate reads true: every poke has been
// rechecked by then, so that waiter was owed one it never got, and the bug
// is named instead of surfacing as a hang or a timeout elsewhere.
func (k *Kernel) orMissedWake(err error) error {
	for _, p := range k.condWaiters {
		if p.cond() {
			return fmt.Errorf("sim: missed wake-up at %v: %s(%s) holds a true condition nobody poked it for", k.now, p.name, p.blockTag)
		}
	}
	return err
}

// deadlockError reports every blocked process and what it was waiting for.
func (k *Kernel) deadlockError() error {
	var stuck []string
	for _, p := range k.procs {
		if p.state == stateBlocked || p.state == stateRunnable {
			stuck = append(stuck, fmt.Sprintf("%s(%s)", p.name, p.blockTag))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("sim: %w at %v with %d live processes: %v", ErrDeadlock, k.now, k.live, stuck)
}
