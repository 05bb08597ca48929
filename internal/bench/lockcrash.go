package bench

import (
	"fmt"
	"time"

	"armci"
	"armci/internal/shmem"
	"armci/internal/trace"
)

// The holder-crash recovery experiment's fixed shape.
const (
	lockCrashPPN   = 8 // consecutive ranks sharing a node
	lockCrashIters = 3 // critical sections each rank runs
	// The lease TTL must comfortably exceed a congested critical section
	// at this contention level, or waiters depose live holders and the
	// run is rejected (repairs != 1).
	lockCrashTTL     = 2 * time.Millisecond
	lockCrashVictim  = 1 // the rank that fail-stops
	lockCrashAcquire = 1 // the victim's fatal acquire, 1-based
)

// LockCrash is the holder-crash recovery experiment: procs ranks
// (default 64) contend on one lease lock, one rank fail-stops while
// holding it, and the survivors' lease-expiry repair puts the lock back
// in service. It reports the steady-state hand-off latency next to the
// crash-recovery latency, so the cost of surviving a holder crash is a
// number, not a claim.
//
// It runs on the simulated fabric: every rank — the victim included —
// loops lock / increment a counter homed at rank 0 / unlock; the victim
// dies inside its designated acquire while holding the lock. The record
// comes from the captured op-event history, so its times are
// deterministic virtual microseconds: the mean crash-free
// release-to-next-acquire gap over the hand-offs measured (the window
// spanning the crash and its repair is excluded), the gap from the
// victim's fail-stop to the first post-repair acquire (TTL expiry, the
// depose CAS, and the grant), and the OpRepair count — the run is
// rejected unless it is exactly 1 (one crash, one winning depose).
func LockCrash(o Opts, procs int) (*Table, error) {
	o = o.withDefaults()
	if procs <= 0 {
		procs = 64
	}
	if lockCrashVictim >= procs {
		return nil, fmt.Errorf("bench: lockcrash victim rank %d out of range for %d procs", lockCrashVictim, procs)
	}
	faults := o.Faults
	faults.CrashHeldRank = lockCrashVictim
	faults.CrashHeldAcquire = lockCrashAcquire
	const victimIters = lockCrashAcquire - 1 // completed before the fatal one

	rep, err := armci.Run(armci.Options{
		Procs:        procs,
		ProcsPerNode: lockCrashPPN,
		Fabric:       armci.FabricSim,
		Preset:       o.Preset,
		NumMutexes:   1,
		ScheduleSeed: 1,
		CaptureTrace: true,
		LeaseTTL:     lockCrashTTL,
		Faults:       faults,
		Metrics:      o.Metrics,
	}, func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		counter := p.MallocWords(1)[0] // rank 0's cell
		mu := p.Mutex(0, armci.LockLease)
		node0 := p.NodeOf(0)
		for i := 0; i < lockCrashIters; i++ {
			mu.Lock() // the victim dies in here at its designated acquire
			p.Store(counter, p.Load(counter)+1)
			if node0 != p.MyNode() {
				p.Fence(node0)
			}
			mu.Unlock()
		}
		if me != 0 {
			return
		}
		// Survivors fence their increments before releasing; wait until
		// the last one lands so the history below is complete.
		want := int64((n-1)*lockCrashIters + victimIters)
		p.Env().WaitUntilFor("lockcrash-counter", shmem.Cell(counter), func() bool {
			return p.Load(counter) >= want
		}, time.Second)
	})
	if err != nil {
		return nil, fmt.Errorf("bench: lockcrash run: %w", err)
	}

	var (
		handoffs    int
		repairs     int
		recoveryUS  float64
		crashAt     time.Duration
		crashSeen   bool
		recovered   bool
		lastRelease time.Duration
		haveRelease bool
		hazard      bool // a crash or repair happened since lastRelease
		handoffSum  float64
	)
	for e := range rep.Stats.Records() {
		switch e.Kind {
		case trace.OpCrash:
			crashSeen, crashAt = true, e.Time
			hazard = true
		case trace.OpRepair:
			repairs++
			hazard = true
		case trace.OpRelease:
			if e.Lock == 0 {
				lastRelease, haveRelease, hazard = e.Time, true, false
			}
		case trace.OpAcquire:
			if e.Lock != 0 {
				continue
			}
			if crashSeen && !recovered {
				recovered = true
				recoveryUS = us(e.Time - crashAt)
			} else if haveRelease && !hazard {
				handoffSum += us(e.Time - lastRelease)
				handoffs++
			}
		}
	}
	if !crashSeen {
		return nil, fmt.Errorf("bench: lockcrash run recorded no fail-stop; the crashheld plan did not fire")
	}
	if repairs != 1 {
		return nil, fmt.Errorf("bench: lockcrash run recorded %d repairs, want exactly 1", repairs)
	}
	if !recovered || handoffs == 0 {
		return nil, fmt.Errorf("bench: lockcrash history too sparse (recovered=%v, %d hand-offs)", recovered, handoffs)
	}
	return &Table{
		Cols: []Col{
			{Key: "handoff_us", Prec: 1, Metric: "lockcrash/handoff/us"},
			{Key: "recovery_us", Prec: 1, Metric: "lockcrash/recovery/us"},
			{Key: "handoffs"}, {Key: "repairs"},
		},
		Rows: [][]any{{handoffSum / float64(handoffs), recoveryUS, handoffs, repairs}},
		Sections: []Section{{
			Title: fmt.Sprintf("Lock holder-crash recovery: lease lock, %d procs (ppn %d), victim rank %d at acquire %d, TTL %s (%s fabric, %s model)",
				procs, lockCrashPPN, lockCrashVictim, lockCrashAcquire, lockCrashTTL, armci.FabricSim, o.Preset),
			Cols: "handoff_us recovery_us handoffs repairs",
			Layout: fmt.Sprintf("%28s %14s\n%28s %%14.1f\n%28s %%14.1f\n%28s %%14d\n%28s %%14d", "metric", "value",
				"hand-off (us, crash-free)", "recovery (us, crash)", "hand-offs measured", "repairs"),
		}},
	}, nil
}
