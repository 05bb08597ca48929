package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunAllParallel executes the cases on up to workers concurrent workers
// (workers <= 0 means GOMAXPROCS) and aggregates exactly like a
// sequential run.
// Each case already owns its kernel and seed, so cases are independent;
// determinism of the sweep is preserved by construction:
//
//   - onResult is invoked in case order — a reorder buffer holds
//     early-finishing later cases until their predecessors report — so
//     progress output and violation reporting are byte-identical to a
//     sequential run at any worker count;
//   - the aggregate (violations, errors) is accumulated in case order
//     from the same buffer, never in completion order.
//
// A worker panic does not kill the sweep: it is recovered per case,
// attributed to the case's reproducer tuple, and surfaced as a Result
// with Panicked set and the panic value in Err, counted in
// SweepResult.Panics.
func RunAllParallel(cases []Case, workers int, onResult func(Result)) SweepResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cases) {
		workers = len(cases)
	}
	var s SweepResult
	if len(cases) == 0 {
		return s
	}

	// done holds finished results until their turn; next is the index the
	// emitter is waiting on. Workers pull case indices from an atomic
	// counter, park the result, and drain every in-order prefix that is
	// ready — whichever worker completes the missing index performs the
	// emission, so no dedicated emitter goroutine is needed.
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		done   = make(map[int]Result, workers)
		next   int
	)
	emit := func(r Result) {
		s.Cases++
		s.Events += r.Events
		s.Violations = append(s.Violations, r.Violations...)
		if r.Err != nil {
			s.Errs = append(s.Errs, r.Err)
		}
		if r.Panicked {
			s.Panics++
		}
		if onResult != nil {
			onResult(r)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(cases) {
					return
				}
				r := safeRunCase(cases[i])
				mu.Lock()
				done[i] = r
				for {
					rr, ok := done[next]
					if !ok {
						break
					}
					delete(done, next)
					next++
					emit(rr)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return s
}

// safeRunCase runs one case, converting a panic anywhere under RunCase
// into a Result attributed to the case instead of crashing the sweep.
func safeRunCase(c Case) (r Result) {
	defer func() {
		if rec := recover(); rec != nil {
			r = Result{
				Case:     c.withDefaults(),
				Err:      fmt.Errorf("check: case %s panicked: %v", c.withDefaults().Reproducer(), rec),
				Panicked: true,
			}
		}
	}()
	return RunCase(c)
}
