// Command armci-check runs the schedule-exploration conformance harness
// (internal/check): every selected lock algorithm × synchronization
// variant × fault plan across a sweep of kernel shuffle seeds and
// fabrics, with the run's protocol-level event history validated against
// the invariant oracles (mutual exclusion, FIFO hand-off, fence
// completion, per-pair exactly-once delivery, state, liveness). Any
// violation prints a minimal reproducer tuple that re-runs the exact
// failing schedule.
//
// -workload swaps the default lock/put/notify workload for named
// scenarios from the grammar in internal/workload — halo-exchange
// stencil over ga arrays, accumulate parameter server, PutFlag/WaitFlag
// producer-consumer chain, and a seeded adversarial mix — each carrying
// its own invariant oracle (cell-exact replay, accumulate-sum
// exactness, no-stale-read, model replay). Specs are
// kind[:knob=val,...], e.g. "stencil:rows=16,halo=2",
// "paramserver:hot=1,updates=8", "prodcons:chunks=4,depth=4",
// "mixed:skew=hot,nb=75,seed=9"; separate several with ';' (specs
// contain commas). Named workloads have no lock phase, so -algs is
// ignored and crashheld fault plans are rejected.
//
// Cases run on a bounded worker pool (-j, default GOMAXPROCS); each
// case owns its kernel and seed, and results are emitted in case order,
// so the output is byte-identical at any -j.
//
// Usage:
//
//	armci-check                              # sim fabric, all algorithms, both syncs, 64 seeds
//	armci-check -seeds 256 -v                # deeper sweep, per-case progress
//	armci-check -j 8                         # eight concurrent case workers
//	armci-check -fabrics sim,chan,tcp        # add the concurrent fabrics
//	armci-check -faults 'loss=0.15,retry=12;dup=0.2;spike=1ms@0.2'
//	armci-check -coalesce                    # sweep with batched (coalesced) wire frames
//	armci-check -workload 'stencil;paramserver;prodcons;mixed'
//	armci-check -mutations                   # oracle self-test: broken variants must be caught
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"

	"armci"
	"armci/internal/check"
	"armci/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("armci-check: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main with its process surface factored out for tests: args are
// the command-line flags, output goes to out, and the exit code is
// returned instead of passed to os.Exit.
func run(args []string, out io.Writer) int {
	var algs, syncs []string
	for a := armci.LockHybrid; a <= armci.LockLease; a++ {
		algs = append(algs, a.String())
	}
	for _, s := range workload.Syncs {
		syncs = append(syncs, s.Name)
	}
	fs := flag.NewFlagSet("armci-check", flag.ExitOnError)
	var (
		fabricsF  = fs.String("fabrics", "sim", "comma-separated in-process fabrics: sim, chan, tcp")
		algsF     = fs.String("algs", "queue,hybrid,ticket,queue-nocas,lease", "comma-separated lock algorithms: "+strings.Join(algs, ", ")+" (empty entry = no lock phase)")
		workloadF = fs.String("workload", "", "semicolon-separated workload specs (specs contain commas), e.g. 'stencil:rows=16;mixed:skew=hot,nb=75'; replaces the lock/put/notify workload and ignores -algs")
		syncsF    = fs.String("syncs", "barrier,sync-old", "comma-separated sync variants: "+strings.Join(syncs, ", "))
		faultsF   = fs.String("faults", "", "semicolon-separated fault plans (plans contain commas), e.g. 'loss=0.15,retry=12;dup=0.2'")
		procs     = fs.Int("procs", 6, "user processes")
		ppn       = fs.Int("ppn", 2, "processes per node (ticket forces ppn=procs)")
		seeds     = fs.Int64("seeds", 64, "number of schedule-shuffle seeds to sweep")
		seedStart = fs.Int64("seed-start", 1, "first seed of the sweep (0 = FIFO baseline)")
		iters     = fs.Int("iters", 0, "critical sections per rank (0 = default)")
		rounds    = fs.Int("rounds", 0, "put+sync rounds (0 = default)")
		preset    = fs.String("preset", "", "cost model: myrinet2000, fast-ethernet, low-latency, zero (empty = default)")
		coalesce  = fs.Bool("coalesce", false, "run every case with per-destination op coalescing enabled (batched wire frames)")
		mutation  = fs.String("mutation", "", "run every case under this broken variant (replays a 'mutation=' reproducer)")
		workers   = fs.Int("j", runtime.GOMAXPROCS(0), "concurrent case workers (output is identical at any -j)")
		mutations = fs.Bool("mutations", false, "run the mutation self-test instead of the sweep: every deliberately broken variant must be detected")
		verbose   = fs.Bool("v", false, "print one line per case")
	)
	fs.Parse(args)

	if *mutations {
		return runMutations(out, *seedStart, *seedStart+*seeds-1, *verbose)
	}

	// A mutation of a fabric's substrate runs on that fabric alone.
	if *mutation != "" && !flagSet(fs, "fabrics") {
		*fabricsF = check.MutationFabric(*mutation).String()
	}
	fabrics, err := parseFabrics(*fabricsF)
	if err != nil {
		log.Print(err)
		return 2
	}
	// A workload-targeted mutation (acc-lost-update, flag-before-data)
	// carries its own scenario: default -workload and the spec's ppn
	// override from it so a bare `-mutation <name>` reproducer replays
	// without extra knobs, the way lease mutations default their TTL.
	if *mutation != "" && *workloadF == "" {
		if wl, wppn := check.MutationWorkload(*mutation); wl != "" {
			*workloadF = wl
			if wppn != 0 {
				*ppn = wppn
			}
		}
	}
	// A lock mutant replaces the lock of every case, whichever it names:
	// default -algs to the algorithm it is a mutant of, so each case runs
	// once and its reproducer names the lock that ran.
	if alg := check.MutationLock(*mutation); alg != "" && !flagSet(fs, "algs") {
		*algsF = alg
	}
	// The self-test sweeps mutations at MutationCase's deeper iteration
	// count; a replayed reproducer must run the identical case or the
	// printed seed may come up clean.
	if *mutation != "" && *iters == 0 {
		*iters = check.MutationIters
	}
	cases := check.Matrix(fabrics, splitPlans(*workloadF), splitList(*algsF),
		splitList(*syncsF), splitPlans(*faultsF), *procs, *ppn, *seedStart, *seedStart+*seeds-1)
	for i := range cases {
		cases[i].Iters = *iters
		cases[i].Rounds = *rounds
		cases[i].Preset = armci.CostPreset(*preset)
		cases[i].Coalesce = *coalesce
		cases[i].Mutation = *mutation
	}

	fmt.Fprintf(out, "sweeping %d cases (%d seeds from %d, %d workers)\n", len(cases), *seeds, *seedStart, *workers)
	s := check.RunAllParallel(cases, *workers, func(r check.Result) {
		switch {
		case r.Panicked:
			fmt.Fprintf(out, "PANIC %s: %v\n", r.Case.Reproducer(), r.Err)
		case r.Err != nil:
			fmt.Fprintf(out, "ERROR %s: %v\n", r.Case.Reproducer(), r.Err)
		case len(r.Violations) > 0:
			for _, v := range r.Violations {
				fmt.Fprintf(out, "FAIL  %s\n", v)
			}
		case *verbose:
			fmt.Fprintf(out, "ok    %s (%d events)\n", r.Case.Reproducer(), r.Events)
		}
	})
	fmt.Fprintf(out, "%d cases, %d protocol events, %d violations, %d errors, %d panics\n",
		s.Cases, s.Events, len(s.Violations), len(s.Errs), s.Panics)
	if len(s.Violations) > 0 || len(s.Errs) > 0 || s.Panics > 0 {
		return 1
	}
	return 0
}

// runMutations is the oracle self-test: sweep each deliberately broken
// algorithm variant until an oracle catches it, and fail if any bug
// survives the whole seed range — that would mean the oracles are blind
// to a bug class they exist to detect.
func runMutations(out io.Writer, seedLo, seedHi int64, verbose bool) int {
	code := 0
	for _, name := range check.Mutations() {
		r, ok := check.DetectMutation(name, seedLo, seedHi)
		if !ok {
			fmt.Fprintf(out, "BLIND %s: no seed in [%d,%d] exposed the bug\n", name, seedLo, seedHi)
			code = 1
			continue
		}
		fmt.Fprintf(out, "caught %s at seed %d: %s\n", name, r.Case.Seed, r.Violations[0])
		if verbose {
			for _, v := range r.Violations[1:] {
				fmt.Fprintf(out, "       also: %s\n", v)
			}
		}
	}
	return code
}

// flagSet reports whether the command line set the named flag.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func parseFabrics(s string) ([]armci.FabricKind, error) {
	var out []armci.FabricKind
	for _, f := range splitList(s) {
		k, err := armci.ParseFabric(f)
		if err != nil {
			return nil, err
		}
		if k == armci.FabricProc {
			// The harness explores schedules by replaying one case many
			// times inside this process; the proc fabric needs a real
			// multi-process launch per run and cannot be driven that way.
			return nil, fmt.Errorf("fabric proc runs across OS processes and is not drivable by the in-process conformance harness; smoke it with armci-run instead")
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		out = []armci.FabricKind{armci.FabricSim}
	}
	return out, nil
}

// splitList splits a comma-separated flag, trimming blanks but keeping
// an explicit empty entry (",x" = default variant plus x).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// splitPlans splits the -faults flag on ';': fault plans themselves
// contain commas.
func splitPlans(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ";")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
