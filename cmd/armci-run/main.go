// Command armci-run is the mpirun-style launcher for the multi-process
// proc fabric: it spawns one worker OS process per SMP node, wires the
// rendezvous through environment variables, streams each worker's
// output with a per-rank prefix, forwards signals, and aggregates exit
// statuses. A worker that dies mid-run is detected by the coordinator
// (connection loss or missed heartbeats) and the launch terminates
// promptly with the dead worker's rank.
//
// Usage:
//
//	armci-run -n 8 -- ./myprog -flag …   # external program; it must run
//	                                     # armci with Fabric: proc
//	armci-run -n 8 -workload fig7        # built-in Fig. 7 point (self-exec)
//	armci-run -n 4 -workload fig7-small  # smoke-sized variant for CI
//
// With -ppn k, each worker process hosts k consecutive ranks as one SMP
// node (n must be a multiple of k). A flag the chosen launch would not
// use (-faults for fig7, -reps for elastic, …) is refused, not ignored.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"armci"
	"armci/internal/bench"
	"armci/internal/cluster"
	"armci/internal/elastic"
	"armci/internal/pipeline"
)

// launch is one invocation's command line, checked: what armci-run starts.
type launch struct {
	n, ppn   int
	workload string   // fig7, fig7-small or elastic; "" launches command
	command  []string // the external program and its arguments
	// The fig7 workloads' shape (0: the workload's default).
	reps, block, patch int
	// The elastic workload's epochs and fault plan.
	steps   int
	faults  string
	plan    armci.Faults
	elastic bool
	timeout time.Duration
	quiet   bool
	verbose bool
	worker  bool
}

// parseArgs maps the command line to a launch. Every flag either acts on
// the chosen launch or is an error that names it: a flag the launch would
// silently drop is refused.
func parseArgs(args []string) (launch, error) {
	var l launch
	fs := flag.NewFlagSet("armci-run", flag.ExitOnError)
	fs.IntVar(&l.n, "n", 4, "total number of ranks (user processes)")
	fs.IntVar(&l.ppn, "ppn", 1, "ranks per SMP node; one worker OS process is spawned per node")
	fs.StringVar(&l.workload, "workload", "", "built-in workload instead of an external program: fig7, fig7-small, elastic")
	fs.IntVar(&l.reps, "reps", 0, "fig7: timed repetitions per point (default per workload)")
	fs.IntVar(&l.block, "block", 0, "fig7: per-process block edge in elements (default per workload)")
	fs.IntVar(&l.patch, "patch", 0, "fig7: patch edge written to every remote block (default per workload)")
	fs.IntVar(&l.steps, "steps", 0, "elastic: sync epochs of replicated work (default 6)")
	fs.StringVar(&l.faults, "faults", "", "elastic: fault plan (armci-bench grammar; the workload honors crashrank=<r>@<n>)")
	fs.BoolVar(&l.elastic, "elastic", false, "repair worker loss by respawn instead of failing the launch (requires -ppn 1)")
	fs.DurationVar(&l.timeout, "timeout", 0, "kill the launch after this long (default 10m)")
	fs.BoolVar(&l.quiet, "q", false, "built-in workloads: suppress worker output (the result line still prints)")
	fs.BoolVar(&l.verbose, "v", false, "log coordinator diagnostics to stderr (external programs and elastic)")
	fs.BoolVar(&l.worker, "worker", false, "internal: run as a spawned workload worker (set by the launcher)")
	fs.Parse(args)
	l.command = fs.Args()
	if l.worker {
		return l, nil // the launcher wrote these arguments
	}

	if l.n <= 0 {
		return l, fmt.Errorf("-n %d: want a positive rank count", l.n)
	}
	if l.ppn <= 0 || l.n%l.ppn != 0 {
		return l, fmt.Errorf("-ppn %d: rank count %d must be a positive multiple of it", l.ppn, l.n)
	}
	if (l.workload == "") == (len(l.command) == 0) {
		return l, errors.New("want exactly one of -workload <name> or a program after -- (e.g. armci-run -n 8 -- ./myprog)")
	}
	if l.elastic && l.ppn != 1 {
		// Elastic recovery replaces whole worker processes; with more
		// than one rank per node a single respawn would have to rebuild
		// several ranks' memory at once, which the replication protocol
		// does not cover.
		return l, fmt.Errorf("-elastic requires -ppn 1, got -ppn %d", l.ppn)
	}
	fig7 := l.workload == "fig7" || l.workload == "fig7-small"
	isElastic := l.workload == "elastic"
	target := "an external program"
	switch {
	case fig7 || isElastic:
		target = "-workload " + l.workload
	case l.workload != "":
		return l, fmt.Errorf("unknown -workload %q (want fig7, fig7-small or elastic)", l.workload)
	}
	for _, f := range []struct {
		flag      string
		set, used bool
		users     string
	}{
		{"-reps", l.reps != 0, fig7, "the fig7 workloads"},
		{"-block", l.block != 0, fig7, "the fig7 workloads"},
		{"-patch", l.patch != 0, fig7, "the fig7 workloads"},
		{"-steps", l.steps != 0, isElastic, "the elastic workload"},
		{"-faults", l.faults != "", isElastic, "the elastic workload"},
		{"-ppn", l.ppn != 1, !isElastic, "the fig7 workloads and external programs (elastic runs one rank per worker)"},
		{"-elastic", l.elastic, !fig7, "the elastic workload and external programs"},
		{"-v", l.verbose, !fig7, "the elastic workload and external programs"},
		{"-q", l.quiet, fig7 || isElastic, "the built-in workloads"},
	} {
		if f.set && !f.used {
			return l, fmt.Errorf("%s is for %s; %s would ignore it", f.flag, f.users, target)
		}
	}
	if isElastic {
		plan, err := armci.ParseFaults(l.faults)
		if err != nil {
			return l, fmt.Errorf("-faults %q: %w", l.faults, err)
		}
		if plan.ElasticCrashStep > 0 && !l.elastic {
			return l, errors.New("-faults crashrank kills a worker for real under the proc fabric; add -elastic to recover it")
		}
		l.plan = plan
	}
	return l, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("armci-run: ")
	l, err := parseArgs(os.Args[1:])
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	switch {
	case l.worker:
		os.Exit(runWorker(l))
	case l.workload == "elastic":
		os.Exit(runElasticWorkload(l))
	case l.workload != "":
		os.Exit(runWorkload(l))
	}

	// External-program mode: the spawned program reads the rendezvous
	// from the environment when it runs armci with the proc fabric.
	out, err := cluster.Launch(cluster.Spec{
		Procs:          l.n,
		ProcsPerNode:   l.ppn,
		Command:        l.command,
		RunTimeout:     l.timeout,
		ForwardSignals: true,
		Logf:           l.logf(),
		Elastic:        l.elastic,
	})
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(reportOutcome(out))
}

// logf is the coordinator's diagnostic log: stderr under -v, else none.
func (l launch) logf() func(string, ...any) {
	if !l.verbose {
		return nil
	}
	return func(format string, args ...any) { log.Printf(format, args...) }
}

// reportOutcome prints the launch verdict and maps it to an exit code.
func reportOutcome(out *cluster.Outcome) int {
	if out.Err == nil {
		fmt.Printf("armci-run: all ranks finished cleanly in %v\n", out.Elapsed.Round(time.Millisecond))
		return 0
	}
	if out.Fault != nil {
		log.Printf("rank %d lost: %v", out.Fault.Rank, out.Err)
	} else {
		log.Printf("launch failed: %v", out.Err)
	}
	return 1
}

// runWorkload self-execs this binary as the launch's worker processes,
// each dispatching into runWorker via the hidden -worker flag.
func runWorkload(l launch) int {
	self, err := os.Executable()
	if err != nil {
		log.Printf("resolving own binary for self-exec: %v", err)
		return 2
	}
	argv := []string{self, "-worker", "-workload", l.workload,
		"-n", fmt.Sprint(l.n),
		"-reps", fmt.Sprint(l.reps),
		"-block", fmt.Sprint(l.block),
		"-patch", fmt.Sprint(l.patch)}
	var output io.Writer
	if l.quiet {
		output = io.Discard
	}
	row, err := bench.LaunchFig7Proc(bench.Fig7ProcLaunch{
		Procs:        l.n,
		ProcsPerNode: l.ppn,
		Command:      argv,
		Output:       output,
		RunTimeout:   l.timeout,
	})
	if err != nil {
		var fe *pipeline.FaultError
		if errors.As(err, &fe) {
			log.Printf("rank %d lost: %v", fe.Rank, err)
		} else {
			log.Printf("%s: %v", l.workload, err)
		}
		return 1
	}
	fmt.Printf("fig7 (proc fabric, %d ranks, %d/node): old=%.1fus new=%.1fus factor=%.2f\n",
		l.n, l.ppn, row.OldUS, row.NewUS, row.Factor)
	return 0
}

// runElasticWorkload launches the elastic-replication workload: every
// rank streams dirty-page deltas to a deterministic peer each sync
// epoch, and — with -elastic and a crashrank fault — one worker is
// killed mid-epoch and recovered by respawn. The launcher aggregates
// the per-rank ELASTIC_FP lines and fails unless every rank (including
// a respawned one) reports the same cluster fingerprint.
func runElasticWorkload(l launch) int {
	n, plan := l.n, l.plan
	self, err := os.Executable()
	if err != nil {
		log.Printf("resolving own binary for self-exec: %v", err)
		return 2
	}
	argv := []string{self, "-worker", "-workload", "elastic",
		"-n", fmt.Sprint(n),
		"-steps", fmt.Sprint(l.steps),
		"-faults", l.faults}
	output := io.Writer(os.Stdout)
	if l.quiet {
		output = io.Discard
	}
	var mu sync.Mutex
	fps := make(map[int]string)
	recovered := 0
	out, err := cluster.Launch(cluster.Spec{
		Procs:          n,
		ProcsPerNode:   1,
		Command:        argv,
		Output:         output,
		RunTimeout:     l.timeout,
		ForwardSignals: true,
		Logf:           l.logf(),
		Elastic:        l.elastic,
		OnLine: func(node int, line string) {
			var fp string
			var rec, inc int
			if _, serr := fmt.Sscanf(line, "ELASTIC_FP %s recovered=%d incarnation=%d", &fp, &rec, &inc); serr == nil {
				mu.Lock()
				fps[node] = fp
				recovered += rec
				mu.Unlock()
			}
		},
	})
	if err != nil {
		if out != nil && out.Fault != nil {
			log.Printf("rank %d lost: %v", out.Fault.Rank, err)
		} else {
			log.Printf("elastic: %v", err)
		}
		return 1
	}
	if len(fps) != n {
		log.Printf("elastic: got fingerprints from %d of %d ranks", len(fps), n)
		return 1
	}
	for node := 1; node < n; node++ {
		if fps[node] != fps[0] {
			log.Printf("elastic: rank %d fingerprint %s diverges from rank 0's %s", node, fps[node], fps[0])
			return 1
		}
	}
	if want := fmt.Sprintf("0x%016x", elastic.Oracle(elastic.Config{Steps: l.steps}, n)); fps[0] != want {
		log.Printf("elastic: cluster fingerprint %s diverges from the pure-replay oracle %s — ops lost or duplicated", fps[0], want)
		return 1
	}
	if plan.ElasticCrashStep > 0 && recovered == 0 {
		log.Printf("elastic: crashrank fault armed but no rank reported a recovery")
		return 1
	}
	status := "no faults"
	if plan.ElasticCrashStep > 0 {
		status = fmt.Sprintf("rank %d killed at epoch %d and recovered", plan.ElasticCrashRank, plan.ElasticCrashStep)
	}
	fmt.Printf("elastic (proc fabric, %d ranks): fingerprint %s on all ranks, %s, %v\n",
		n, fps[0], status, out.Elapsed.Round(time.Millisecond))
	return 0
}

// runElasticWorker is the per-worker body of the elastic workload.
func runElasticWorker(n, steps int, faults string) int {
	plan, err := armci.ParseFaults(faults)
	if err != nil {
		log.Printf("worker: -faults %q: %v", faults, err)
		return 2
	}
	var res elastic.Result
	_, err = armci.Run(armci.Options{
		Procs:  n,
		Fabric: armci.FabricProc,
		Faults: plan,
	}, func(p *armci.Proc) {
		res = elastic.Run(p, elastic.Config{Steps: steps})
	})
	if err != nil {
		log.Printf("worker: %s", strings.ReplaceAll(err.Error(), "\n", "; "))
		return 1
	}
	rec := 0
	if res.Recovered {
		rec = 1
	}
	// One machine-readable line per rank; the launcher aggregates.
	fmt.Printf("ELASTIC_FP 0x%016x recovered=%d incarnation=%d\n", res.Fingerprint, rec, res.Incarnation)
	return 0
}

// runWorker is the body of one spawned workload worker. The rendezvous
// comes from the environment the launcher set.
func runWorker(l launch) int {
	if l.workload == "elastic" {
		return runElasticWorker(l.n, l.steps, l.faults)
	}
	opts := bench.Fig7Opts{BlockDim: l.block, PatchDim: l.patch}
	opts.Reps = l.reps
	switch l.workload {
	case "fig7":
	case "fig7-small":
		if opts.BlockDim == 0 {
			opts.BlockDim = 16
		}
		if opts.PatchDim == 0 {
			opts.PatchDim = 4
		}
		if opts.Reps == 0 {
			opts.Reps = 5
		}
	default:
		log.Printf("worker: unknown workload %q", l.workload)
		return 2
	}
	if err := bench.RunFig7ProcWorker(opts, l.n); err != nil {
		// Keep the message on one line: the launcher prefixes and
		// multiplexes this stream with the other ranks'.
		log.Printf("worker: %s", strings.ReplaceAll(err.Error(), "\n", "; "))
		return 1
	}
	return 0
}
