package cluster

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"armci/internal/pipeline"
)

// Spec describes one multi-process launch: what to run, how many
// workers, and how to handle their output and failures.
type Spec struct {
	// Procs is the total user-rank count (-n of armci-run).
	Procs int
	// ProcsPerNode groups consecutive ranks onto one worker process.
	// Defaults to 1 — one process per rank, the paper's cluster shape.
	ProcsPerNode int
	// Command is the worker argv. Every worker runs the same command;
	// the launcher tells each which node it hosts via the environment.
	Command []string
	// ExtraEnv appends KEY=VALUE pairs to each worker's environment,
	// after the cluster variables.
	ExtraEnv []string
	// Output receives the per-rank prefixed stdout/stderr stream of
	// every worker. Defaults to os.Stdout; io.Discard silences it.
	Output io.Writer
	// OnLine, if non-nil, additionally receives every output line (with
	// the node that produced it, unprefixed) — the hook result
	// aggregation uses to pull machine-readable lines out of workers.
	OnLine func(node int, line string)
	// HeartbeatInterval and HeartbeatTimeout tune failure detection;
	// zero values select the coordinator/worker defaults.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// JoinTimeout bounds rendezvous; zero selects the default.
	JoinTimeout time.Duration
	// RunTimeout bounds the whole launch; on expiry workers are killed.
	// Defaults to 10 minutes.
	RunTimeout time.Duration
	// ForwardSignals relays SIGINT/SIGTERM received by the launcher to
	// every worker, so ^C of armci-run interrupts the whole job.
	ForwardSignals bool
	// Logf, if non-nil, receives launcher diagnostics.
	Logf func(format string, args ...any)
	// Elastic makes worker loss survivable: the coordinator respawns the
	// dead node's worker (same command, bumped incarnation) and drives
	// the membership recovery protocol instead of failing the launch.
	// One loss per launch is repaired; a later one fails it.
	Elastic bool
}

// Outcome is the aggregate result of one launch.
type Outcome struct {
	// Err is the overall failure: the coordinator's verdict if it
	// failed, otherwise the first worker exit error. nil means every
	// worker exited cleanly after a full drain.
	Err error
	// Fault is set when the failure was a rank-attributed cluster
	// fault (a worker died or went silent mid-run).
	Fault *pipeline.FaultError
	// WorkerErrs holds each worker's exit error, indexed by node.
	WorkerErrs []error
	// Elapsed is the wall-clock duration of the launch.
	Elapsed time.Duration
}

// newCookie draws the per-launch shared secret.
func newCookie() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("cluster: cookie: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Launch runs spec to completion: it starts a coordinator, spawns one
// worker process per node with rendezvous wired through the
// environment, streams their output, forwards signals, and aggregates
// exit statuses. The returned Outcome is always non-nil; Outcome.Err
// mirrors the error return.
func Launch(spec Spec) (*Outcome, error) {
	if len(spec.Command) == 0 {
		return nil, fmt.Errorf("cluster: launch needs a worker command")
	}
	if spec.Procs <= 0 {
		return nil, fmt.Errorf("cluster: launch needs Procs >= 1, got %d", spec.Procs)
	}
	if spec.ProcsPerNode <= 0 {
		spec.ProcsPerNode = 1
	}
	if spec.Output == nil {
		spec.Output = os.Stdout
	}
	if spec.RunTimeout <= 0 {
		spec.RunTimeout = 10 * time.Minute
	}
	logf := spec.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	cookie, err := newCookie()
	if err != nil {
		return nil, err
	}

	numNodes := (spec.Procs + spec.ProcsPerNode - 1) / spec.ProcsPerNode
	start := time.Now()
	out := &Outcome{WorkerErrs: make([]error, numNodes)}

	var outMu sync.Mutex   // serializes interleaved worker output lines
	var spawnMu sync.Mutex // guards cmds, spawn generations, live count, WorkerErrs writes
	cmds := make([]*exec.Cmd, numNodes)
	gens := make([]int, numNodes) // spawn generation per node; only the latest reports its exit
	live := 0                     // workers whose scanner goroutine has not finished
	var wg sync.WaitGroup

	// spawn starts one worker process for a node slot. Respawns (elastic
	// recoveries) reuse it with a bumped incarnation; only the latest
	// generation's exit status counts, so a killed first incarnation does
	// not fail a successfully recovered launch.
	spawn := func(we WorkerEnv) error {
		cmd := exec.Command(spec.Command[0], spec.Command[1:]...)
		cmd.Env = append(append(os.Environ(), we.Environ()...), spec.ExtraEnv...)
		stdout, perr := cmd.StdoutPipe()
		if perr != nil {
			return fmt.Errorf("cluster: worker %d pipe: %w", we.Node, perr)
		}
		cmd.Stderr = cmd.Stdout // one interleaved stream per worker

		spawnMu.Lock()
		if serr := cmd.Start(); serr != nil {
			spawnMu.Unlock()
			return fmt.Errorf("cluster: spawn worker %d (%s): %w", we.Node, spec.Command[0], serr)
		}
		cmds[we.Node] = cmd
		gens[we.Node]++
		gen := gens[we.Node]
		// live > 0 guarantees the WaitGroup counter is positive, so this
		// Add cannot race a completed Wait.
		live++
		wg.Add(1)
		spawnMu.Unlock()
		logf("cluster: worker node %d started (pid %d, incarnation %d)", we.Node, cmd.Process.Pid, we.Incarnation)

		prefix := fmt.Sprintf("[rank %d] ", we.FirstRank())
		if spec.ProcsPerNode > 1 {
			last := we.FirstRank() + len(we.LocalRanks()) - 1
			prefix = fmt.Sprintf("[rank %d-%d] ", we.FirstRank(), last)
		}
		go func(node, gen int, r io.Reader, prefix string, cmd *exec.Cmd) {
			sc := bufio.NewScanner(r)
			sc.Buffer(make([]byte, 64*1024), 1<<20)
			for sc.Scan() {
				line := sc.Text()
				outMu.Lock()
				fmt.Fprintf(spec.Output, "%s%s\n", prefix, line)
				outMu.Unlock()
				if spec.OnLine != nil {
					spec.OnLine(node, line)
				}
			}
			// Wait only after the pipe hits EOF: Wait closes the pipe and
			// would race the scanner out of the worker's final lines.
			werr := cmd.Wait()
			spawnMu.Lock()
			if gen == gens[node] {
				out.WorkerErrs[node] = werr
			}
			live--
			spawnMu.Unlock()
			wg.Done()
		}(we.Node, gen, stdout, prefix, cmd)
		return nil
	}

	workerEnv := func(node int) WorkerEnv {
		return WorkerEnv{
			Node:              node,
			Procs:             spec.Procs,
			ProcsPerNode:      spec.ProcsPerNode,
			Cookie:            cookie,
			HeartbeatInterval: spec.HeartbeatInterval,
			JoinTimeout:       spec.JoinTimeout,
			Elastic:           spec.Elastic,
		}
	}

	var co *Coordinator
	co, err = NewCoordinator(Config{
		Procs:            spec.Procs,
		ProcsPerNode:     spec.ProcsPerNode,
		Cookie:           cookie,
		JoinTimeout:      spec.JoinTimeout,
		HeartbeatTimeout: spec.HeartbeatTimeout,
		Logf:             spec.Logf,
		Elastic:          spec.Elastic,
		Respawn: func(node int, incarnation uint32, viewEpoch uint64) error {
			spawnMu.Lock()
			dead := live == 0
			spawnMu.Unlock()
			if dead {
				return fmt.Errorf("cluster: no live workers left to recover alongside node %d", node)
			}
			we := workerEnv(node)
			we.Addr = co.Addr()
			we.Incarnation = incarnation
			we.ViewEpoch = viewEpoch
			return spawn(we)
		},
	})
	if err != nil {
		return nil, err
	}
	defer co.Close()

	killLatest := func() {
		spawnMu.Lock()
		snapshot := append([]*exec.Cmd(nil), cmds...)
		spawnMu.Unlock()
		killAll(snapshot)
	}

	for node := 0; node < numNodes; node++ {
		we := workerEnv(node)
		we.Addr = co.Addr()
		if serr := spawn(we); serr != nil {
			killLatest()
			return fail(out, start, serr)
		}
	}

	if spec.ForwardSignals {
		sigCh := make(chan os.Signal, 2)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer func() {
			// Stop guarantees no further delivery, so the close is safe
			// and ends the forwarding goroutine below.
			signal.Stop(sigCh)
			close(sigCh)
		}()
		go func() {
			for sig := range sigCh {
				logf("cluster: forwarding %v to %d workers", sig, numNodes)
				spawnMu.Lock()
				snapshot := append([]*exec.Cmd(nil), cmds...)
				spawnMu.Unlock()
				for _, cmd := range snapshot {
					if cmd != nil && cmd.Process != nil {
						cmd.Process.Signal(sig)
					}
				}
			}
		}()
	}

	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	coordDone := make(chan error, 1)
	go func() { coordDone <- co.Wait() }()

	var coordErr error
	select {
	case <-workersDone:
		// All workers exited; the coordinator's verdict settles
		// immediately after the last connection closes.
		select {
		case coordErr = <-coordDone:
		case <-time.After(5 * time.Second):
			coordErr = fmt.Errorf("cluster: workers exited but the coordinator never settled")
		}
	case coordErr = <-coordDone:
		// Coordinator settled first — clean drain or a fault broadcast.
		// Give workers a grace window to act on it, then kill leftovers.
		select {
		case <-workersDone:
		case <-time.After(5 * time.Second):
			logf("cluster: killing workers that outlived the coordinator verdict")
			killLatest()
			<-workersDone
		}
	case <-time.After(spec.RunTimeout):
		killLatest()
		co.Close()
		<-workersDone
		return fail(out, start, fmt.Errorf("cluster: run timeout: launch still going after %v", spec.RunTimeout))
	}

	out.Elapsed = time.Since(start)
	errors.As(coordErr, &out.Fault)
	if coordErr != nil {
		out.Err = coordErr
	} else {
		for node, werr := range out.WorkerErrs {
			if werr != nil {
				out.Err = fmt.Errorf("cluster: worker node %d: %w", node, werr)
				break
			}
		}
	}
	return out, out.Err
}

func fail(out *Outcome, start time.Time, err error) (*Outcome, error) {
	out.Elapsed = time.Since(start)
	out.Err = err
	return out, err
}

func killAll(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}
