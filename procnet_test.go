package armci_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"armci"
	"armci/internal/bench"
	"armci/internal/cluster"
	"armci/internal/elastic"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/trace"
	"armci/internal/workload"
)

// The multi-process tests re-execute this test binary as the launch's
// worker processes (the standard helper-process pattern): TestMain
// dispatches on an environment variable the launcher adds on top of the
// cluster rendezvous variables, so a worker never enters the test
// runner at all.
func TestMain(m *testing.M) {
	switch wl := os.Getenv("ARMCI_PROCNET_TEST_WORKLOAD"); wl {
	case "":
		os.Exit(m.Run())
	case "ring":
		os.Exit(procWorkerRing())
	case "coalring":
		os.Exit(procWorkerCoalRing())
	case "die":
		os.Exit(procWorkerDie())
	case "elastic":
		os.Exit(procWorkerElastic())
	case "fig7":
		os.Exit(procWorkerFig7())
	case "workload":
		os.Exit(procWorkerWorkload())
	case "hier":
		os.Exit(procWorkerHier())
	default:
		fmt.Fprintf(os.Stderr, "unknown ARMCI_PROCNET_TEST_WORKLOAD %q\n", wl)
		os.Exit(2)
	}
}

const (
	procRingProcs = 4
	procRingLaps  = 3
	// procDieVictim is the rank that kills its own process mid-run in
	// the failure-detection test.
	procDieVictim = 1
)

// procTokenRing is the parity workload: a token makes laps around the
// ranks, incremented at every hop, so exactly one message chain is ever
// in flight and the protocol-level message stream is identical on every
// fabric.
func procTokenRing(p *armci.Proc) {
	me, n := p.Rank(), p.Size()
	token := make([]byte, 8)
	for lap := 0; lap < procRingLaps; lap++ {
		if me == 0 {
			binary.LittleEndian.PutUint64(token, uint64(lap+1))
			userSend(p, 1%n, lap, token)
			got := userRecv(p, n-1, lap)
			if v := binary.LittleEndian.Uint64(got); v != uint64(lap+1+n-1) {
				panic(fmt.Sprintf("lap %d: token came back as %d, want %d", lap, v, lap+1+n-1))
			}
		} else {
			got := userRecv(p, me-1, lap)
			binary.LittleEndian.PutUint64(token, binary.LittleEndian.Uint64(got)+1)
			userSend(p, (me+1)%n, lap, token)
		}
	}
}

// procWorkerRing runs the token ring as one cluster worker and prints
// its local trace fingerprint for the launcher-side parity check.
func procWorkerRing() int {
	we, ok, err := cluster.FromEnv()
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "ring worker needs the cluster environment (err=%v)\n", err)
		return 2
	}
	rep, err := armci.Run(armci.Options{
		Procs:        we.Procs,
		ProcsPerNode: we.ProcsPerNode,
		Fabric:       armci.FabricProc,
		CaptureTrace: true,
		OpDeadline:   30 * time.Second,
	}, procTokenRing)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	writes, _ := rep.Stats.LinkWrites()
	fmt.Printf("RING_FP node=%d fp=%s writes=%d sends=%d\n", we.Node, fingerprint(rep.Stats), writes, rep.Stats.Sends())
	return 0
}

const (
	procCoalLaps       = 3
	procCoalChunks     = 3
	procCoalChunkBytes = 64
)

func procCoalChunk(lap, src, k int) []byte {
	b := make([]byte, procCoalChunkBytes)
	for i := range b {
		b[i] = byte(lap*89 + src*13 + k*5 + i)
	}
	return b
}

// procCoalBaton is the coalesced parity workload: a flag-passing baton
// ring in which each rank streams chunked puts plus a PutFlag notify to
// its right neighbor, and the neighbor only starts sending after
// WaitFlag. Exactly one rank's data traffic is in flight at a time, so
// the stream of batched frames is data-dependent, not
// schedule-dependent.
func procCoalBaton(p *armci.Proc) {
	me, n := p.Rank(), p.Size()
	bufs := p.Malloc(procCoalChunks * procCoalChunkBytes)
	flags := p.MallocWords(1)
	next, prev := (me+1)%n, (me-1+n)%n
	p.MPIBarrier()
	for lap := 0; lap < procCoalLaps; lap++ {
		send := func() {
			for k := 0; k < procCoalChunks-1; k++ {
				p.Put(bufs[next].Add(int64(k*procCoalChunkBytes)), procCoalChunk(lap, me, k))
			}
			p.PutFlag(bufs[next].Add(int64((procCoalChunks-1)*procCoalChunkBytes)),
				procCoalChunk(lap, me, procCoalChunks-1), flags[next], int64(lap+1))
		}
		recv := func() {
			p.WaitFlag(flags[me], int64(lap+1))
			for k := 0; k < procCoalChunks; k++ {
				got := p.Get(bufs[me].Add(int64(k*procCoalChunkBytes)), procCoalChunkBytes)
				if !bytes.Equal(got, procCoalChunk(lap, prev, k)) {
					panic(fmt.Sprintf("lap %d: rank %d read stale chunk %d from rank %d", lap, me, k, prev))
				}
			}
		}
		if me == 0 {
			send()
			recv()
		} else {
			recv()
			send()
		}
	}
}

// coalRingTraffic selects the baton ring's own messages — batched
// frames, puts, flag stores — and excludes collective traffic (Malloc's
// allgather, barriers), whose message order IS schedule-dependent.
func coalRingTraffic(e trace.Event) bool {
	return e.Kind == msg.KindBatch || e.Kind == msg.KindPut || e.Kind == msg.KindRmw
}

// procWorkerCoalRing runs the coalesced baton ring as one cluster
// worker and prints the fingerprint of its local ring traffic for the
// launcher-side parity check.
func procWorkerCoalRing() int {
	we, ok, err := cluster.FromEnv()
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "coalring worker needs the cluster environment (err=%v)\n", err)
		return 2
	}
	rep, err := armci.Run(armci.Options{
		Procs:        we.Procs,
		ProcsPerNode: we.ProcsPerNode,
		Fabric:       armci.FabricProc,
		Coalesce:     armci.Coalesce{Enabled: true},
		CaptureTrace: true,
		OpDeadline:   30 * time.Second,
	}, procCoalBaton)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var ring []trace.Event
	for _, e := range rep.Stats.Timeline() {
		if coalRingTraffic(e) {
			ring = append(ring, e)
		}
	}
	fmt.Printf("COALRING_FP node=%d fp=%s\n", we.Node, trace.FingerprintEvents(ring))
	return 0
}

// procWorkerDie runs a two-barrier workload in which one rank kills its
// own OS process between the barriers. Survivors must not hang: the
// coordinator attributes the loss and broadcasts the fault, which
// aborts their blocked barrier with the victim's rank.
func procWorkerDie() int {
	we, ok, err := cluster.FromEnv()
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "die worker needs the cluster environment (err=%v)\n", err)
		return 2
	}
	_, err = armci.Run(armci.Options{
		Procs:        we.Procs,
		ProcsPerNode: we.ProcsPerNode,
		Fabric:       armci.FabricProc,
		OpDeadline:   30 * time.Second,
	}, func(p *armci.Proc) {
		p.Barrier()
		if p.Rank() == procDieVictim {
			os.Exit(7) // die abruptly, mid-protocol, without any goodbye
		}
		p.Barrier() // the victim never arrives; only the fault ends this
	})
	var fe *pipeline.FaultError
	if errors.As(err, &fe) {
		fmt.Printf("DIE_FAULT node=%d rank=%d kind=%q\n", we.Node, fe.Rank, fe.Kind)
		return 0 // expected on every survivor
	}
	fmt.Fprintf(os.Stderr, "want a rank-attributed fault, got %v\n", err)
	return 1
}

// procWorkerElastic runs the elastic-replication workload as a cluster
// worker: it makes this rank's Space recoverable (delta replication to
// the right neighbor each sync epoch) and, when the fault plan arms
// crashrank, one incarnation of the victim exits mid-epoch for real.
// The respawned incarnation restores from the peer replica and the run
// completes with the crash-free fingerprint.
func procWorkerElastic() int {
	we, ok, err := cluster.FromEnv()
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "elastic worker needs the cluster environment (err=%v)\n", err)
		return 2
	}
	plan, err := armci.ParseFaults(os.Getenv("ARMCI_PROCNET_TEST_FAULTS"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var res elastic.Result
	_, err = armci.Run(armci.Options{
		Procs:  we.Procs,
		Fabric: armci.FabricProc,
		Faults: plan,
	}, func(p *armci.Proc) {
		res = elastic.Run(p, elastic.Config{Steps: 4})
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rec := 0
	if res.Recovered {
		rec = 1
	}
	fmt.Printf("ELASTIC_FP node=%d fp=0x%016x rec=%d inc=%d\n", we.Node, res.Fingerprint, rec, res.Incarnation)
	return 0
}

// procWorkloadSeed pins the generator seed of the parity runs, so every
// fabric executes the identical generated program.
const procWorkloadSeed = 42

// procWorkerWorkload runs one generated workload (internal/workload) as
// a cluster worker and prints the fingerprint of its own rank's sends.
// Only user-endpoint traffic is digested: a rank's program is sequential
// so its request stream is program-ordered, while its data server
// interleaves requests from whoever arrives first.
func procWorkerWorkload() int {
	we, ok, err := cluster.FromEnv()
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "workload worker needs the cluster environment (err=%v)\n", err)
		return 2
	}
	sp, err := workload.Parse(os.Getenv("ARMCI_PROCNET_TEST_SPEC"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rep, err := armci.Run(armci.Options{
		Procs:        we.Procs,
		ProcsPerNode: we.ProcsPerNode,
		Fabric:       armci.FabricProc,
		CaptureTrace: true,
		OpDeadline:   30 * time.Second,
	}, workload.Build(sp, workload.Config{Seed: procWorkloadSeed}))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var own []trace.Event
	for _, e := range rep.Stats.Timeline() {
		if e.Src == msg.User(we.Node) { // ppn=1: rank == node
			own = append(own, e)
		}
	}
	fmt.Printf("WL_FP node=%d fp=%s\n", we.Node, trace.FingerprintEvents(own))
	return 0
}

// Hierarchical parity shape: two ranks per worker process, so the
// hierarchical barrier's intra-node stage runs inside one OS process
// while its leader exchange crosses real sockets.
const (
	procHierProcs  = 6
	procHierPPN    = 2
	procHierRounds = 3
)

// procHierBody is the put-round workload of the hierarchical parity
// tests: store to a rotating peer, synchronize with the hierarchical
// combined barrier, verify the fence made the store visible, and
// synchronize again before the next round overwrites. Every send is
// program-ordered and data-dependent, so per-rank fingerprints are
// fabric-invariant.
func procHierBody(p *armci.Proc) {
	me, n := p.Rank(), p.Size()
	slots := p.MallocWords(n)
	for r := 0; r < procHierRounds; r++ {
		shift := 1 + r%(n-1)
		dst := (me + shift) % n
		p.Store(slots[dst].Add(int64(me)), int64((r+1)*1000+me+1))
		p.Barrier()
		src := ((me-shift)%n + n) % n
		if got := p.Load(slots[me].Add(int64(src))); got != int64((r+1)*1000+src+1) {
			panic(fmt.Sprintf("round %d: rank %d read %d from rank %d (store escaped the fence)",
				r, me, got, src))
		}
		p.Barrier()
	}
}

// procHierNodeFingerprint digests one node's sends as per-rank parts
// joined in rank order: a rank's own stream is program-ordered, but the
// interleaving of the node's two ranks in the capture is
// schedule-dependent and must not enter the digest.
func procHierNodeFingerprint(events []trace.Event, node int) string {
	var parts []string
	for r := node * procHierPPN; r < (node+1)*procHierPPN && r < procHierProcs; r++ {
		var own []trace.Event
		for _, e := range events {
			if e.Src == msg.User(r) {
				own = append(own, e)
			}
		}
		parts = append(parts, fmt.Sprintf("r%d:%s", r, trace.FingerprintEvents(own)))
	}
	return strings.Join(parts, ",")
}

// procWorkerHier runs the hierarchical-barrier put rounds as one
// cluster worker (hosting a whole node's ranks) and prints its node's
// per-rank send fingerprints for the launcher-side parity check.
func procWorkerHier() int {
	we, ok, err := cluster.FromEnv()
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "hier worker needs the cluster environment (err=%v)\n", err)
		return 2
	}
	rep, err := armci.Run(armci.Options{
		Procs:        we.Procs,
		ProcsPerNode: we.ProcsPerNode,
		Fabric:       armci.FabricProc,
		BarrierAlg:   armci.BarrierHierarchical,
		CaptureTrace: true,
		OpDeadline:   30 * time.Second,
	}, procHierBody)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("HIER_FP node=%d fp=%s\n", we.Node, procHierNodeFingerprint(rep.Stats.Timeline(), we.Node))
	return 0
}

// procWorkerFig7 runs the smoke-sized Figure 7 point; the launch size
// comes from the cluster environment.
func procWorkerFig7() int {
	we, ok, err := cluster.FromEnv()
	if err != nil || !ok {
		fmt.Fprintf(os.Stderr, "fig7 worker needs the cluster environment (err=%v)\n", err)
		return 2
	}
	opts := bench.Fig7Opts{BlockDim: 16, PatchDim: 4}
	opts.Reps = 15
	if err := bench.RunFig7ProcWorker(opts, we.Procs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// procSrcNode maps a send event's source endpoint to the node that
// recorded it. The tests run one rank per node with no NIC assist, so
// both user and server IDs are the node index.
func procSrcNode(a msg.Addr) int { return a.ID() }

// TestProcnetRingParityWithTCP is the cross-fabric parity check: the
// token ring's send stream, restricted to each node, must be identical
// between the in-process TCP fabric and the multi-process proc fabric.
// Each procnet worker records exactly its own node's sends, so its
// local fingerprint must equal the fingerprint of the TCP run's global
// capture filtered to that node. Each worker also counts the writes its
// pair connections made: at least one, and no more than its sends.
func TestProcnetRingParityWithTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	rep, err := armci.Run(armci.Options{
		Procs:        procRingProcs,
		Fabric:       armci.FabricTCP,
		CaptureTrace: true,
		OpDeadline:   30 * time.Second,
	}, procTokenRing)
	if err != nil {
		t.Fatalf("tcp baseline: %v", err)
	}
	events := rep.Stats.Timeline()
	if len(events) == 0 {
		t.Fatal("tcp baseline captured no events")
	}
	want := make([]string, procRingProcs)
	for node := range want {
		var local []trace.Event
		for _, e := range events {
			if procSrcNode(e.Src) == node {
				local = append(local, e)
			}
		}
		want[node] = trace.FingerprintEvents(local)
	}

	got := make([]string, procRingProcs)
	var mu sync.Mutex
	out, err := cluster.Launch(cluster.Spec{
		Procs:      procRingProcs,
		Command:    []string{testExe(t)},
		ExtraEnv:   []string{"ARMCI_PROCNET_TEST_WORKLOAD=ring"},
		Output:     io.Discard,
		RunTimeout: 2 * time.Minute,
		OnLine: func(node int, line string) {
			fp, ok := parseTagged(line, "RING_FP", "fp")
			if !ok {
				return
			}
			w, _ := parseTagged(line, "RING_FP", "writes")
			s, _ := parseTagged(line, "RING_FP", "sends")
			writes, _ := strconv.Atoi(w)
			sends, _ := strconv.Atoi(s)
			if writes < 1 || writes > sends {
				t.Errorf("node %d: %d link writes for %d sends", node, writes, sends)
			}
			mu.Lock()
			got[node] = fp
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("proc launch: %v (outcome %+v)", err, out)
	}
	mu.Lock()
	defer mu.Unlock()
	for node := range want {
		if got[node] == "" {
			t.Errorf("node %d printed no RING_FP line", node)
			continue
		}
		if got[node] != want[node] {
			t.Errorf("node %d send stream diverged between fabrics:\ntcp  %s\nproc %s", node, want[node], got[node])
		}
	}
}

// TestProcnetCoalescedRingParityWithTCP extends the cross-fabric
// parity check to the coalescing path: the flag-passing baton ring's
// batched frames, restricted to each node's sends, must be identical
// between the in-process TCP fabric and the multi-process proc fabric.
// This proves the coalescer packs and flushes frames at deterministic
// program points regardless of substrate, even when each origin runs in
// its own OS process.
func TestProcnetCoalescedRingParityWithTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	rep, err := armci.Run(armci.Options{
		Procs:        procRingProcs,
		Fabric:       armci.FabricTCP,
		Coalesce:     armci.Coalesce{Enabled: true},
		CaptureTrace: true,
		OpDeadline:   30 * time.Second,
	}, procCoalBaton)
	if err != nil {
		t.Fatalf("tcp baseline: %v", err)
	}
	events := rep.Stats.Timeline()
	want := make([]string, procRingProcs)
	sawBatch := false
	for node := range want {
		var local []trace.Event
		for _, e := range events {
			if e.Kind == msg.KindBatch {
				sawBatch = true
			}
			if procSrcNode(e.Src) == node && coalRingTraffic(e) {
				local = append(local, e)
			}
		}
		want[node] = trace.FingerprintEvents(local)
		if want[node] == "" {
			t.Fatalf("tcp baseline captured no ring traffic from node %d", node)
		}
	}
	if !sawBatch {
		t.Fatal("tcp baseline sent no batched frames; coalescing was not exercised")
	}

	got := make([]string, procRingProcs)
	var mu sync.Mutex
	out, err := cluster.Launch(cluster.Spec{
		Procs:      procRingProcs,
		Command:    []string{testExe(t)},
		ExtraEnv:   []string{"ARMCI_PROCNET_TEST_WORKLOAD=coalring"},
		Output:     io.Discard,
		RunTimeout: 2 * time.Minute,
		OnLine: func(node int, line string) {
			fp, ok := parseTagged(line, "COALRING_FP", "fp")
			if !ok {
				return
			}
			mu.Lock()
			got[node] = fp
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("proc launch: %v (outcome %+v)", err, out)
	}
	mu.Lock()
	defer mu.Unlock()
	for node := range want {
		if got[node] == "" {
			t.Errorf("node %d printed no COALRING_FP line", node)
			continue
		}
		if got[node] != want[node] {
			t.Errorf("node %d batched send stream diverged between fabrics:\ntcp  %s\nproc %s", node, want[node], got[node])
		}
	}
}

// TestProcnetWorkloadParityWithTCP extends the per-node parity check to
// generated workloads: each rank's user-endpoint send stream under a
// multi-process launch must match the same rank's stream in an
// in-process TCP run of the identical generated program. prodcons puts
// the notify-ordering path (NbPut + PutFlag + WaitFlag) across real OS
// processes; mixed drives puts, word stores and accumulates sampled
// from the seeded grammar. The workload oracles run armed in both runs
// (Report nil panics), so parity is only ever measured over verified
// executions.
func TestProcnetWorkloadParityWithTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const procs = 4
	for _, spec := range []string{
		"prodcons:chunks=3,bytes=64,depth=2",
		"mixed:ops=8,rounds=1",
	} {
		spec := spec
		t.Run(strings.SplitN(spec, ":", 2)[0], func(t *testing.T) {
			sp, err := workload.Parse(spec)
			if err != nil {
				t.Fatalf("Parse(%q): %v", spec, err)
			}
			rep, err := armci.Run(armci.Options{
				Procs:        procs,
				Fabric:       armci.FabricTCP,
				CaptureTrace: true,
				OpDeadline:   30 * time.Second,
			}, workload.Build(sp, workload.Config{Seed: procWorkloadSeed}))
			if err != nil {
				t.Fatalf("tcp baseline: %v", err)
			}
			want := make([]string, procs)
			for node := range want {
				var own []trace.Event
				for _, e := range rep.Stats.Timeline() {
					if e.Src == msg.User(node) {
						own = append(own, e)
					}
				}
				want[node] = trace.FingerprintEvents(own)
				if want[node] == "" {
					t.Fatalf("tcp baseline captured no sends from rank %d", node)
				}
			}

			got := make([]string, procs)
			var mu sync.Mutex
			out, err := cluster.Launch(cluster.Spec{
				Procs:   procs,
				Command: []string{testExe(t)},
				ExtraEnv: []string{"ARMCI_PROCNET_TEST_WORKLOAD=workload",
					"ARMCI_PROCNET_TEST_SPEC=" + spec},
				Output:     io.Discard,
				RunTimeout: 2 * time.Minute,
				OnLine: func(node int, line string) {
					fp, ok := parseTagged(line, "WL_FP", "fp")
					if !ok {
						return
					}
					mu.Lock()
					got[node] = fp
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatalf("proc launch: %v (outcome %+v)", err, out)
			}
			mu.Lock()
			defer mu.Unlock()
			for node := range want {
				if got[node] == "" {
					t.Errorf("node %d printed no WL_FP line", node)
					continue
				}
				if got[node] != want[node] {
					t.Errorf("node %d send stream diverged between fabrics:\ntcp  %s\nproc %s",
						node, want[node], got[node])
				}
			}
		})
	}
}

// TestProcnetHierarchicalParityWithTCP is the cross-fabric parity check
// for the topology-aware barrier: the hierarchical put-round workload's
// per-node projection — each node's per-rank send fingerprints — must
// be identical between the in-process TCP fabric and a multi-process
// launch hosting two ranks per worker process. This is the only test
// where the hierarchical barrier's intra-node stage runs between ranks
// of one real OS process while the leader exchange crosses sockets, so
// it pins the leader election and stage ordering to the topology, not
// to any in-process scheduling accident.
func TestProcnetHierarchicalParityWithTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	rep, err := armci.Run(armci.Options{
		Procs:        procHierProcs,
		ProcsPerNode: procHierPPN,
		Fabric:       armci.FabricTCP,
		BarrierAlg:   armci.BarrierHierarchical,
		CaptureTrace: true,
		OpDeadline:   30 * time.Second,
	}, procHierBody)
	if err != nil {
		t.Fatalf("tcp baseline: %v", err)
	}
	numNodes := (procHierProcs + procHierPPN - 1) / procHierPPN
	want := make([]string, numNodes)
	for node := range want {
		want[node] = procHierNodeFingerprint(rep.Stats.Timeline(), node)
		if strings.Contains(want[node], "r"+strconv.Itoa(node*procHierPPN)+":,") || want[node] == "" {
			t.Fatalf("tcp baseline captured no sends for node %d: %q", node, want[node])
		}
	}

	got := make([]string, numNodes)
	var mu sync.Mutex
	out, err := cluster.Launch(cluster.Spec{
		Procs:        procHierProcs,
		ProcsPerNode: procHierPPN,
		Command:      []string{testExe(t)},
		ExtraEnv:     []string{"ARMCI_PROCNET_TEST_WORKLOAD=hier"},
		Output:       io.Discard,
		RunTimeout:   2 * time.Minute,
		OnLine: func(node int, line string) {
			fp, ok := parseTagged(line, "HIER_FP", "fp")
			if !ok {
				return
			}
			mu.Lock()
			got[node] = fp
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("proc launch: %v (outcome %+v)", err, out)
	}
	mu.Lock()
	defer mu.Unlock()
	for node := range want {
		if got[node] == "" {
			t.Errorf("node %d printed no HIER_FP line", node)
			continue
		}
		if got[node] != want[node] {
			t.Errorf("node %d per-rank send streams diverged between fabrics:\ntcp  %s\nproc %s",
				node, want[node], got[node])
		}
	}
}

// TestProcnetFig7SmallShape launches a smoke-sized Figure 7 point
// across real OS processes and asserts the paper's shape: the combined
// barrier beats the serialized AllFence+MPI_Barrier. Each rank reports
// its median over 15 timed repetitions per mode (procWorkerFig7), so a
// few repetitions stalled by the scheduler on a loaded box do not decide
// the comparison.
func TestProcnetFig7SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	t.Setenv("ARMCI_PROCNET_TEST_WORKLOAD", "fig7")
	row, err := bench.LaunchFig7Proc(bench.Fig7ProcLaunch{
		Procs:      4,
		Command:    []string{testExe(t)},
		Output:     io.Discard,
		RunTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("fig7 proc launch: %v", err)
	}
	if row.OldUS <= 0 || row.NewUS <= 0 {
		t.Fatalf("non-positive sync times: %+v", row)
	}
	if row.Factor <= 1 {
		t.Errorf("combined barrier did not beat AllFence+MPI_Barrier: old=%.1fus new=%.1fus factor=%.2f",
			row.OldUS, row.NewUS, row.Factor)
	}
}

// TestProcnetWorkerDeathIsAttributed kills one worker mid-run and
// requires (a) prompt termination rather than a hang, (b) the
// coordinator's verdict naming the victim's rank, and (c) every
// survivor observing the same rank-attributed fault.
func TestProcnetWorkerDeathIsAttributed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const procs = 3
	survivors := map[int]int{} // node -> fault rank it reported
	var mu sync.Mutex
	start := time.Now()
	out, err := cluster.Launch(cluster.Spec{
		Procs:      procs,
		Command:    []string{testExe(t)},
		ExtraEnv:   []string{"ARMCI_PROCNET_TEST_WORKLOAD=die"},
		Output:     io.Discard,
		RunTimeout: time.Minute,
		OnLine: func(node int, line string) {
			r, ok := parseTagged(line, "DIE_FAULT", "rank")
			if !ok {
				return
			}
			rank, aerr := strconv.Atoi(r)
			if aerr != nil {
				rank = -1
			}
			mu.Lock()
			survivors[node] = rank
			mu.Unlock()
		},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success despite a worker dying mid-run")
	}
	if out.Fault == nil {
		t.Fatalf("no rank-attributed fault in outcome; err=%v", err)
	}
	if out.Fault.Rank != procDieVictim || out.Fault.Kind != pipeline.FaultPeerLost {
		t.Errorf("fault = rank %d kind %q, want rank %d kind %q",
			out.Fault.Rank, out.Fault.Kind, procDieVictim, pipeline.FaultPeerLost)
	}
	// Failure detection must be prompt — connection loss, not a stuck
	// run ended by timeouts.
	if elapsed > 20*time.Second {
		t.Errorf("launch took %v to fail; worker death should surface promptly", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	for node := 0; node < procs; node++ {
		if node == procDieVictim {
			continue
		}
		if rank, ok := survivors[node]; !ok {
			t.Errorf("survivor node %d never reported the fault", node)
		} else if rank != procDieVictim {
			t.Errorf("survivor node %d blamed rank %d, want %d", node, rank, procDieVictim)
		}
	}
}

// TestProcnetElasticKillAndRespawn is the kill-one-worker scenario run
// under elastic recovery: the same abrupt mid-run worker death that
// TestProcnetWorkerDeathIsAttributed turns into a rank-attributed abort
// instead completes the job. The coordinator respawns the victim, the
// newcomer restores its Space from the peer replica, survivors roll
// back to the last committed sync epoch, and every rank — including the
// respawned incarnation — reports the crash-free cluster fingerprint.
func TestProcnetElasticKillAndRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const procs = 4
	run := func(faults string) (fps map[int]string, recovered int, maxInc int) {
		t.Helper()
		fps = map[int]string{}
		var mu sync.Mutex
		out, err := cluster.Launch(cluster.Spec{
			Procs:      procs,
			Command:    []string{testExe(t)},
			ExtraEnv:   []string{"ARMCI_PROCNET_TEST_WORKLOAD=elastic", "ARMCI_PROCNET_TEST_FAULTS=" + faults},
			Output:     io.Discard,
			RunTimeout: time.Minute,
			Elastic:    true,
			OnLine: func(node int, line string) {
				fp, ok := parseTagged(line, "ELASTIC_FP", "fp")
				if !ok {
					return
				}
				rec, _ := parseTagged(line, "ELASTIC_FP", "rec")
				inc, _ := parseTagged(line, "ELASTIC_FP", "inc")
				mu.Lock()
				defer mu.Unlock()
				fps[node] = fp
				if rec == "1" {
					recovered++
				}
				if v, aerr := strconv.Atoi(inc); aerr == nil && v > maxInc {
					maxInc = v
				}
			},
		})
		if err != nil {
			t.Fatalf("elastic launch (faults=%q): %v (outcome %+v)", faults, err, out)
		}
		mu.Lock()
		defer mu.Unlock()
		for node := 0; node < procs; node++ {
			if fps[node] == "" {
				t.Fatalf("faults=%q: node %d printed no ELASTIC_FP line", faults, node)
			}
			if fps[node] != fps[0] {
				t.Fatalf("faults=%q: node %d fingerprint %s diverges from node 0's %s",
					faults, node, fps[node], fps[0])
			}
		}
		return fps, recovered, maxInc
	}

	base, rec, inc := run("")
	if rec != 0 || inc != 0 {
		t.Fatalf("crash-free run claims a recovery (recovered=%d, max incarnation=%d)", rec, inc)
	}
	fps, rec, inc := run("crashrank=1@2")
	if fps[0] != base[0] {
		t.Errorf("post-recovery fingerprint %s != crash-free %s — ops lost or duplicated", fps[0], base[0])
	}
	if rec != procs {
		t.Errorf("%d of %d ranks ran the recovery protocol", rec, procs)
	}
	if inc != 1 {
		t.Errorf("max incarnation %d, want 1 (victim respawned exactly once)", inc)
	}
}

// TestProcnetForwardSignalsLeavesNoGoroutine: a launch that forwards
// the launcher's signals to its workers stops forwarding when it returns,
// so the goroutine count settles back to where it was before the launch.
func TestProcnetForwardSignalsLeavesNoGoroutine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// The first signal.Notify of a process starts the runtime's signal
	// loop for good; start it here so it is not counted as the launch's.
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, os.Interrupt)
	signal.Stop(warm)
	before := runtime.NumGoroutine()
	out, err := cluster.Launch(cluster.Spec{
		Procs:          2,
		Command:        []string{testExe(t)},
		ExtraEnv:       []string{"ARMCI_PROCNET_TEST_WORKLOAD=ring"},
		Output:         io.Discard,
		RunTimeout:     time.Minute,
		ForwardSignals: true,
	})
	if err != nil {
		t.Fatalf("proc launch: %v (outcome %+v)", err, out)
	}
	now := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); now > before && time.Now().Before(deadline); now = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if now > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the launch, %d after it settled:\n%s", before, now, buf[:runtime.Stack(buf, true)])
	}
}

// testExe resolves this test binary for self-exec.
func testExe(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("resolving test binary: %v", err)
	}
	return exe
}

// parseTagged pulls key=value out of a "TAG k1=v1 k2=v2" worker line.
func parseTagged(line, tag, key string) (string, bool) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, tag+" ") {
		return "", false
	}
	for _, f := range strings.Fields(line[len(tag):]) {
		if k, v, ok := strings.Cut(f, "="); ok && k == key {
			return v, true
		}
	}
	return "", false
}
