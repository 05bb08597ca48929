package armci_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"armci"
	"armci/internal/msg"
	"armci/internal/trace"
)

// fingerprint is the determinism digest of a run's captured sends, which
// every parity test compares.
func fingerprint(s *armci.Metrics) string { return trace.FingerprintEvents(s.Timeline()) }

// sendsBetween counts a run's captured sends from src to dst, injected
// duplicates included.
func sendsBetween(s *armci.Metrics, src, dst msg.Addr) int {
	n := 0
	for _, e := range s.Timeline() {
		if e.Src == src && e.Dst == dst {
			n++
		}
	}
	return n
}

// TestFingerprintStableAcrossFabricsAndSeeds is the regression test for
// the stability guarantee documented on trace.Stats.Fingerprint: for a
// workload whose message order is data-dependent rather than
// schedule-dependent — a token ring, where exactly one message is ever
// in flight — the fingerprint must be identical on every fabric and
// under every sim schedule-shuffle seed. A change to the digested
// fields, their encoding, or the pipeline's send-order bookkeeping
// breaks replay/determinism tests; this test makes that breakage loud.
// Handing the run an Options.Metrics aggregate (which switches the
// recorder's latency histograms on and folds the run into it) must not
// change the fingerprint either.
func TestFingerprintStableAcrossFabricsAndSeeds(t *testing.T) {
	const procs, laps = 5, 3
	ring := func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		token := make([]byte, 8)
		for lap := 0; lap < laps; lap++ {
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
	runWith := func(fabric armci.FabricKind, seed int64, metrics *armci.Metrics) string {
		t.Helper()
		opts := armci.Options{
			Procs:        procs,
			ProcsPerNode: 2,
			Fabric:       fabric,
			Preset:       armci.PresetMyrinet2000,
			ScheduleSeed: seed,
			CaptureTrace: true,
			Metrics:      metrics,
		}
		if fabric != armci.FabricSim {
			opts.OpDeadline = 30 * time.Second
		}
		rep, err := armci.Run(opts, ring)
		if err != nil {
			t.Fatalf("fabric %v seed %d: %v", fabric, seed, err)
		}
		return fingerprint(rep.Stats)
	}
	run := func(fabric armci.FabricKind, seed int64) string {
		t.Helper()
		return runWith(fabric, seed, nil)
	}

	want := run(armci.FabricSim, 0) // the FIFO baseline
	if want == "" {
		t.Fatal("baseline run captured no message events")
	}
	for _, seed := range []int64{1, 7, 23} {
		if got := run(armci.FabricSim, seed); got != want {
			t.Errorf("sim fingerprint diverged at schedule seed %d:\nseed0 %s\nseed%d %s", seed, want, seed, got)
		}
	}
	for _, fabric := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
		if got := run(fabric, 0); got != want {
			t.Errorf("%v fingerprint diverged from sim baseline:\nsim  %s\n%v %s", fabric, want, fabric, got)
		}
	}
	for _, fabric := range []armci.FabricKind{armci.FabricSim, armci.FabricChan, armci.FabricTCP} {
		if got := runWith(fabric, 0, armci.NewMetrics()); got != want {
			t.Errorf("%v fingerprint changed by Options.Metrics:\nwithout %s\nwith    %s", fabric, want, got)
		}
	}
}

// TestCoalescedFingerprintParity extends the stability guarantee to the
// coalescing path: a flag-passing baton ring — each rank streams chunked
// puts plus a PutFlag notify to its right neighbor, and the neighbor
// only starts sending after WaitFlag — keeps exactly one rank's data
// traffic in flight at a time, so the order, sizes and per-pair
// sequence numbers of the batched frames are data-dependent, not
// schedule-dependent. The digest of that traffic must be identical on
// every fabric and under every sim schedule-shuffle seed, proving the
// coalescer flushes at deterministic program points (never timers) and
// packs frames identically regardless of substrate.
//
// Only the ring's own messages (batch frames, puts, flag stores) are
// digested: the workload brackets the ring with collective barriers
// whose messages ARE schedule-dependent across fabrics.
func TestCoalescedFingerprintParity(t *testing.T) {
	const (
		procs      = 5
		laps       = 3
		chunks     = 3
		chunkBytes = 64
	)
	chunk := func(lap, src, k int) []byte {
		b := make([]byte, chunkBytes)
		for i := range b {
			b[i] = byte(lap*89 + src*13 + k*5 + i)
		}
		return b
	}
	baton := func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		// Collective allocation: its allgather messages are
		// schedule-dependent, but they are collective-kind traffic the
		// fingerprint filter below excludes, so they cannot blur the
		// send order under test.
		bufs := p.Malloc(chunks * chunkBytes)
		flags := p.MallocWords(1)
		next, prev := (me+1)%n, (me-1+n)%n
		// All ranks must finish allocating before any put can arrive.
		p.MPIBarrier()
		for lap := 0; lap < laps; lap++ {
			send := func() {
				for k := 0; k < chunks-1; k++ {
					p.Put(bufs[next].Add(int64(k*chunkBytes)), chunk(lap, me, k))
				}
				p.PutFlag(bufs[next].Add(int64((chunks-1)*chunkBytes)),
					chunk(lap, me, chunks-1), flags[next], int64(lap+1))
			}
			recv := func() {
				p.WaitFlag(flags[me], int64(lap+1))
				for k := 0; k < chunks; k++ {
					got := p.Get(bufs[me].Add(int64(k*chunkBytes)), chunkBytes)
					if !bytes.Equal(got, chunk(lap, prev, k)) {
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
	ringTraffic := func(e trace.Event) bool {
		return e.Kind == msg.KindBatch || e.Kind == msg.KindPut || e.Kind == msg.KindRmw
	}
	run := func(fabric armci.FabricKind, seed int64) string {
		t.Helper()
		opts := armci.Options{
			Procs:        procs,
			ProcsPerNode: 2,
			Fabric:       fabric,
			Preset:       armci.PresetMyrinet2000,
			ScheduleSeed: seed,
			Coalesce:     armci.Coalesce{Enabled: true},
			CaptureTrace: true,
		}
		if fabric != armci.FabricSim {
			opts.OpDeadline = 30 * time.Second
		}
		rep, err := armci.Run(opts, baton)
		if err != nil {
			t.Fatalf("fabric %v seed %d: %v", fabric, seed, err)
		}
		var ring []trace.Event
		for _, e := range rep.Stats.Timeline() {
			if ringTraffic(e) {
				ring = append(ring, e)
			}
		}
		return trace.FingerprintEvents(ring)
	}

	want := run(armci.FabricSim, 0)
	if want == "" {
		t.Fatal("baseline run captured no ring traffic")
	}
	for _, seed := range []int64{1, 7, 23} {
		if got := run(armci.FabricSim, seed); got != want {
			t.Errorf("sim coalesced fingerprint diverged at schedule seed %d:\nseed0 %s\nseed%d %s", seed, want, seed, got)
		}
	}
	for _, fabric := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
		if got := run(fabric, 0); got != want {
			t.Errorf("%v coalesced fingerprint diverged from sim baseline:\nsim  %s\n%v %s", fabric, want, fabric, got)
		}
	}
}
