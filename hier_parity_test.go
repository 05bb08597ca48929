package armci_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"armci"
	"armci/internal/msg"
	"armci/internal/trace"
)

// TestHierarchicalBarrierFingerprintParity pins the topology-aware
// barriers to the fingerprint stability contract: a put-round workload
// synchronized by the k-nomial or hierarchical combined barrier (the
// latter with and without the NIC-offload fence) must produce
// byte-identical per-source-rank digests across sim schedule-shuffle
// seeds and on the concurrent fabrics. Every exchange stage sends to
// fixed partners in a fixed program order — the leader election is a
// pure function of the topology, never of arrival timing — so any
// divergence means an exchange tree branched on schedule state.
//
// Two ranks per node, so the hierarchical barrier exercises both its
// intra-node gather/release and its inter-node leader exchange.
func TestHierarchicalBarrierFingerprintParity(t *testing.T) {
	const (
		procs  = 6
		ppn    = 2
		rounds = 3
	)
	variants := []struct {
		name string
		alg  armci.BarrierAlg
		nic  armci.NICMode
	}{
		{"knomial", armci.BarrierKnomial, armci.NICNone},
		{"hierarchical", armci.BarrierHierarchical, armci.NICNone},
		{"hierarchical-nic", armci.BarrierHierarchical, armci.NICFence},
	}
	body := func(p *armci.Proc) {
		me, n := p.Rank(), p.Size()
		slots := p.MallocWords(n)
		for r := 0; r < rounds; r++ {
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
	run := func(v struct {
		name string
		alg  armci.BarrierAlg
		nic  armci.NICMode
	}, fabric armci.FabricKind, seed int64) string {
		t.Helper()
		opts := armci.Options{
			Procs:        procs,
			ProcsPerNode: ppn,
			Fabric:       fabric,
			Preset:       armci.PresetMyrinet2000,
			ScheduleSeed: seed,
			BarrierAlg:   v.alg,
			NIC:          v.nic,
			CaptureTrace: true,
		}
		if fabric != armci.FabricSim {
			opts.OpDeadline = 30 * time.Second
		}
		rep, err := armci.Run(opts, body)
		if err != nil {
			t.Fatalf("%s on %v seed %d: %v", v.name, fabric, seed, err)
		}
		// Digest each source rank's sends separately: a rank's own stream
		// is program-ordered, but the global interleaving is
		// schedule-dependent and must not enter the digest.
		var parts []string
		for r := 0; r < procs; r++ {
			var own []trace.Event
			for _, e := range rep.Stats.Timeline() {
				if e.Src == msg.User(r) {
					own = append(own, e)
				}
			}
			if len(own) == 0 {
				t.Fatalf("%s on %v seed %d: rank %d sent nothing", v.name, fabric, seed, r)
			}
			parts = append(parts, fmt.Sprintf("r%d:%s", r, trace.FingerprintEvents(own)))
		}
		return strings.Join(parts, " ")
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			want := run(v, armci.FabricSim, 0) // the FIFO baseline
			for _, seed := range []int64{1, 7} {
				if got := run(v, armci.FabricSim, seed); got != want {
					t.Errorf("sim per-rank fingerprints diverged at schedule seed %d:\nseed0 %s\nseed%d %s",
						seed, want, seed, got)
				}
			}
			for _, fabric := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
				if got := run(v, fabric, 0); got != want {
					t.Errorf("%v per-rank fingerprints diverged from sim baseline:\nsim  %s\n%v %s",
						fabric, want, fabric, got)
				}
			}
		})
	}
}
