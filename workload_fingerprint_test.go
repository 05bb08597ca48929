package armci_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"armci"
	"armci/internal/msg"
	"armci/internal/trace"
	"armci/internal/workload"
)

// TestWorkloadFingerprintParity extends the fingerprint stability
// guarantee from hand-written rings to every generated workload kind:
// each rank's outgoing request stream is program-ordered and
// data-dependent — the generator derives the whole program from the
// seed, WaitFlag spins on local memory and sends nothing, and the
// collectives send to fixed partners in a fixed order — so the
// per-source digest of each rank's sends must be identical across sim
// schedule-shuffle seeds and on the concurrent fabrics. A generator
// that accidentally branches on arrival timing (or a fabric that
// reorders one rank's sends) breaks this parity.
//
// One rank per node, so every operation crosses the wire on every
// fabric and the streams under comparison carry the full protocol.
func TestWorkloadFingerprintParity(t *testing.T) {
	const procs = 4
	specs := []string{
		"stencil:rows=6,cols=6",
		"paramserver:updates=3,width=4",
		"prodcons:chunks=3,bytes=64,depth=2",
		"mixed:ops=8,rounds=1",
	}
	run := func(spec string, fabric armci.FabricKind, seed int64) string {
		t.Helper()
		sp, err := workload.Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		opts := armci.Options{
			Procs:        procs,
			ProcsPerNode: 1,
			Fabric:       fabric,
			Preset:       armci.PresetMyrinet2000,
			ScheduleSeed: seed,
			CaptureTrace: true,
		}
		if fabric != armci.FabricSim {
			opts.OpDeadline = 30 * time.Second
		}
		// Report is nil: an oracle failure panics the run, so a diverging
		// fingerprint can never come from a silently corrupt pass. The
		// generator seed is pinned by the spec's knobs and Config.Seed, so
		// every run below executes the identical program.
		rep, err := armci.Run(opts, workload.Build(sp, workload.Config{Seed: 42}))
		if err != nil {
			t.Fatalf("%q on %v seed %d: %v", spec, fabric, seed, err)
		}
		// Digest each source rank's sends separately: a rank's own stream
		// is program-ordered, but the global interleaving of ranks is
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
				t.Fatalf("%q on %v seed %d: rank %d sent nothing", spec, fabric, seed, r)
			}
			parts = append(parts, fmt.Sprintf("r%d:%s", r, trace.FingerprintEvents(own)))
		}
		return strings.Join(parts, " ")
	}
	for _, spec := range specs {
		spec := spec
		t.Run(strings.SplitN(spec, ":", 2)[0], func(t *testing.T) {
			want := run(spec, armci.FabricSim, 0) // the FIFO baseline
			for _, seed := range []int64{1, 7} {
				if got := run(spec, armci.FabricSim, seed); got != want {
					t.Errorf("sim per-rank fingerprints diverged at schedule seed %d:\nseed0 %s\nseed%d %s",
						seed, want, seed, got)
				}
			}
			for _, fabric := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
				if got := run(spec, fabric, 0); got != want {
					t.Errorf("%v per-rank fingerprints diverged from sim baseline:\nsim  %s\n%v %s",
						fabric, want, fabric, got)
				}
			}
		})
	}
}
