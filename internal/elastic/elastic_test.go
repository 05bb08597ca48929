package elastic

import (
	"fmt"
	"testing"

	"armci"
)

// TestCrashAtEveryEpochRecovers kills rank 1 in every sync epoch in turn,
// on three simulator schedules and on the channel fabric. Each run must
// converge on the pure-replay oracle's fingerprint on every rank, and
// every rank must have run the recovery protocol.
func TestCrashAtEveryEpochRecovers(t *testing.T) {
	const procs = 4
	cfg := Config{Steps: 5, Seed: 3}
	want := Oracle(cfg, procs)
	type fabric struct {
		kind armci.FabricKind
		seed int64
	}
	fabrics := []fabric{{armci.FabricSim, 0}, {armci.FabricSim, 1}, {armci.FabricSim, 7}, {armci.FabricChan, 0}}
	for _, fab := range fabrics {
		for step := 1; step <= cfg.Steps; step++ {
			t.Run(fmt.Sprintf("%v/seed=%d/epoch=%d", fab.kind, fab.seed, step), func(t *testing.T) {
				results := make([]Result, procs)
				_, err := armci.Run(armci.Options{
					Procs:        procs,
					Fabric:       fab.kind,
					ScheduleSeed: fab.seed,
					Faults:       armci.Faults{ElasticCrashRank: 1, ElasticCrashStep: step},
				}, func(p *armci.Proc) { results[p.Rank()] = Run(p, cfg) })
				if err != nil {
					t.Fatal(err)
				}
				for r, res := range results {
					if res.Fingerprint != want {
						t.Errorf("rank %d fingerprint %#x, want the oracle's %#x", r, res.Fingerprint, want)
					}
					if !res.Recovered {
						t.Errorf("rank %d did not run the recovery protocol", r)
					}
				}
			})
		}
	}
}
