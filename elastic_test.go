package armci_test

import (
	"testing"

	"armci"
	"armci/internal/elastic"
)

// runElasticWorkload executes the elastic-replication workload on one
// fabric and returns every rank's result. On the in-process fabrics the
// crash (when armed) is the cooperative emulation: the victim's memory
// is wiped and rebuilt from the peer replica through real remote gets.
// crash is the fault plan: its elastic crashrank knob arms the crash.
func runElasticWorkload(fabric armci.FabricKind, schedSeed int64, cfg elastic.Config, crash armci.Faults) ([]elastic.Result, error) {
	const procs = 4
	results := make([]elastic.Result, procs)
	_, err := armci.Run(armci.Options{
		Procs:        procs,
		Fabric:       fabric,
		ScheduleSeed: schedSeed,
		Faults:       crash,
	}, func(p *armci.Proc) {
		results[p.Rank()] = elastic.Run(p, cfg)
	})
	return results, err
}

// elasticCfg is the recovery tests' workload; elasticCrash kills its
// rank 1 partway through sync epoch 3.
var (
	elasticCfg   = elastic.Config{Steps: 5, Seed: 42}
	elasticCrash = armci.Faults{ElasticCrashRank: 1, ElasticCrashStep: 3}
)

// TestElasticRecoveryDeterministic: the post-recovery cluster
// fingerprint is byte-identical to the crash-free run's, on every
// simulator schedule seed and on the concurrent fabrics. The workload
// is commutative by construction, so rollback plus re-execution must
// reconverge on exactly the crash-free state.
func TestElasticRecoveryDeterministic(t *testing.T) {
	oracle, err := runElasticWorkload(armci.FabricSim, 0, elasticCfg, armci.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle[0].Fingerprint
	if want == 0 {
		t.Fatal("crash-free run produced a zero fingerprint")
	}
	if o := elastic.Oracle(elasticCfg, 4); o != want {
		t.Fatalf("pure-replay oracle %#x != crash-free run %#x", o, want)
	}
	for r, res := range oracle {
		if res.Fingerprint != want {
			t.Fatalf("crash-free run: rank %d fingerprint %#x != rank 0's %#x", r, res.Fingerprint, want)
		}
		if res.Recovered {
			t.Fatalf("crash-free run: rank %d claims a recovery", r)
		}
	}
	for _, seed := range []int64{0, 1, 7, 23} {
		results, err := runElasticWorkload(armci.FabricSim, seed, elasticCfg, elasticCrash)
		if err != nil {
			t.Fatalf("sim seed %d: %v", seed, err)
		}
		for r, res := range results {
			if res.Fingerprint != want {
				t.Fatalf("sim seed %d: rank %d post-recovery fingerprint %#x, want crash-free %#x",
					seed, r, res.Fingerprint, want)
			}
			if !res.Recovered {
				t.Fatalf("sim seed %d: rank %d did not run the recovery protocol", seed, r)
			}
		}
	}
	for _, fabric := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
		results, err := runElasticWorkload(fabric, 0, elasticCfg, elasticCrash)
		if err != nil {
			t.Fatalf("%v: %v", fabric, err)
		}
		for r, res := range results {
			if res.Fingerprint != want {
				t.Fatalf("%v: rank %d post-recovery fingerprint %#x, want crash-free %#x",
					fabric, r, res.Fingerprint, want)
			}
		}
	}
}

// TestElasticStaleEpochMutationDiverges: with the repl-stale-epoch
// mutation armed (survivors skip the rollback, keeping the aborted
// epoch's writes), re-execution double-applies the fetch-adds and the
// fingerprint must diverge from the crash-free oracle — the signal the
// conformance harness's state oracle keys on.
func TestElasticStaleEpochMutationDiverges(t *testing.T) {
	oracle, err := runElasticWorkload(armci.FabricSim, 0, elasticCfg, armci.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := runElasticWorkload(armci.FabricSim, 0, elastic.Config{Steps: 5, Seed: 42, SkipRollback: true}, elasticCrash)
	if err != nil {
		t.Fatal(err)
	}
	if mutated[0].Fingerprint == oracle[0].Fingerprint {
		t.Fatalf("repl-stale-epoch mutation went undetected: fingerprint %#x matches the crash-free run",
			mutated[0].Fingerprint)
	}
}

// TestElasticCrashFreeMatchesAcrossFabrics: without any crash, every
// fabric converges on the same deterministic fingerprint — the oracle
// the recovery runs are held to is fabric-independent.
func TestElasticCrashFreeMatchesAcrossFabrics(t *testing.T) {
	oracle, err := runElasticWorkload(armci.FabricSim, 0, elastic.Config{Steps: 3, Seed: 7}, armci.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fabric := range []armci.FabricKind{armci.FabricChan, armci.FabricTCP} {
		results, err := runElasticWorkload(fabric, 0, elastic.Config{Steps: 3, Seed: 7}, armci.Faults{})
		if err != nil {
			t.Fatalf("%v: %v", fabric, err)
		}
		if results[0].Fingerprint != oracle[0].Fingerprint {
			t.Fatalf("%v fingerprint %#x != sim %#x", fabric, results[0].Fingerprint, oracle[0].Fingerprint)
		}
	}
}
