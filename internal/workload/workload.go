// Package workload is the grammar-driven scenario generator of the
// conformance harness: it turns a compact spec string ("stencil",
// "paramserver:hot=2,updates=8", "mixed:skew=hot,nb=75,seed=9") into a
// deterministic per-rank program over the public armci surface, paired
// with a workload-specific invariant oracle. The four kinds stress
// protocol paths the harness's default lock/put/notify workload does
// not:
//
//   - stencil: halo-exchange Jacobi sweeps over ga 2-D block-distributed
//     arrays — strided multi-block gets and puts, with a cell-exact
//     sequential replay plus a global boundary checksum as the oracle;
//     the replay is computed once per built body, and it and the ranks'
//     sweep share one kernel, stencilSweep;
//   - paramserver: every rank streams Accumulate updates (blocking and
//     NbAcc) into one hot rank's parameter vector — accumulate
//     contention, with exact-sum verification against a closed-form
//     total (updates are integer-valued, so float/int accumulation is
//     order-independent and exact); a rank encodes its update vectors
//     on its first solve and resends the same bytes in every later one;
//   - prodcons: a pipelined producer→consumer chain over PutFlag /
//     WaitFlag with per-item flags — notify ordering, with
//     byte-for-byte no-stale-read verification at every hop;
//   - mixed: an adversarial program sampled from a seeded grammar (op
//     kind × target skew × payload size × nb/blocking), replayed
//     against a local model for state-exact verification.
//
// Every body routes its global synchronization through the case's sync
// variant, so the trace-level fence oracle applies to each workload for
// free, and every payload is a pure function of (round, writer, index):
// a stale or misrouted byte is unambiguous. Hazards carries the
// deliberately broken variants behind the harness's mutation self-test.
package workload

import (
	"encoding/binary"
	"fmt"

	"armci"
	"armci/ga"
)

// Config is the harness-side context a workload body runs under.
type Config struct {
	// Seed is the generator seed used when the spec carries no seed=
	// knob (the mixed workload's program, in particular, is a pure
	// function of it).
	Seed int64
	// Sync names the global synchronization variant, a row of Syncs
	// ("" = the default, "barrier").
	Sync string
	// Report receives invariant-oracle failures (printf-style). Nil
	// panics on the first failure — the right default for standalone
	// runs; the harness passes its state collector.
	Report func(format string, args ...any)
	// Hazards arms deliberately broken variants (mutation self-test).
	Hazards Hazards
}

// Hazards are the workload-level deliberately broken variants. Each
// reintroduces a bug class only the workload oracles can catch; the
// harness's mutation self-test (check.Mutations) proves they are.
type Hazards struct {
	// AccLostUpdate replaces the parameter-server's atomic Accumulate
	// with a non-atomic Load / Store read-modify-write, so concurrent
	// updates from different ranks interleave and increments are lost.
	// Caught by the accumulate-sum exactness oracle.
	AccLostUpdate bool
	// FlagBeforeData makes the producer publish its notify flag with a
	// plain word store issued before the data chunks (the store rides
	// the control pipe, the data the server pipe), so the consumer's
	// WaitFlag wakes while the chunks are still in flight. Caught by the
	// no-stale-read byte verification.
	FlagBeforeData bool
}

// Armed reports whether any hazard is enabled.
func (h Hazards) Armed() bool { return h != Hazards{} }

// Build compiles a parsed spec into a per-rank body for armci.Run. The
// spec must come from Parse (or be otherwise valid); an unknown kind
// panics.
func Build(sp Spec, cfg Config) func(*armci.Proc) {
	sp = sp.withDefaults()
	switch sp.Kind {
	case KindStencil:
		return stencilBody(sp, cfg)
	case KindParamServer:
		return paramServerBody(sp, cfg)
	case KindProdCons:
		return prodConsBody(sp, cfg)
	case KindMixed:
		return mixedBody(sp, cfg)
	}
	panic(fmt.Sprintf("workload: Build on spec with unknown kind %q", sp.Kind))
}

// reportf routes an oracle failure to the configured sink.
func (cfg Config) reportf(format string, args ...any) {
	if cfg.Report != nil {
		cfg.Report(format, args...)
		return
	}
	panic(fmt.Sprintf("workload: "+format, args...))
}

// Sync is one global synchronization variant: its name, the run options
// it needs and the operation a rank calls, as a Proc method and as a ga
// SyncMode.
type Sync struct {
	Name    string
	Barrier armci.BarrierAlg // exchange pattern of the barrier and of the combined barrier's allreduce
	NIC     armci.NICMode    // whether the data servers answer fences at NIC cost
	Proc    func(*armci.Proc)
	GA      ga.SyncMode
}

// Syncs lists the sync variants, the default first: the paper's combined
// barrier, the serialized AllFence + MPI_Barrier it replaces (and that
// one's pipelined ablation), and the combined barrier over the
// topology-aware exchanges — radix-4 k-nomial stages, a two-level
// hierarchy through per-node leaders, and that hierarchy with the servers
// answering fences at NIC cost.
var Syncs = []Sync{
	{"barrier", armci.BarrierAuto, armci.NICNone, (*armci.Proc).Barrier, ga.SyncNew},
	{"sync-old", armci.BarrierAuto, armci.NICNone, (*armci.Proc).SyncOld, ga.SyncOld},
	{"sync-old-pipelined", armci.BarrierAuto, armci.NICNone, (*armci.Proc).SyncOldPipelined, ga.SyncOldPipelined},
	{"barrier-knomial", armci.BarrierKnomial, armci.NICNone, (*armci.Proc).Barrier, ga.SyncNew},
	{"barrier-hier", armci.BarrierHierarchical, armci.NICNone, (*armci.Proc).Barrier, ga.SyncNew},
	{"barrier-hier-nic", armci.BarrierHierarchical, armci.NICFence, (*armci.Proc).Barrier, ga.SyncNew},
}

// SyncNamed returns the sync variant called name; for an unknown name it
// returns the default variant and false.
func SyncNamed(name string) (Sync, bool) {
	for _, s := range Syncs {
		if s.Name == name {
			return s, true
		}
	}
	return Syncs[0], false
}

// leWords encodes int64 values little-endian, the wire layout of
// AccInt64 regions.
func leWords(vals []int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}
