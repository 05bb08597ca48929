GO ?= go

.PHONY: build test check bench benchpairs golden soak explore procsmoke elasticsoak loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full verification gate (vet + build + tests + race detector over
# every package). Referenced from ROADMAP.md's tier-1 verify.
check:
	sh scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem

# A claimed wall-clock gain, measured: REF (the parent commit) against the
# working tree on workload W of BENCHMARK.json (W=all: every workload, one
# table, exit 1 on a regression anywhere), N alternating pairs of runs per
# workload; medians, quartiles, wins and a verdict per end-to-end metric.
# The default 10 pairs of 12 s take about 5 minutes a workload.
REF ?= HEAD
W ?= app-tcp4
benchpairs: N = 10
benchpairs:
	sh scripts/benchpairs.sh $(REF) $(W) $(N)

# The harness's output contract in full: every figure regenerated and
# diffed against the committed tables (sim virtual times reproduce byte
# for byte), crossover-N to 4096 ranks included, then the per-message
# timeline of one 16-rank barrier against its committed CSV — the
# captured stream's send view, joined to the arrivals. ~15 s; check.sh
# runs it.
golden:
	$(GO) run ./cmd/armci-bench -fig all | diff -u results/all-tables.txt -
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/armci-bench -timeline "$$tmp" -procs 16 >/dev/null && \
	diff -u results/timeline-barrier-16.csv "$$tmp"

# Non-test Go lines per package, benchmark/ excluded, then the test-file
# total, and the non-test total last — the number simplicity PRs quote
# before and after.
loc:
	sh scripts/loc.sh

# The multi-process smoke: launch a smoke-sized Fig. 7 point across 4
# real OS processes via armci-run, then across 2 hosting 2 ranks each
# (same-node traffic), and require a clean rendezvous, run and drain.
# check runs this too; this target is the standalone version.
procsmoke:
	$(GO) run ./cmd/armci-run -n 4 -workload fig7-small
	$(GO) run ./cmd/armci-run -n 4 -ppn 2 -workload fig7-small

# The elastic smoke of check.sh — a 4-rank launch with one worker killed
# mid-epoch and respawned, every rank's fingerprint checked against the
# pure-replay oracle — N times over, one binary built once. A run that
# takes over 20 s is killed (a healthy one takes well under 1 s). Prints
# failed/N and, for each failing run, the tail of its log: the
# coordinator's view, ack and fault lines (-v) and the workers' output.
# Any failure fails the target.
N ?= 200
elasticsoak:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/armci-run" ./cmd/armci-run && \
	failed=0 && i=0 && while [ $$i -lt $(N) ]; do i=$$((i+1)); \
		"$$dir/armci-run" -v -timeout 20s -n 4 -workload elastic -elastic -faults crashrank=1@3 >"$$dir/out" 2>&1 || \
			{ failed=$$((failed+1)); echo "run $$i:"; tail -12 "$$dir/out"; }; \
	done && echo "elasticsoak: $$failed/$(N) failed" && [ $$failed -eq 0 ]

# The reliability soak: every lock and barrier algorithm on every fabric
# under bursty packet loss, with the race detector on. check's race pass
# skips these (-short); this target runs them in full.
soak:
	$(GO) test -race -run 'Soak' -v -timeout 15m .

# The full conformance exploration (internal/check): a deep seed sweep
# of every lock algorithm and sync variant on the simulated fabric, a
# spot-check on the concurrent fabrics, the same sweep under loss /
# duplication / latency-spike fault plans, and the mutation self-test
# proving the oracles catch deliberately broken variants. The holder-crash
# row ends inverted (`! ...`): the same plan against locks without a
# lease must exit non-zero, so a crashheld plan that silently never fires
# cannot come back. `go test ./internal/check` runs a shorter version of
# the same matrix.
explore:
	$(GO) run ./cmd/armci-check -seeds 256
	$(GO) run ./cmd/armci-check -coalesce -algs queue,hybrid -seeds 128
	$(GO) run ./cmd/armci-check -fabrics chan,tcp -seeds 4
	$(GO) run ./cmd/armci-check -fabrics chan,tcp -coalesce -algs queue -seeds 2
	$(GO) run ./cmd/armci-check -algs queue,hybrid -syncs barrier,sync-old \
		-faults 'loss=0.15,retry=12;dup=0.2;loss=0.1,dup=0.1,retry=12;spike=1ms@0.2;jitter=200us' \
		-seeds 64
	$(GO) run ./cmd/armci-check -coalesce -algs queue -syncs barrier \
		-faults 'loss=0.15,retry=12;dup=0.2;loss=0.1,dup=0.1,retry=12' \
		-seeds 32
	$(GO) run ./cmd/armci-check -algs queue,hybrid,lease \
		-syncs barrier-knomial,barrier-hier,barrier-hier-nic -seeds 64
	$(GO) run ./cmd/armci-check -algs queue \
		-syncs barrier-knomial,barrier-hier,barrier-hier-nic \
		-faults 'loss=0.1,dup=0.1,retry=12;spike=1ms@0.2' -seeds 32
	$(GO) run ./cmd/armci-check -algs lease -syncs barrier \
		-faults 'crashheld=1@1;crashheld=2@2;crashheld=5@3' \
		-seeds 64
	! $(GO) run ./cmd/armci-check -algs queue-nocas,hybrid -syncs barrier \
		-faults 'crashheld=1@2' -seeds 4
	$(GO) run ./cmd/armci-check \
		-workload 'stencil;paramserver;prodcons;mixed' -seeds 64
	$(GO) run ./cmd/armci-check -fabrics sim,chan,tcp \
		-workload 'stencil:rows=1,cols=9,halo=2;paramserver:hot=1,updates=6;prodcons:chunks=4,bytes=64,depth=4;mixed:skew=hot,nb=75,seed=9' \
		-seeds 4
	$(GO) run ./cmd/armci-check -coalesce \
		-workload 'prodcons;mixed' -faults ';loss=0.1,dup=0.1,retry=12' -seeds 16
	$(GO) run ./cmd/armci-check -mutations -seeds 64
