#!/bin/sh
# check.sh — the full local verification gate: gofmt, vet, build, tests, and
# the race detector over every package. CI and the tier-1 verify in ROADMAP.md
# run the same steps; use `make check` or run this directly before sending
# a change.
set -eux

cd "$(dirname "$0")/.."

# Formatting first: it is the cheapest step, and nothing else enforces it.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
# go test holds the paper's deterministic numbers exactly:
# TestBaselineRoundTripAndGate (internal/bench) requires every metric of
# the newest BENCH_<n>.json, bit-equal, and no other.
go test ./...
# go test only compiles the benchmarks; run each generated workload's one
# once: the stencil's replay, a stencil solve and a parameter-server solve
# on 4 chan ranks.
go test -run '^$' -bench 'StencilReplay|StencilSolve|ParamServerSolve' -benchtime 1x ./internal/workload
# The two textual grammars are tables (faultKnobs, the workload knobs);
# their round-trip fuzzers are the contract the tables lean on, so the
# fuzz engine explores past the seed corpora `go test` replays.
go test -run '^$' -fuzz '^FuzzParseFaults$' -fuzztime 10s .
go test -run '^$' -fuzz '^FuzzWorkloadGrammar$' -fuzztime 10s ./internal/workload
# The batch decoder is strict and aliases its input: every accepted body
# re-encodes byte-identically and every entry's Data is the body's own
# bytes — the contract the server's in-place apply leans on.
go test -run '^$' -fuzz '^FuzzBatchDecode$' -fuzztime 10s ./internal/wire
# The message decoder the same way: every accepted body re-encodes
# byte-identically, and the link readers' arena-carving decoder agrees with
# it on every body of a stream long enough to cross chunk and slab
# boundaries, leaving earlier messages untouched.
go test -run '^$' -fuzz '^FuzzWireDecode$' -fuzztime 10s ./internal/wire
go test -run '^$' -fuzz '^FuzzLinkDecode$' -fuzztime 10s ./internal/wire
# And the link's frame reader against ReadFrame, at every read size: a
# coalesced burst's frame (11 KB) is larger than the reader's first 4 KiB
# buffer, so a connection's first burst regrows it and later frames often
# straddle its end.
go test -run '^$' -fuzz '^FuzzFrameReader$' -fuzztime 10s ./internal/wire
# The coordinator's session state, driven with no socket in adversarial
# event orders: no frame to a node without a connection, a resume only
# once the whole view acked its epoch, one recovery at a time, and one
# finish per launch.
go test -run '^$' -fuzz '^FuzzCoordinator$' -fuzztime 10s ./internal/cluster
# The race detector over every package. -short trims the conformance
# sweep to the sim-fabric matrix and skips the long soak (`make soak`),
# the baseline collection and the helper-process tests; the whole root
# package — reliability, leases, async handles, coalescing, workload and
# barrier parity, elastic recovery — is covered by the same line, so a
# new test needs no entry here.
go test -race -short ./...
# The socket readers twenty times over: each parks after a short read
# without reading to EAGAIN, so a lost wake-up there shows only as a
# 10 s deadline, and a single run can miss it.
go test -count=20 -run 'TCP|Pair|Session|Peer' ./internal/cluster ./internal/transport
# The lock modules once more, five times over: the late-link and usurper
# splice windows of the MCS queue are schedule-dependent, and one race
# pass rarely enters them.
go test -race -count=5 ./internal/core
# The wall-clock runtime likewise: whether a signal lands before or after
# its box's owner parks is the scheduler's choice on every wait.
go test -race -count=5 ./internal/transport
# The conformance sweeps on chan, where a request to an idle data server is
# served on its sender's goroutine and a write wakes only the waits whose
# cells it touches: the default matrix, and the same under loss and
# duplication, which keep the serve loop (~10 s each).
go run ./cmd/armci-check -fabrics chan -seeds 16
go run ./cmd/armci-check -fabrics chan -faults 'loss=0.15,retry=12;dup=0.2' -seeds 8
# The same fault sweep on tcp: a send lends its message, and an injected
# duplicate is a shallow copy of the loan that the socket link encodes
# after the original.
go run ./cmd/armci-check -fabrics tcp -faults 'loss=0.15,retry=12;dup=0.2' -seeds 8
# And coalescing on both in-process wall-clock fabrics, where a data server
# applies a frame while other ranks read the same memory: at the default
# two ranks per node one frame spans two ranks' memory (~5 s).
go run ./cmd/armci-check -fabrics chan,tcp -coalesce -seeds 8
# And the per-actor state under it: a reset landing mid-stream on other
# actors' pipes, a reader folding counters an actor is still adding to.
go test -race -count=5 ./internal/pipeline ./internal/trace
# And the pair connection: whether a second sender's frame lands before or
# after the first one's flush on a shared connection is the scheduler's too.
go test -race -count=5 ./internal/cluster
# The multi-process tests -short skips (ring/coalesced/workload/
# hierarchical parity with TCP, worker-death attribution, elastic
# kill-and-respawn): real OS worker processes, race detector on.
go test -race -run Procnet .
# The multi-process smoke: a 4-rank smoke-sized Fig. 7 point through
# armci-run — real OS processes, rendezvous, puts over worker-to-worker
# sockets, clean drain — then the same on 2 workers of 2 ranks each, where
# a third of the frames are same-node and take a worker's socket to itself.
go run ./cmd/armci-run -n 4 -workload fig7-small
go run ./cmd/armci-run -n 4 -ppn 2 -workload fig7-small
# The elastic smoke: the same 4-rank launch with one worker killed
# mid-epoch and recovered by respawn; the launcher verifies every rank's
# fingerprint (the respawned one included) against the pure-replay
# oracle, so a lost or duplicated op fails the gate (`make elasticsoak`
# loops exactly this run).
go run ./cmd/armci-run -n 4 -workload elastic -elastic -faults crashrank=1@3
# The harness's output contract in full: every figure regenerated on the
# simulator and diffed against results/all-tables.txt, byte for byte
# (~15 s since the kernel switches coroutines and rechecks on a poke).
make golden
# The number simplicity PRs quote: non-test Go lines, benchmark/ excluded.
sh scripts/loc.sh | tail -1
