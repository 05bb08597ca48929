package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"armci"
	"armci/internal/bench"
)

// TestFigAllOnWallClockFabricReachesTheEnd: on a fabric other than sim,
// -fig all prints one "skipped" line for every sim-only experiment and
// carries on to the last section; it used to die in the sim-only error
// of the last one. -format csv is honoured by every section that runs.
func TestFigAllOnWallClockFabricReachesTheEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure on the chan fabric (seconds of wall clock)")
	}
	var out bytes.Buffer
	if err := run(strings.Fields("-fig all -fabric chan -procs 2 -reps 1 -iters 2 -format csv"), &out); err != nil {
		t.Fatalf("-fig all -fabric chan: %v\n%s", err, &out)
	}
	blocks := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n\n")
	if len(blocks) != len(bench.Experiments) {
		t.Fatalf("%d output blocks for %d experiments:\n%s", len(blocks), len(bench.Experiments), &out)
	}
	for i, e := range bench.Experiments {
		skipped := strings.HasPrefix(blocks[i], e.Name+": skipped (")
		if skipped != e.SimOnly {
			t.Errorf("-fig %s (sim-only %v) printed:\n%s", e.Name, e.SimOnly, blocks[i])
		}
		// A CSV block opens with its column keys; a text one with a title.
		if header, _, _ := strings.Cut(blocks[i], "\n"); !skipped && strings.Contains(header, " ") {
			t.Errorf("-fig %s ignored -format csv:\n%s", e.Name, blocks[i])
		}
	}
}

// TestUnknownFigNamesTheRegistry: the error for a figure no row carries
// lists the ones that exist.
func TestUnknownFigNamesTheRegistry(t *testing.T) {
	err := run([]string{"-fig", "fig7"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), strings.Join(bench.FigNames(), ", ")) {
		t.Fatalf("-fig fig7: error %v does not list the registry's names", err)
	}
}

func TestParseFaultsGrammar(t *testing.T) {
	got, err := parseFaults("jitter=500us,spike=2ms@0.05,dup=0.02,loss=0.1@3,rto=200us@4ms,retry=6,crash=2@40,seed=7")
	if err != nil {
		t.Fatalf("full plan rejected: %v", err)
	}
	want := armci.Faults{
		Seed:            7,
		Jitter:          500 * time.Microsecond,
		SpikeProb:       0.05,
		SpikeDelay:      2 * time.Millisecond,
		DupProb:         0.02,
		LossProb:        0.1,
		LossBurst:       3,
		RTO:             200 * time.Microsecond,
		RTOCap:          4 * time.Millisecond,
		RetryBudget:     6,
		CrashRank:       2,
		CrashAfterSends: 40,
	}
	if got != want {
		t.Fatalf("parsed %+v,\nwant %+v", got, want)
	}
	got, err = parseFaults("dup=0.25@3ms,crashheld=1@2,crashrank=3@4")
	if err != nil {
		t.Fatalf("crash-position plan rejected: %v", err)
	}
	want = armci.Faults{
		DupProb:          0.25,
		DupDelay:         3 * time.Millisecond,
		CrashHeldRank:    1,
		CrashHeldAcquire: 2,
		ElasticCrashRank: 3,
		ElasticCrashStep: 4,
	}
	if got != want {
		t.Fatalf("parsed %+v,\nwant %+v", got, want)
	}
	if empty, err := parseFaults(""); err != nil || empty != (armci.Faults{}) {
		t.Fatalf("empty plan: %+v, %v", empty, err)
	}
}

func TestParseFaultsRejectsDuplicateKnobs(t *testing.T) {
	for _, plan := range []string{
		"jitter=1ms,jitter=2ms",
		"loss=0.1,loss=0.2",
		"seed=1,jitter=1ms,seed=2",
	} {
		_, err := parseFaults(plan)
		if err == nil {
			t.Fatalf("duplicate-knob plan %q accepted", plan)
		}
		if !strings.Contains(err.Error(), "duplicate faults knob") {
			t.Fatalf("plan %q: error %q does not name the duplicate knob", plan, err)
		}
	}
}

func TestParseFaultsRejectsBadValues(t *testing.T) {
	for _, plan := range []string{
		"bogus=1",
		"jitter",
		"jitter=xyz",
		"spike=2ms",
		"loss=1.5",
		"loss=-0.1",
		"loss=0.1@0",
		"rto=abc",
		"retry=0",
		"retry=-1",
		"crash=2",
		"crash=-1@5",
		"crash=2@0",
		"crashrank=2",
		"crashrank=-1@3",
		"crashrank=2@0",
		"crashheld=2",
		"crashheld=-1@5",
		"crashheld=2@0",
		"spike=1ms@x",
		"dup=0.1@x",
		"rto=1ms@x",
		"seed=x",
	} {
		if _, err := parseFaults(plan); err == nil {
			t.Fatalf("bad plan %q accepted", plan)
		}
	}
}
