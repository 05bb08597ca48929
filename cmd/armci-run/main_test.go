package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParseArgs is the flag-to-launch table: every accepted command line
// (the smokes and soaks among them) and every refused one, where the
// error must name the offending flag. A flag the chosen launch would
// drop is refused, never ignored.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args string
		err  string // substring of the error; "" accepts
	}{
		// Accepted.
		{"-n 4 -workload fig7-small", ""},
		{"-n 4 -ppn 2 -workload fig7-small", ""},
		{"-n 8 -workload fig7 -reps 3 -block 8 -patch 2 -q -timeout 1m", ""},
		{"-n 4 -workload elastic -elastic -faults crashrank=1@3", ""},
		{"-v -timeout 20s -n 4 -workload elastic -elastic -faults crashrank=1@3 -q", ""},
		{"-n 4 -workload elastic -steps 3", ""},
		{"-n 4 -ppn 2 -v -- ./prog -x", ""},
		{"-n 4 -elastic -- ./prog", ""},
		{"-worker -workload elastic -n 4 -steps 0 -faults crashrank=1@3", ""},

		// The rank layout.
		{"-n 0 -workload fig7", "-n 0"},
		{"-n 4 -ppn 3 -workload fig7", "-ppn 3"},
		{"-n 4 -ppn 0 -workload fig7", "-ppn 0"},
		{"-n 4", "exactly one of -workload"},
		{"-n 4 -workload fig7 -- ./prog", "exactly one of -workload"},
		{"-n 4 -workload bogus", `unknown -workload "bogus"`},
		{"-n 4 -ppn 2 -elastic -- ./prog", "-elastic requires -ppn 1"},
		{"-n 4 -ppn 2 -workload elastic -elastic", "-elastic requires -ppn 1"},

		// Flags the chosen launch would drop.
		{"-n 4 -ppn 2 -workload elastic", "-ppn is for"},
		{"-n 4 -workload fig7 -faults jitter=1us", "-faults is for"},
		{"-n 4 -workload fig7-small -faults jitter=1us", "-faults is for"},
		{"-n 4 -faults jitter=1us -- ./prog", "-faults is for"},
		{"-n 4 -workload fig7 -steps 3", "-steps is for"},
		{"-n 4 -workload fig7-small -steps 3", "-steps is for"},
		{"-n 4 -steps 3 -- ./prog", "-steps is for"},
		{"-n 4 -workload elastic -reps 3", "-reps is for"},
		{"-n 4 -workload elastic -block 8", "-block is for"},
		{"-n 4 -workload elastic -patch 2", "-patch is for"},
		{"-n 4 -reps 3 -- ./prog", "-reps is for"},
		{"-n 4 -workload fig7 -elastic", "-elastic is for"},
		{"-n 4 -workload fig7-small -v", "-v is for"},
		{"-n 4 -q -- ./prog", "-q is for"},

		// The elastic workload's fault plan.
		{"-n 4 -workload elastic -faults crashrank=1@3", "add -elastic"},
		{"-n 4 -workload elastic -elastic -faults bogus=1", "-faults"},
	} {
		l, err := parseArgs(strings.Fields(tc.args))
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.args, err)
		case tc.err != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %q", tc.args, tc.err)
		case tc.err != "" && !strings.Contains(err.Error(), tc.err):
			t.Errorf("%s: error %q does not name %q", tc.args, err, tc.err)
		}
		if err != nil {
			continue
		}
		if _, prog, ok := strings.Cut(tc.args, " -- "); ok && !slices.Equal(l.command, strings.Fields(prog)) {
			t.Errorf("%s: command %q", tc.args, l.command)
		}
		if strings.Contains(tc.args, "crashrank=1@3") && !l.worker && (l.plan.ElasticCrashRank != 1 || l.plan.ElasticCrashStep != 3) {
			t.Errorf("%s: fault plan %+v, want crashrank 1 at epoch 3", tc.args, l.plan)
		}
	}
}
