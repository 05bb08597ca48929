package main

import (
	"strings"
	"testing"
)

// TestRunParallelOutputIdentical is the CLI-level determinism check: the
// same small sweep at -j 1 and -j 8 must print byte-identical output
// (minus the header line, which names the worker count).
func TestRunParallelOutputIdentical(t *testing.T) {
	sweep := func(j string) (int, string) {
		var b strings.Builder
		code := run([]string{"-algs", "queue,hybrid", "-syncs", "barrier",
			"-seeds", "8", "-v", "-j", j}, &b)
		out := b.String()
		if i := strings.IndexByte(out, '\n'); i >= 0 {
			out = out[i+1:] // drop the worker-count header
		}
		return code, out
	}
	c1, o1 := sweep("1")
	c8, o8 := sweep("8")
	if c1 != 0 || c8 != 0 {
		t.Fatalf("clean sweep exited non-zero: j1=%d j8=%d", c1, c8)
	}
	if o1 != o8 {
		t.Fatalf("output differs between -j 1 and -j 8:\n-- j=1 --\n%s\n-- j=8 --\n%s", o1, o8)
	}
	if !strings.Contains(o1, "ok    {fabric=sim") {
		t.Fatalf("verbose sweep printed no per-case lines:\n%s", o1)
	}
}

// TestRunExitsNonZeroOnPanic pins the fixed bug: a worker panicking
// mid-case used to leave the sweep reporting success and exiting 0. The
// panicking mutation variant must surface as a PANIC line carrying the
// reproducer tuple and a non-zero exit, at any worker count.
func TestRunExitsNonZeroOnPanic(t *testing.T) {
	for _, j := range []string{"1", "4"} {
		var b strings.Builder
		code := run([]string{"-algs", "queue", "-syncs", "barrier", "-seeds", "2",
			"-mutation", "panic-case", "-j", j}, &b)
		out := b.String()
		if code == 0 {
			t.Fatalf("j=%s: sweep with panicking cases exited 0:\n%s", j, out)
		}
		if !strings.Contains(out, "PANIC") || !strings.Contains(out, "mutation=panic-case") {
			t.Fatalf("j=%s: panic not attributed to its reproducer:\n%s", j, out)
		}
		if !strings.Contains(out, "2 panics") {
			t.Fatalf("j=%s: summary does not count the panics:\n%s", j, out)
		}
	}
}

// TestLockMutantSweepsItsOwnAlgorithm: a lock mutant replaces the lock
// whatever a case names, so without -algs the sweep runs the algorithm it
// is a mutant of and no other, and every reproducer names that one. An
// explicit -algs still wins.
func TestLockMutantSweepsItsOwnAlgorithm(t *testing.T) {
	var b strings.Builder
	code := run([]string{"-mutation", "wait-wrong-cell", "-syncs", "barrier", "-seeds", "2", "-v"}, &b)
	out := b.String()
	if code == 0 {
		t.Fatalf("the mutant's sweep exited 0:\n%s", out)
	}
	if !strings.HasPrefix(out, "sweeping 2 cases") {
		t.Fatalf("want one case per seed:\n%s", out)
	}
	lines := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "{fabric=") {
			continue
		}
		lines++
		if !strings.Contains(line, "alg=queue/") {
			t.Errorf("reproducer names another algorithm than the mutant's: %s", line)
		}
	}
	if lines == 0 {
		t.Fatalf("no reproducer printed:\n%s", out)
	}
	b.Reset()
	run([]string{"-mutation", "wait-wrong-cell", "-algs", "queue,hybrid", "-syncs", "barrier", "-seeds", "1"}, &b)
	if !strings.HasPrefix(b.String(), "sweeping 2 cases") {
		t.Fatalf("an explicit -algs was not kept:\n%s", b.String())
	}
}
