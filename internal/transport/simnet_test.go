package transport

import (
	"errors"
	"strings"
	"testing"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/shmem"
	"armci/internal/sim"
)

// TestSimWriteWakesWatchersOfAnyNode: on sim a memory wait may read a cell
// homed on another node (the MCS late-link and usurper windows do), so a
// Space write pokes every actor inside a memory wait, not only the written
// node's. The waiter resumes at the virtual instant of the write, and a
// wait that returned has left the watcher list.
func TestSimWriteWakesWatchersOfAnyNode(t *testing.T) {
	f, err := NewSim(Config{Procs: 2, Model: model.Myrinet2000()})
	if err != nil {
		t.Fatal(err)
	}
	remote := f.Space().AllocWords(1, 1) // rank 1's node, watched from rank 0's
	var seen, wrote time.Duration
	f.SpawnUser(0, func(env Env) {
		env.WaitUntil("remote-cell", shmem.Cell(remote), func() bool { return env.Space().Load(remote) == 7 })
		seen = env.Clock().Now()
	})
	f.SpawnUser(1, func(env Env) {
		env.Clock().Sleep(3 * time.Millisecond)
		wrote = env.Clock().Now()
		env.Space().Store(remote, 7)
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if want := wrote + f.cfg.Model.PollGap; seen != want {
		t.Fatalf("watcher resumed at %v, want %v (the write at %v plus the poll gap)", seen, want, wrote)
	}
	if len(f.watchers) != 0 {
		t.Fatalf("%d actors still on the watcher list after the run", len(f.watchers))
	}
}

// TestSimMissedPokeIsNotADrain: a wait whose predicate reads something
// other than the mailbox, Space memory or its own deadline is never poked
// when that something changes. It must come back from Run as the kernel's
// missed wake-up — naming actor and tag — even where a plain deadlock
// would have been excused: here the last user has finished, which makes a
// parked server a benign drain.
func TestSimMissedPokeIsNotADrain(t *testing.T) {
	f, err := NewSim(Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	flag := false // not Space memory: setting it pokes nobody
	spawnServerBody(f, 0, func(env Env) {
		env.WaitUntil("go-variable", shmem.Cells{}, func() bool { return flag })
	})
	spawnServerBody(f, 1, func(env Env) {
		env.Recv(msg.MatchAny) // nil once the users are done
		env.Clock().Sleep(time.Millisecond)
		flag = true
	})
	for rank := 0; rank < 2; rank++ {
		f.SpawnUser(rank, func(env Env) { env.Clock().Sleep(time.Millisecond) })
	}
	err = f.Run()
	if err == nil || errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("want the missed wake-up error, outside ErrDeadlock; got %v", err)
	}
	for _, want := range []string{"missed wake-up", "srv0(go-variable)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestSimStaleDeadlineTimerSparesLaterWaits: every bounded wait arms its
// own timer, and a timer outlives a wait that was satisfied early. When it
// fires it pokes the actor — by then inside a later wait — and that wait
// must read its own flag, not the stale one.
func TestSimStaleDeadlineTimerSparesLaterWaits(t *testing.T) {
	const od = 10 * time.Millisecond
	f, err := NewSim(Config{Procs: 2, OpDeadline: od})
	if err != nil {
		t.Fatal(err)
	}
	cell := f.Space().AllocWords(0, 1)
	f.SpawnUser(0, func(env Env) {
		env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(1), 0)) // timer A: fires at od
		env.Clock().Sleep(od * 6 / 10)
		env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(1), 1)) // spans A, satisfied at 1.2 od
		env.WaitUntil("cell", shmem.Cell(cell), func() bool { return env.Space().Load(cell) == 1 })
	})
	f.SpawnUser(1, func(env Env) {
		env.Send(msg.User(0), &msg.Message{Kind: msg.KindSend, Tag: 0})
		env.Clock().Sleep(od * 12 / 10)
		env.Send(msg.User(0), &msg.Message{Kind: msg.KindSend, Tag: 1})
		env.Clock().Sleep(od * 7 / 10) // the second Recv's own timer fires inside the memory wait
		env.Space().Store(cell, 1)
	})
	if err := f.Run(); err != nil {
		t.Fatalf("a timer of an earlier wait cut a later one short: %v", err)
	}
}
