package armci_test

import (
	"slices"
	"testing"

	"armci"
	"armci/internal/msg"
	"armci/internal/trace"
)

// TestStreamOrdersSendsAndSteps: the captured spine puts messages and
// protocol steps in one order, which neither view alone can show. In a
// contended queue lock the releaser's release comes before the hand-off
// store it sends, that store's send before its admission at the
// successor's server, and the admission before the successor's acquire.
// Around a barrier after puts, each put's send comes before its
// completion, and every completion before every rank's exit.
func TestStreamOrdersSendsAndSteps(t *testing.T) {
	const procs, rounds = 2, 3
	rep, err := armci.Run(armci.Options{
		Procs:        procs,
		ProcsPerNode: 1, // rank r's server is ServerOf(r)
		Fabric:       armci.FabricSim,
		NumMutexes:   1,
		CaptureTrace: true,
	}, func(p *armci.Proc) {
		ptrs := p.Malloc(8)
		peer := ptrs[(p.Rank()+1)%procs]
		mu := p.Mutex(0, armci.LockQueue)
		p.Barrier()
		for i := 0; i < rounds; i++ {
			mu.Lock()
			p.Get(peer, 8) // a round trip held in the lock: the other rank queues
			mu.Unlock()
		}
		p.Put(peer, make([]byte, 8))
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := slices.Collect(rep.Stats.Records())
	// find returns the index of the first record at or after from that
	// matches, -1 if none does.
	find := func(from int, match func(trace.OpEvent) bool) int {
		for i := max(from, 0); i < len(stream); i++ {
			if match(stream[i]) {
				return i
			}
		}
		return -1
	}
	deliveryOf := func(send int) int {
		m := stream[send]
		return find(send+1, func(e trace.OpEvent) bool {
			return e.Kind == trace.OpDeliver && e.Src == m.Src && e.Dst == m.Dst && e.PairSeq == m.PairSeq
		})
	}

	handOffs := 0
	for acq, a := range stream {
		if a.Kind != trace.OpAcquire || a.Prev < 0 {
			continue
		}
		handOffs++
		from, to := a.Prev, a.Rank
		rel := -1
		for i := acq - 1; i >= 0 && rel < 0; i-- {
			if e := stream[i]; e.Kind == trace.OpRelease && e.Rank == from {
				rel = i
			}
		}
		// The wake is the releaser's first fence-counted store after its
		// release (the detach CAS and a re-lock's swap are not counted).
		issue := find(rel, func(e trace.OpEvent) bool {
			return e.Kind == trace.OpIssue && e.Rank == from && e.Node == to
		})
		send := find(issue, func(e trace.OpEvent) bool {
			return e.Kind == trace.OpSend && e.Src == msg.User(from)
		})
		if rel < 0 || issue < 0 || send < 0 {
			t.Fatalf("hand-off %d->%d at record %d: release %d, issue %d, send %d", from, to, a.Seq, rel, issue, send)
		}
		if m := stream[send]; m.Event.Kind != msg.KindRmw || m.Dst != msg.ServerOf(to) {
			t.Fatalf("hand-off %d->%d: the send after the wake's issue is %v %v->%v", from, to, m.Event.Kind, m.Src, m.Dst)
		}
		if dlv := deliveryOf(send); !(rel < send && send < dlv && dlv < acq) {
			t.Errorf("hand-off %d->%d: release %d, send %d, deliver %d, acquire %d; want them in that order",
				from, to, rel+1, send+1, dlv+1, acq+1)
		}
	}
	if handOffs == 0 {
		t.Fatal("no acquire queued behind a predecessor: the lock was never contended")
	}

	// The final barrier: every rank's exit from its second sync.
	var exits []int
	for i, e := range stream {
		if e.Kind == trace.OpSyncExit && e.Epoch == 2 {
			exits = append(exits, i)
		}
	}
	if len(exits) != procs {
		t.Fatalf("%d exits from the final barrier, want %d", len(exits), procs)
	}
	// A put is the k-th fence-counted operation its origin issued to the
	// node, so the node's k-th completion for that origin is the put's.
	issued := map[[2]int]int{}
	puts := 0
	for send, e := range stream {
		switch {
		case e.Kind == trace.OpIssue:
			issued[[2]int{e.Rank, e.Node}]++
		case e.Kind == trace.OpSend && e.Event.Kind == msg.KindPut:
			puts++
			origin, node := e.Src.ID(), e.Dst.ID()
			k, done := issued[[2]int{origin, node}], -1
			for i, c := range stream {
				if c.Kind == trace.OpComplete && c.Rank == origin && c.Node == node {
					if k--; k == 0 {
						done = i
						break
					}
				}
			}
			if done < send {
				t.Errorf("put %d->node %d sent at record %d, completed at %d", origin, node, send+1, done+1)
			}
			for _, x := range exits {
				if done > x {
					t.Errorf("put %d->node %d completed at record %d after rank %d's exit at %d",
						origin, node, done+1, stream[x].Rank, x+1)
				}
			}
		}
	}
	if puts != procs {
		t.Fatalf("%d puts in the stream, want %d", puts, procs)
	}
}
