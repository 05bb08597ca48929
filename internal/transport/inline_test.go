package transport

import (
	"strings"
	"testing"

	"armci/internal/msg"
	"armci/internal/shmem"
)

// rmwServer is a data server in miniature, the handler the inline tests
// serve with: a Get packs the region into its reply, a word store is
// fire-and-forget, a fetch-and-add and a load answer with the old value,
// and a fence is answered at once (the per-pair order is the proof).
func rmwServer(env Env) Handler {
	space := env.Space()
	return func(m *msg.Message) {
		r := msg.Message{Origin: m.Origin, Token: m.Token}
		switch m.Kind {
		case msg.KindGet:
			r.Kind, r.Data = msg.KindGetResp, space.AppendGet(nil, m.Ptr, shmem.Strided{}, m.N)
		case msg.KindFenceReq:
			r.Kind = msg.KindFenceAck
		case msg.KindRmw:
			r.Kind = msg.KindRmwResp
			switch msg.RmwOp(m.Op) {
			case msg.RmwStore:
				space.Store(m.Ptr, m.Operands[0])
				return
			case msg.RmwFetchAdd:
				r.Operands[0] = space.FetchAdd(m.Ptr, m.Operands[0])
			case msg.RmwLoadPair:
				r.Operands[0] = space.Load(m.Ptr)
			}
		}
		env.Send(msg.User(m.Origin), &r)
	}
}

// call sends m to server s and returns its reply.
func call(env Env, s int, m msg.Message, reply msg.Kind) *msg.Message {
	m.Origin = env.Rank()
	env.Send(msg.ServerOf(s), &m)
	return env.Recv(msg.MatchToken(reply, m.Token))
}

// TestServedOnDeliveryParksNobody: on chan a Get, a fetch-and-add and a
// fence to an idle server are served on the requester's goroutine, so the
// reply is in its mailbox before its Recv looks — neither the requester
// nor the server parks for them (the server's one park is its idle wait
// for shutdown).
func TestServedOnDeliveryParksNobody(t *testing.T) {
	f, err := NewChan(Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !f.inline {
		t.Fatal("a chan fabric with no cost model and no fault plan does not serve on delivery")
	}
	bytes := f.Space().AllocBytes(1, 8)
	word := f.Space().AllocWords(1, 1)
	f.Space().Put(bytes, []byte("remote!!"))
	f.Space().Store(word, 40)
	for n := 0; n < 2; n++ {
		f.SpawnServer(n, rmwServer)
	}
	var got []byte
	var old int64
	fenced := false
	f.SpawnUser(0, func(env Env) {
		got = call(env, 1, msg.Message{Kind: msg.KindGet, Token: 1, Ptr: bytes, N: 8}, msg.KindGetResp).Data
		old = call(env, 1, msg.Message{Kind: msg.KindRmw, Op: uint8(msg.RmwFetchAdd), Token: 2, Ptr: word, Operands: [4]int64{2}}, msg.KindRmwResp).Operands[0]
		fenced = call(env, 1, msg.Message{Kind: msg.KindFenceReq, Token: 3}, msg.KindFenceAck) != nil
	})
	f.SpawnUser(1, func(Env) {})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "remote!!" || old != 40 || f.Space().Load(word) != 42 || !fenced {
		t.Fatalf("get %q, fetch-and-add old %d now %d, fence %v; want \"remote!!\", 40, 42, true",
			got, old, f.Space().Load(word), fenced)
	}
	if p := f.boxes[msg.User(0)].parks; p != 0 {
		t.Errorf("the requester parked %d times for three round trips to an idle server", p)
	}
	if s := f.boxes[msg.ServerOf(1)]; s.parks > 1 || s.futile > 1 {
		t.Errorf("the server parked %d times (%d futile), want at most its idle wait", s.parks, s.futile)
	}
}

// TestServedOnDeliveryUnderContention: four ranks interleave a stored
// value, a fetch-and-add and a load of it back, 1,000 times each, against
// one server, while it serves some requests on their senders' goroutines
// and queues others behind the one in service. No update is lost, and
// every rank reads back its own latest store: a request never overtakes an
// earlier one of its pair.
func TestServedOnDeliveryUnderContention(t *testing.T) {
	const ranks, iters = 4, 1000
	f, err := NewChan(Config{Procs: ranks})
	if err != nil {
		t.Fatal(err)
	}
	counter := f.Space().AllocWords(0, 1)
	mine := f.Space().AllocWords(0, ranks)
	for n := 0; n < ranks; n++ {
		f.SpawnServer(n, rmwServer)
	}
	var stale [ranks]int
	for r := 0; r < ranks; r++ {
		f.SpawnUser(r, func(env Env) {
			cell := mine.Add(int64(r))
			for i := int64(1); i <= iters; i++ {
				env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindRmw, Op: uint8(msg.RmwStore), Origin: r, Ptr: cell, Operands: [4]int64{i}})
				call(env, 0, msg.Message{Kind: msg.KindRmw, Op: uint8(msg.RmwFetchAdd), Token: uint64(2 * i), Ptr: counter, Operands: [4]int64{1}}, msg.KindRmwResp)
				if v := call(env, 0, msg.Message{Kind: msg.KindRmw, Op: uint8(msg.RmwLoadPair), Token: uint64(2*i + 1), Ptr: cell}, msg.KindRmwResp).Operands[0]; v != i {
					stale[r]++
				}
			}
		})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if got := f.Space().Load(counter); got != ranks*iters {
		t.Errorf("counter %d after %d fetch-and-adds", got, ranks*iters)
	}
	for r, n := range stale {
		if n != 0 || f.Space().Load(mine.Add(int64(r))) != iters {
			t.Errorf("rank %d read back a value other than its latest store %d times (final %d)", r, n, f.Space().Load(mine.Add(int64(r))))
		}
	}
}

// TestQueuedRequestWaitsItsTurn: a request that arrives while an earlier
// one of its pair is still queued — the server has left service, but not
// yet taken it — queues behind it instead of being served on delivery, and
// the server takes the two in arrival order. A request that finds the
// mailbox empty and the server out of service is served at once.
func TestQueuedRequestWaitsItsTurn(t *testing.T) {
	f, err := NewChan(Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var served []int
	f.SpawnServer(0, func(Env) Handler {
		return func(m *msg.Message) { served = append(served, m.Tag) }
	})
	f.SpawnUser(0, func(Env) {})
	b := f.boxes[msg.ServerOf(0)]
	req := func(tag int) *msg.Message {
		return &msg.Message{Kind: msg.KindRmw, Src: msg.User(0), Dst: msg.ServerOf(0), Tag: tag}
	}
	b.inService = true // the server has taken a frame and is serving it
	f.arrive(b, req(1), nil)
	b.inService = false
	f.arrive(b, req(2), nil)
	if len(served) != 0 || b.q.Len() != 2 {
		t.Fatalf("with an earlier request queued, %v were served on delivery and %d queued; want none and 2", served, b.q.Len())
	}
	for want := 1; want <= 2; want++ {
		if m := b.env.pop(msg.MatchAny); m == nil || m.Tag != want {
			t.Fatalf("the server took %v, want request %d", m, want)
		}
	}
	b.env.pop(msg.MatchAny) // the server leaves service: nothing is left
	f.arrive(b, req(3), nil)
	if len(served) != 1 || served[0] != 3 || b.q.Len() != 0 || b.inline {
		t.Fatalf("a request to an idle server with an empty mailbox: served %v, %d queued, in service %v", served, b.q.Len(), b.inline)
	}
}

// TestWriteSignalsOnlyItsWaits: a write outside the cells a wait declared
// leaves its owner alone, and one that overlaps them signals it once —
// including a pair write that covers the cell with its second word. A wait
// that declared nothing is signalled by no write.
func TestWriteSignalsOnlyItsWaits(t *testing.T) {
	f, err := NewChan(Config{Procs: 2, ProcsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.SpawnUser(0, func(Env) {})
	b := f.boxes[msg.User(0)]
	words := f.Space().AllocWords(1, 4) // a co-located rank's memory
	bytes := f.Space().AllocBytes(1, 64)
	signals := func() int {
		n := len(b.ready)
		if n > 0 {
			<-b.ready
		}
		return n
	}
	b.watch(shmem.Cell(words.Add(1)))
	for _, w := range []func(){
		func() { f.Space().Store(words, 1) },
		func() { f.Space().StorePair(words.Add(2), shmem.Pair{Hi: 1}) },
		func() { f.Space().Put(bytes.Add(8), make([]byte, 8)) },
	} {
		w()
		if n := signals(); n != 0 {
			t.Fatalf("a write outside the wait's cell signalled it (%d)", n)
		}
	}
	f.Space().StorePair(words, shmem.Pair{Hi: 1, Lo: 2})
	if n := signals(); n != 1 {
		t.Fatalf("a pair write overlapping the wait's cell signalled it %d times, want 1", n)
	}
	f.Space().FetchAdd(words.Add(1), 1)
	if n := signals(); n != 1 {
		t.Fatalf("a write of the wait's cell signalled it %d times, want 1", n)
	}
	b.watch(shmem.Cells{})
	f.Space().Store(words.Add(1), 0)
	if n := signals(); n != 0 {
		t.Fatalf("a wait with no cells was signalled by a write (%d)", n)
	}
}

// TestSimUndeclaredReadFails: on the simulator a predicate that turns true
// when only writes outside its declared cells poked it fails the run with
// the wait's actor and tag — the wait a wall-clock fabric would never wake.
func TestSimUndeclaredReadFails(t *testing.T) {
	f, err := NewSim(Config{Procs: 2, ProcsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	read := f.Space().AllocWords(0, 1)
	declared := f.Space().AllocWords(0, 1)
	f.SpawnUser(0, func(env Env) {
		env.WaitUntil("wrong-cell", shmem.Cell(declared), func() bool { return env.Space().Load(read) != 0 })
	})
	f.SpawnUser(1, func(env Env) {
		env.Clock().Sleep(1000)
		env.Space().Store(read, 1)
	})
	err = f.Run()
	if err == nil || !strings.Contains(err.Error(), "undeclared read") || !strings.Contains(err.Error(), "wrong-cell") {
		t.Fatalf("a wait that read an undeclared cell: %v", err)
	}
}
