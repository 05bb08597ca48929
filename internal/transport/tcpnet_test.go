package transport

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"armci/internal/cluster"
	"armci/internal/msg"
	"armci/internal/shmem"
	"armci/internal/trace"
)

// The tests of tcpLink's write rule (cluster.Pair's): a pair's first frame
// since its sender last listened leaves at once, the frames behind it go out
// together at the sender's next listen, at writeCap buffered bytes, or when
// it exits.

const writeCap = cluster.WriteCap

// newTCPPair builds a 2-rank TCP fabric whose hang would end in a deadline
// error rather than the test binary's timeout.
func newTCPPair(t *testing.T) (*TCPFabric, *trace.Stats) {
	t.Helper()
	stats := trace.New()
	f, err := NewTCP(Config{Procs: 2, Trace: stats, Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return f, stats
}

func tagged(i int) msg.Match { return msg.MatchSrcTag(msg.KindSend, msg.User(0), i) }

// TestTCPLoneFrameLeavesAtOnce: a Send followed by anything but a fabric
// call — here a wait on a plain Go channel — is on the wire without the
// sender ever listening. A link that held everything back until the next
// listen would hang here. A listen opens the next generation, whose first
// frame leaves at once again.
func TestTCPLoneFrameLeavesAtOnce(t *testing.T) {
	const rounds = 3
	f, stats := newTCPPair(t)
	var seen [rounds]chan struct{}
	for i := range seen {
		seen[i] = make(chan struct{})
	}
	f.SpawnUser(0, func(env Env) {
		for i := range seen {
			env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i})
			<-seen[i]
			listen(env) // a listen that receives nothing
		}
	})
	f.SpawnUser(1, func(env Env) {
		for i := range seen {
			env.Recv(tagged(i))
			close(seen[i])
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if writes, _ := stats.LinkWrites(); writes != rounds {
		t.Fatalf("%d lone frames took %d writes", rounds, writes)
	}
}

// TestTCPBurstRidesTogether: 64 frames of 512 B to one peer, then a Recv.
// All arrive, in order, and the link wrote the first alone, then whole
// buffers, then the rest at the listen — not once per frame. A ping-pong,
// where every frame is the first since its sender listened, still takes
// exactly one write per send.
func TestTCPBurstRidesTogether(t *testing.T) {
	const frames, size = 64, 512
	f, stats := newTCPPair(t)
	var order string
	f.SpawnUser(0, func(env Env) {
		for i := 0; i < frames; i++ {
			env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i, Data: make([]byte, size)})
		}
		env.Recv(msg.MatchKind(msg.KindColl))
	})
	f.SpawnUser(1, func(env Env) {
		for i := 0; i < frames; i++ {
			if m := env.Recv(msg.MatchKind(msg.KindSend)); (m.Tag != i || len(m.Data) != size) && order == "" {
				order = fmt.Sprintf("frame %d (%d B) arrived where frame %d (%d B) was due", m.Tag, len(m.Data), i, size)
			}
		}
		env.Send(msg.User(0), &msg.Message{Kind: msg.KindColl})
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if order != "" {
		t.Fatal(order)
	}
	writes, written := stats.LinkWrites()
	writes-- // the acknowledgement
	// No write but the last is short of writeCap, and none reaches it by
	// more than one frame (under 2*size encoded).
	least, most := 1+int(written)/(writeCap+2*size), 1+(int(written)+writeCap-1)/writeCap+1
	if writes < least || writes > most {
		t.Fatalf("%d frames (%d B encoded) took %d writes, want %d..%d", frames, written, writes, least, most)
	}

	const rounds = 50
	f, stats = newTCPPair(t)
	for r := 0; r < 2; r++ {
		f.SpawnUser(r, func(env Env) {
			peer := msg.User(1 - env.Rank())
			for i := 0; i < rounds; i++ {
				if env.Rank() == 0 {
					env.Send(peer, &msg.Message{Kind: msg.KindSend, Tag: i})
				}
				env.Recv(msg.MatchSrcTag(msg.KindSend, peer, i))
				if env.Rank() == 1 {
					env.Send(peer, &msg.Message{Kind: msg.KindSend, Tag: i})
				}
			}
		})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if writes, _ := stats.LinkWrites(); writes != stats.Sends() || writes != 2*rounds {
		t.Fatalf("a ping-pong of %d sends took %d writes, want %d", stats.Sends(), writes, 2*rounds)
	}
}

// TestTCPEveryWayOfWaitingFlushes: frames behind a pair's first leave at
// the sender's next fabric call of any kind. A sender that from then on only
// sleeps on the fabric clock, or only waits on a predicate that already
// holds, still delivers them — as does one that blocks, fail-stops or
// simply returns.
func TestTCPEveryWayOfWaitingFlushes(t *testing.T) {
	const frames = 3
	ways := map[string]func(env Env, delivered func() bool){
		"Sleep": func(env Env, delivered func() bool) {
			for !delivered() {
				env.Clock().Sleep(100 * time.Microsecond)
			}
		},
		"listen": func(env Env, delivered func() bool) {
			for !delivered() {
				listen(env)
				runtime.Gosched()
			}
		},
		"WaitUntilFor": func(env Env, delivered func() bool) {
			for !delivered() {
				env.WaitUntilFor("never", shmem.Cells{}, never, 100*time.Microsecond)
			}
		},
		"FailStop": func(env Env, _ func() bool) { env.FailStop("test") },
		"return":   func(Env, func() bool) {},
	}
	for name, wait := range ways {
		t.Run(name, func(t *testing.T) {
			f, _ := newTCPPair(t)
			var got atomic.Int32
			f.SpawnUser(0, func(env Env) {
				for i := 0; i < frames; i++ {
					env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i})
				}
				wait(env, func() bool { return got.Load() == frames })
			})
			f.SpawnUser(1, func(env Env) {
				for i := 0; i < frames; i++ {
					env.Recv(tagged(i))
					got.Add(1)
				}
			})
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runTCPFailsWhileCorked fails a TCP run while rank 0 holds frames behind a
// first one, and lets rank 0 outlive it: its next listen finds the pair
// closed by down, and the refused write is that actor's reported failure
// like a refused Send — not a panic that escapes it.
func runTCPFailsWhileCorked(t *testing.T) {
	t.Helper()
	f, _ := newTCPPair(t)
	release := make(chan struct{})
	f.SpawnUser(0, func(env Env) {
		for i := 0; i < 3; i++ {
			env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i})
		}
		<-release
		listen(env)
		t.Error("rank 0 listened past a refused write")
	})
	f.SpawnUser(1, func(env Env) {
		env.Recv(tagged(0))
		panic("boom")
	})
	err := f.Run()
	close(release)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run returned %v, want rank 1's panic", err)
	}
	select {
	case err := <-f.panics:
		if !strings.Contains(err.Error(), "tcpnet: send p0 -> p1") {
			t.Fatalf("rank 0 failed with %v, want its refused write", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank 0's refused write was never reported")
	}
}
