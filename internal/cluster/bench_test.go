package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"armci/internal/msg"
)

// BenchmarkSessionSend measures the procnet hot path: encoding one
// small message into the pair connection's reused buffer and writing it
// to the socket this worker dialed to the destination's worker, whose
// reader runs beside it. Each frame is sent in a generation of its own,
// so each is one encode plus one write. It is wall-clock, so no baseline
// gates it: compare two builds with alternating `go test -bench
// SessionSend` runs.
func BenchmarkSessionSend(b *testing.B) {
	var received atomic.Int64
	_, sess := startCluster(b, Config{Procs: 2, Cookie: 7}, func(node int) Handlers {
		return Handlers{Data: func(*msg.Message) { received.Add(1) }}
	})

	var from Sender
	m := &msg.Message{Kind: msg.KindPut, Src: msg.User(0), Dst: msg.User(1), Data: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq = uint64(i + 1)
		sess[0].SendMsg(&from, m.Seq, 1, m)
	}
	b.StopTimer()
	// Let the receiver finish before teardown closes its socket.
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}
