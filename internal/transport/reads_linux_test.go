//go:build linux

package transport

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"armci/internal/msg"
)

// ioCount returns the process's count of read-like (syscr) or write-like
// (syscw) system calls from /proc/self/io, skipping the test where that
// file is absent.
func ioCount(t *testing.T, field string) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io to count system calls: %v", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte(field+": ")); ok {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s in /proc/self/io", field)
	return 0
}

// TestTCPReadsOncePerWakeUp: over 2,000 round trips between two ranks the
// link readers make at most 1.2 read calls per delivered frame. A reader
// that read until EAGAIN would pay two per wake-up — one for the frame,
// one to learn the socket is drained — and one frame is all a ping-pong
// wake-up brings.
func TestTCPReadsOncePerWakeUp(t *testing.T) {
	const rounds = 2000
	ioCount(t, "syscr")
	f, _ := newTCPPair(t)
	var reads int
	f.SpawnUser(0, func(env Env) {
		// The first round trip opens the connection and starts its readers.
		env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: -1})
		env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(1), -1))
		reads = ioCount(t, "syscr")
		for i := 0; i < rounds; i++ {
			env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i})
			env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(1), i))
		}
		reads = ioCount(t, "syscr") - reads
	})
	f.SpawnUser(1, func(env Env) {
		for i := -1; i < rounds; i++ {
			env.Recv(tagged(i))
			env.Send(msg.User(0), &msg.Message{Kind: msg.KindSend, Tag: i})
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	frames := 2 * rounds
	if perFrame := float64(reads) / float64(frames); perFrame > 1.2 {
		t.Fatalf("%d read calls for %d frames: %.2f a frame, want at most 1.2", reads, frames, perFrame)
	}
	t.Logf("%d read calls for %d frames", reads, frames)
}
