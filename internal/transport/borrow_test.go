package transport

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
)

// TestSendLendsItsMessage: Env.Send borrows its message only until it
// returns. The sender sends every frame from one message, one payload and
// one stride descriptor, and overwrites all three — fields, bytes and
// vectors — as soon as Send returns; the receiver must get each frame as
// it was sent. That holds where the fabric keeps a copy (a chan mailbox,
// a sim event) and where it encodes (tcp), and with dup=0.2, whose
// duplicates start as shallow copies of the loan.
func TestSendLendsItsMessage(t *testing.T) {
	const frames = 40
	payload := func(i, k int) byte { return byte(i*13 + k + 1) }
	size := func(i int) int { return 8 + i*7 } // across a slot's inline bytes
	for _, faults := range []pipeline.Faults{{}, {Seed: 2, DupProb: 0.2}} {
		cfg := Config{Procs: 2, Model: model.Myrinet2000(), Faults: faults, OpDeadline: 10 * time.Second}
		for name, mk := range fabricsUnderTest(t, cfg) {
			t.Run(fmt.Sprintf("%s/dup=%v", name, faults.DupProb), func(t *testing.T) {
				f, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				f.SpawnUser(0, func(env Env) {
					var out msg.Message
					data := make([]byte, size(frames))
					var d shmem.Strided
					count, stride := make([]int, 3), make([]int64, 2)
					for i := 0; i < frames; i++ {
						for k := range data[:size(i)] {
							data[k] = payload(i, k)
						}
						count[0], count[1], count[2] = i, i+1, i+2
						stride[0], stride[1] = int64(i*100), int64(i*1000)
						d = shmem.Strided{Count: count, Stride: stride}
						out = msg.Message{Kind: msg.KindSend, Tag: i, Stride: &d, Data: data[:size(i)]}
						env.Send(msg.User(1), &out)
						out = msg.Message{Kind: msg.KindSend, Tag: -1}
						clear(count)
						clear(stride)
						for k := range data {
							data[k] = 0xEE
						}
					}
				})
				var bad []string
				f.SpawnUser(1, func(env Env) {
					for i := 0; i < frames; i++ {
						m := env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(0), i))
						want := make([]byte, size(i))
						for k := range want {
							want[k] = payload(i, k)
						}
						d := m.Strided()
						if !bytes.Equal(m.Data, want) ||
							!slices.Equal(d.Count, []int{i, i + 1, i + 2}) ||
							!slices.Equal(d.Stride, []int64{int64(i * 100), int64(i * 1000)}) {
							bad = append(bad, fmt.Sprintf("frame %d arrived as %v stride %v data %x", i, m, d, m.Data))
						}
					}
				})
				if err := f.Run(); err != nil {
					t.Fatal(err)
				}
				if len(bad) > 0 {
					t.Fatalf("%d frames changed after Send returned; first: %s", len(bad), bad[0])
				}
			})
		}
	}
}
