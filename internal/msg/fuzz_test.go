package msg_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"armci/internal/msg"
	"armci/internal/shmem"
	"armci/internal/wire"
)

// FuzzMsgRoundTrip drives the wire codec with fuzzer-chosen field
// values: every protocol message the fuzzer can construct must survive
// encode→decode unchanged. Field widths are clamped to what the format
// carries (e.g. 32-bit counts, 31-bit endpoint IDs), mirroring the senders.
func FuzzMsgRoundTrip(f *testing.F) {
	f.Add(uint8(1), false, int32(0), true, int32(1), int32(0), uint64(7), uint64(1),
		int64(-3), int64(64), uint8(3), 2.5, int64(1), int64(-9), []byte{1, 2, 3})
	f.Add(uint8(12), true, int32(-1), false, int32(1<<20), int32(5), uint64(0), uint64(999),
		int64(1<<40), int64(0), uint8(255), -0.0, int64(1<<62), int64(0), []byte{})

	f.Fuzz(func(t *testing.T, kind uint8, srcSrv bool, srcID int32, dstSrv bool, dstID int32,
		origin int32, token, seq uint64, tag, n int64, op uint8, scale float64,
		op0, op1 int64, data []byte) {
		m := &msg.Message{
			Kind:     msg.Kind(kind),
			Src:      addr(srcSrv, srcID),
			Dst:      addr(dstSrv, dstID),
			Origin:   int(origin),
			Token:    token,
			Seq:      seq,
			Sent:     time.Duration(tag ^ op0), // arbitrary stamps; must survive
			Arrival:  time.Duration(op1),
			Tag:      int(tag),
			Ptr:      shmem.Ptr{Rank: origin, Kind: shmem.Kind(op % 3), Seg: srcID, Off: op0},
			N:        int(int32(n)),
			Op:       op,
			Operands: [4]int64{op0, op1, op0 ^ op1, -op0},
		}
		if m.Kind == msg.KindAcc {
			// An accumulate's operands are its scale (compared as bits,
			// so a NaN survives too).
			m.Operands = msg.ScaleOperands(scale)
		}
		if len(data) > 0 {
			m.Data = data
			m.Stride = &shmem.Strided{Count: []int{len(data)}, Stride: []int64{op1}}
		}
		got, err := wire.Decode(wire.AppendEncode(nil, m)[4:])
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v (message %v)", err, m)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mutated message:\nsent %#v\ngot  %#v", m, got)
		}
	})
}

// addr is the endpoint the fuzzer's (server, id) names, its ID cut to the
// 31 bits an Addr holds.
func addr(server bool, id int32) msg.Addr {
	if server {
		return msg.ServerOf(int(id & math.MaxInt32))
	}
	return msg.User(int(id & math.MaxInt32))
}
