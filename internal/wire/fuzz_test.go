package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"armci/internal/msg"
	"armci/internal/shmem"
)

// FuzzWireDecode feeds arbitrary bytes to the frame-body decoder. Decode
// must never panic or over-allocate, and any body it accepts must
// re-encode to an identical body — accepted inputs round-trip, so no two
// distinct messages share an encoding.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	// Seed with valid encodings so the fuzzer starts inside the format.
	for _, m := range sampleMessages() {
		f.Add(AppendEncode(nil, m)[4:])
	}
	// A truncated valid body and one with trailing garbage.
	body := AppendEncode(nil, sampleMessages()[0])[4:]
	f.Add(body[:len(body)/2])
	f.Add(append(append([]byte{}, body...), 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := AppendEncode(nil, m)[4:]
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted body does not round-trip:\n in=%x\nout=%x", data, re)
		}
	})
}

// FuzzFrameReader reads arbitrary bytes as a frame stream twice — with
// ReadFrame, and with a FrameReader fed in half-sized reads — and requires
// the same bodies, and an error from both or from neither, at every frame.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{16, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	var stream []byte
	for _, a := range []msg.Addr{msg.User(3), msg.ServerOf(1)} {
		stream = append(stream, frame(appendAddr(nil, a))...) // a 9-byte body
		f.Add(frame(appendAddr(nil, a)))
	}
	// A coalesced burst's frame is past the reader's first buffer, so
	// reading it regrows the buffer.
	batch := &msg.Message{Kind: msg.KindBatch, N: 256, Data: EncodeBatch(burst(256))}
	for _, m := range append(sampleMessages(), batch) {
		stream = append(stream, AppendEncode(nil, m)...)
		f.Add(AppendEncode(nil, m))
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		plain := bytes.NewReader(data)
		fr := FrameReader{R: iotest.HalfReader(bytes.NewReader(data))}
		for i := 0; ; i++ {
			want, werr := ReadFrame(plain)
			got, gerr := fr.Next()
			if (werr == nil) != (gerr == nil) || (werr == io.EOF) != (gerr == io.EOF) {
				t.Fatalf("frame %d: ReadFrame err %v, FrameReader err %v", i, werr, gerr)
			}
			if werr != nil {
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: ReadFrame %x, FrameReader %x", i, want, got)
			}
		}
	})
}

// FuzzLinkDecode is the differential test of the link reader's decoder: a
// frame stream's bodies go, over and over, through one arena (DecodeIn) —
// far enough to cross chunk and slab boundaries, with payloads inline in a
// slot, carved from a slab and allocated on their own — and through
// Decode. For
// every body both reject it or both return equal messages, and at the end
// every message the arena produced still equals its body's fresh decoding:
// nothing carved later wrote into an earlier message or payload.
func FuzzLinkDecode(f *testing.F) {
	f.Add([]byte{})
	var stream []byte
	for _, m := range sampleMessages() {
		stream = append(stream, AppendEncode(nil, m)...)
	}
	f.Add(stream)
	big := &msg.Message{Kind: msg.KindPut, Data: bytes.Repeat([]byte{7}, msg.SlabBytes/4+1)}
	mid := &msg.Message{Kind: msg.KindAcc, Data: bytes.Repeat([]byte{5}, msg.SlabBytes/4)}
	slab := &msg.Message{Kind: msg.KindPut, Data: bytes.Repeat([]byte{3}, msg.InlineBytes+1)}
	resp := &msg.Message{Kind: msg.KindGetResp, Token: 3, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	var mixed []byte
	for _, m := range []*msg.Message{big, mid, slab, resp} {
		mixed = append(mixed, AppendEncode(nil, m)...)
	}
	f.Add(append(append([]byte{}, stream...), mixed...))
	f.Add(append(append([]byte{}, stream...), 0xff, 0, 0, 0, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		var bodies [][]byte // the frames data holds in full
		for len(data) >= 4 {
			n := binary.LittleEndian.Uint32(data)
			if uint64(n) > uint64(len(data)-4) {
				break
			}
			bodies, data = append(bodies, data[4:4+n]), data[4+n:]
		}
		if len(bodies) == 0 {
			return
		}
		type kept struct {
			m    *msg.Message
			body []byte
		}
		var arena msg.Arena
		var all []kept
		for i := 0; i < 8*msg.ChunkMessages; i++ {
			body := bodies[i%len(bodies)]
			got, gerr := DecodeIn(&arena, body)
			want, werr := Decode(body)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("body %x: link decoder err %v, Decode err %v", body, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("body %x:\nlink   %#v\nDecode %#v", body, got, want)
			}
			if len(got.Data) != cap(got.Data) {
				t.Fatalf("payload of len %d has cap %d: an append would write into a neighbour", len(got.Data), cap(got.Data))
			}
			all = append(all, kept{got, body})
		}
		for _, k := range all {
			if want, _ := Decode(k.body); !reflect.DeepEqual(k.m, want) {
				t.Fatalf("a message changed after later decodes:\nnow  %#v\nwant %#v", k.m, want)
			}
		}
	})
}

func sampleMessages() []*msg.Message {
	return []*msg.Message{
		{Kind: msg.KindPut, Src: msg.User(0), Dst: msg.ServerOf(1), Origin: 0, Seq: 1,
			Ptr: shmem.Ptr{Rank: 1, Kind: 1, Seg: 1, Off: 8}, Data: []byte{1, 2, 3}},
		{Kind: msg.KindRmw, Src: msg.User(2), Dst: msg.ServerOf(0), Origin: 2, Token: 7,
			Op: uint8(msg.RmwCASPair), Operands: [4]int64{1, 2, 3, 4}},
		{Kind: msg.KindGet, Src: msg.User(1), Dst: msg.ServerOf(1), N: 64,
			Stride: &shmem.Strided{Count: []int{8, 4}, Stride: []int64{32}}},
		{Kind: msg.KindAcc, Src: msg.User(3), Dst: msg.ServerOf(0), Seq: 4,
			Ptr: shmem.Ptr{Rank: 0, Kind: 1, Seg: 2, Off: 16}, Op: uint8(shmem.AccFloat64),
			Operands: msg.ScaleOperands(-0.5),
			Stride:   &shmem.Strided{Count: []int{8, 2, 2}, Stride: []int64{32, 128}},
			Data:     make([]byte, 32)},
		{Kind: msg.KindColl, Src: msg.User(4), Dst: msg.User(5), Tag: -3,
			Data: []byte("reduce")},
	}
}

// TestWireRoundTripSamples pins the exact-equality round trip for
// representative messages of every field shape (the fuzz targets only
// prove re-encoding stability; this proves field fidelity).
func TestWireRoundTripSamples(t *testing.T) {
	for _, m := range sampleMessages() {
		got, err := Decode(AppendEncode(nil, m)[4:])
		if err != nil {
			t.Fatalf("decode(%v): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip mutated message:\nsent %#v\ngot  %#v", m, got)
		}
	}
}
