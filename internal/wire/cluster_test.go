package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func TestClusterHelloRoundTrip(t *testing.T) {
	for _, h := range []ClusterHello{
		{},
		{Node: 3, Procs: 8, ProcsPerNode: 1, Cookie: 0xdeadbeefcafef00d},
		{Node: 0, Procs: 1, ProcsPerNode: 4, Cookie: 1},
		{Node: 2, Procs: 4, ProcsPerNode: 1, Cookie: 7, Incarnation: 3, PeerAddr: "127.0.0.1:45123"},
	} {
		got, err := DecodeClusterHello(EncodeClusterHello(h)[4:])
		if err != nil {
			t.Fatalf("decode(%+v): %v", h, err)
		}
		if got != h {
			t.Errorf("round trip mutated hello: sent %+v got %+v", h, got)
		}
	}
}

// TestClusterHelloStrictness pins the negotiation failure modes: every
// malformed hello must be rejected with an error naming the problem, so a
// version skew or a stray peer surfaces as a diagnosis, not a desync.
func TestClusterHelloStrictness(t *testing.T) {
	good := EncodeClusterHello(ClusterHello{Node: 1, Procs: 4, ProcsPerNode: 1, Cookie: 9})[4:]

	for name, tc := range map[string]struct {
		body []byte
		want string // substring the error must carry
	}{
		"empty":     {nil, "truncated"},
		"truncated": {good[:len(good)-1], "truncated"},
		"oversized": {append(append([]byte{}, good...), 0), "peer address"},
		"bad magic": {func() []byte {
			b := append([]byte{}, good...)
			binary.LittleEndian.PutUint32(b, 0x12345678)
			return b
		}(), "magic"},
		"future version": {func() []byte {
			b := append([]byte{}, good...)
			binary.LittleEndian.PutUint16(b[4:], ClusterVersion+1)
			return b
		}(), "version"},
	} {
		_, err := DecodeClusterHello(tc.body)
		if err == nil {
			t.Errorf("%s: decode accepted a malformed hello", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// FuzzClusterHelloDecode covers the rendezvous handshake frame: the
// decoder must never panic, and any body it accepts must re-encode to an
// identical body.
func FuzzClusterHelloDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x41, 0x52, 0x4d, 0x43})
	f.Add(EncodeClusterHello(ClusterHello{})[4:])
	f.Add(EncodeClusterHello(ClusterHello{Node: 7, Procs: 16, ProcsPerNode: 2, Cookie: ^uint64(0)})[4:])
	good := EncodeClusterHello(ClusterHello{Node: 1, Procs: 4, ProcsPerNode: 1, Cookie: 3})[4:]
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte{}, good...), 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeClusterHello(data)
		if err != nil {
			return
		}
		if re := EncodeClusterHello(h)[4:]; !bytes.Equal(re, data) {
			t.Fatalf("accepted cluster hello does not round-trip:\n in=%x\nout=%x", data, re)
		}
	})
}
