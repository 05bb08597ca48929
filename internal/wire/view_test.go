package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func sampleViews() []View {
	return []View{
		{Dead: -1},
		{Epoch: 1, Resume: 0, Dead: -1, Members: []ViewMember{
			{Node: 0, Incarnation: 0, Addr: "127.0.0.1:40001"},
			{Node: 1, Incarnation: 0, Addr: "127.0.0.1:40002"},
		}},
		{Epoch: 7, Resume: 12, Dead: 2, Members: []ViewMember{
			{Node: 0, Incarnation: 0, Addr: ""},
			{Node: 1, Incarnation: 2},
			{Node: 2, Incarnation: 5, Addr: "[::1]:51200"},
			{Node: 3, Incarnation: 0, Addr: "host-03.rack7:9944"},
		}},
	}
}

// TestViewRoundTrip pins field fidelity for representative views, acks
// and epoch reports.
func TestViewRoundTrip(t *testing.T) {
	for _, v := range sampleViews() {
		got, err := DecodeView(EncodeView(v))
		if err != nil {
			t.Fatalf("decode(%+v): %v", v, err)
		}
		if len(got.Members) == 0 {
			got.Members = nil
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip mutated view:\nsent %#v\ngot  %#v", v, got)
		}
	}
	for _, a := range []ViewAck{
		{},
		{Node: 3, Epoch: 2, Committed: 9},
	} {
		got, err := DecodeViewAck(EncodeViewAck(a))
		if err != nil {
			t.Fatalf("decode(%+v): %v", a, err)
		}
		if got != a {
			t.Errorf("round trip mutated view ack: sent %+v got %+v", a, got)
		}
	}
	for _, r := range []EpochReport{{}, {Node: 1, Epoch: 42}} {
		got, err := DecodeEpochReport(EncodeEpochReport(r))
		if err != nil {
			t.Fatalf("decode(%+v): %v", r, err)
		}
		if got != r {
			t.Errorf("round trip mutated epoch report: sent %+v got %+v", r, got)
		}
	}
}

// TestViewDecodeRejections drives the strict decoder through the
// malformed shapes it must refuse: truncation at every layer, inflated
// member counts and trailing garbage.
func TestViewDecodeRejections(t *testing.T) {
	good := EncodeView(sampleViews()[2])
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"empty":            {nil, "truncated"},
		"short header":     {good[:viewFixed-1], "truncated"},
		"cut member":       {good[:viewFixed+viewMemberFixed-2], "members"},
		"cut address":      {good[:len(good)-1], "truncated"},
		"trailing garbage": {append(append([]byte{}, good...), 0xee), "trailing"},
		"inflated count": {func() []byte {
			b := append([]byte{}, good...)
			binary.LittleEndian.PutUint16(b[20:], 600)
			return b
		}(), "members"},
	} {
		if _, err := DecodeView(tc.body); err == nil {
			t.Errorf("%s: decoder accepted a malformed view", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
	if _, err := DecodeViewAck(make([]byte, viewAckLen-1)); err == nil {
		t.Error("decoder accepted a truncated view ack")
	}
	if _, err := DecodeEpochReport(make([]byte, epochReportLen+1)); err == nil {
		t.Error("decoder accepted an oversized epoch report")
	}
}

// FuzzMembershipDecode covers the elastic membership frames: none of the
// decoders may panic, and any body one accepts must re-encode to an
// identical body — the same strict-tiling contract FuzzBatchDecode pins
// for coalesced data frames.
func FuzzMembershipDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	for _, v := range sampleViews() {
		f.Add(EncodeView(v))
	}
	f.Add(EncodeViewAck(ViewAck{Node: 1, Epoch: 3, Committed: 8}))
	f.Add(EncodeEpochReport(EpochReport{Node: 2, Epoch: 5}))
	// A truncated valid body, one with trailing garbage, and one whose
	// member count was inflated past the bytes that follow.
	body := EncodeView(sampleViews()[1])
	f.Add(body[:len(body)/2])
	f.Add(append(append([]byte{}, body...), 0xff))
	inflated := append([]byte{}, body...)
	binary.LittleEndian.PutUint16(inflated[20:], 0xffff)
	f.Add(inflated)

	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := DecodeView(data); err == nil {
			if re := EncodeView(v); !bytes.Equal(re, data) {
				t.Fatalf("accepted view does not round-trip:\n in=%x\nout=%x", data, re)
			}
		}
		if a, err := DecodeViewAck(data); err == nil {
			if re := EncodeViewAck(a); !bytes.Equal(re, data) {
				t.Fatalf("accepted view ack does not round-trip:\n in=%x\nout=%x", data, re)
			}
		}
		if r, err := DecodeEpochReport(data); err == nil {
			if re := EncodeEpochReport(r); !bytes.Equal(re, data) {
				t.Fatalf("accepted epoch report does not round-trip:\n in=%x\nout=%x", data, re)
			}
		}
	})
}
