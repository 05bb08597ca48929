package wire

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"armci/internal/msg"
	"armci/internal/shmem"
)

// randomMessage builds a structurally valid random message.
func randomMessage(r *rand.Rand) *msg.Message {
	m := &msg.Message{
		Kind:   msg.Kind(1 + r.Intn(14)),
		Src:    randomAddr(r),
		Dst:    randomAddr(r),
		Origin: r.Intn(1 << 16),
		Token:  r.Uint64(),
		Tag:    int(int32(r.Uint32())),
		Op:     uint8(r.Intn(9)),
		N:      r.Intn(1 << 20),
		Seq:    r.Uint64(),
		Sent:   time.Duration(r.Int63n(1 << 40)),
	}
	if r.Intn(2) == 0 {
		m.Arrival = time.Duration(r.Int63n(1 << 40))
	}
	if r.Intn(2) == 0 {
		m.Ptr = shmem.Ptr{
			Rank: int32(r.Intn(1 << 16)),
			Kind: shmem.Kind(1 + r.Intn(2)),
			Seg:  int32(1 + r.Intn(1<<16)),
			Off:  r.Int63n(1 << 40),
		}
	}
	if m.Kind == msg.KindAcc {
		m.Operands = msg.ScaleOperands(r.NormFloat64())
	} else {
		for i := range m.Operands {
			m.Operands[i] = r.Int63() - r.Int63()
		}
	}
	levels := r.Intn(4)
	if levels > 0 || r.Intn(2) == 0 {
		d := shmem.Strided{Count: []int{1 + r.Intn(256)}}
		for l := 0; l < levels; l++ {
			d.Count = append(d.Count, 1+r.Intn(16))
			d.Stride = append(d.Stride, r.Int63n(1<<30))
		}
		m.Stride = &d
	}
	if n := r.Intn(512); n > 0 {
		m.Data = make([]byte, n)
		r.Read(m.Data)
	}
	return m
}

// randomAddr is a user or server endpoint of a 16-bit ID.
func randomAddr(r *rand.Rand) msg.Addr {
	if r.Intn(2) == 0 {
		return msg.ServerOf(r.Intn(1 << 16))
	}
	return msg.User(r.Intn(1 << 16))
}

// messagesEquivalent compares every wire-carried field. The operands are
// compared as bits, so an accumulate's NaN scale equals itself.
func messagesEquivalent(a, b *msg.Message) bool {
	if a.Kind != b.Kind || a.Src != b.Src || a.Dst != b.Dst || a.Origin != b.Origin ||
		a.Token != b.Token || a.Tag != b.Tag || a.Ptr != b.Ptr || a.N != b.N ||
		a.Op != b.Op || a.Operands != b.Operands || !bytes.Equal(a.Data, b.Data) ||
		a.Seq != b.Seq || a.Sent != b.Sent || a.Arrival != b.Arrival {
		return false
	}
	return slices.Equal(a.Strided().Count, b.Strided().Count) && slices.Equal(a.Strided().Stride, b.Strided().Stride)
}

// TestEncodeDecodeRoundTrip is the codec property test.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		frame := AppendEncode(nil, m)
		got, err := Decode(frame[4:])
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		return messagesEquivalent(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripThroughReader sends several frames through a byte stream
// and reads them back with ReadFrame, as the TCP fabric does.
func TestRoundTripThroughReader(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var stream bytes.Buffer
	var sent []*msg.Message
	for i := 0; i < 20; i++ {
		m := randomMessage(r)
		sent = append(sent, m)
		if err := WriteFrame(&stream, AppendEncode(nil, m)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		body, err := ReadFrame(&stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := Decode(body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !messagesEquivalent(want, got) {
			t.Fatalf("frame %d corrupted:\nsent %+v\ngot  %+v", i, want, got)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d trailing bytes in stream", stream.Len())
	}
}

// TestTruncatedFramesError: every prefix of a valid body must produce an
// error, never a garbage message or a panic. A contiguous message's cut
// inside its fixed fields reads as a truncation, a cut inside its payload
// as a payload overrun.
func TestTruncatedFramesError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	contiguous := &msg.Message{Kind: msg.KindPut, Ptr: shmem.Ptr{Rank: 1, Kind: 1, Seg: 1}, Data: []byte{1, 2, 3}}
	for _, m := range []*msg.Message{randomMessage(r), contiguous} {
		body := AppendEncode(nil, m)[4:]
		for cut := 0; cut < len(body); cut++ {
			_, err := Decode(body[:cut])
			if err == nil {
				t.Fatalf("truncation at %d of %d decoded successfully", cut, len(body))
			}
			if m != contiguous {
				continue
			}
			want := "truncated"
			if cut >= frameFixed-4 {
				want = "payload length"
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("truncation at %d of %d: %v, want %q", cut, len(body), err, want)
			}
		}
		if _, err := Decode(body); err != nil {
			t.Fatalf("full body failed: %v", err)
		}
	}
}

// TestEncodeSizeIsFrameFixed pins the frame layout and AppendEncode's
// growth hint: a contiguous message's frame is frameFixed bytes plus its
// payload (a stride adds its lists), AppendEncode grows a nil buffer to
// exactly that in one allocation, and a buffer with that much room in
// none.
func TestEncodeSizeIsFrameFixed(t *testing.T) {
	strided := shmem.Strided{Count: []int{8, 4}, Stride: []int64{64}}
	for _, tc := range []struct {
		n      int
		stride shmem.Strided
		size   int
	}{
		{0, shmem.Strided{}, frameFixed},
		{1, shmem.Strided{}, frameFixed + 1},
		{64, shmem.Strided{}, frameFixed + 64},
		{4096, shmem.Strided{}, frameFixed + 4096},
		{32, strided, frameFixed + 2*4 + 8 + 32},
	} {
		m := &msg.Message{Kind: msg.KindPut, Stride: new(msg.Arena).Strided(tc.stride), Data: make([]byte, tc.n)}
		if f := AppendEncode(nil, m); len(f) != tc.size || cap(f) != len(f) {
			t.Fatalf("%d-byte payload, stride %v: frame len %d cap %d, want both %d", tc.n, tc.stride, len(f), cap(f), tc.size)
		}
		if a := testing.AllocsPerRun(10, func() { AppendEncode(nil, m) }); a != 1 {
			t.Errorf("%d-byte payload, stride %v: encoding into nil allocates %.0f times, want 1", tc.n, tc.stride, a)
		}
		room := make([]byte, 0, tc.size)
		if a := testing.AllocsPerRun(10, func() { AppendEncode(room, m) }); a != 0 {
			t.Errorf("%d-byte payload, stride %v: encoding into a buffer with room allocates %.0f times, want 0", tc.n, tc.stride, a)
		}
	}
}

func TestTrailingGarbageErrors(t *testing.T) {
	m := &msg.Message{Kind: msg.KindColl, Tag: 1}
	body := AppendEncode(nil, m)[4:]
	if _, err := Decode(append(body, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestReadFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB frame claim
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReadFrameShortBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{16, 0, 0, 0, 1, 2, 3}) // claims 16 bytes, has 3
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("short body accepted")
	}
}

func TestPayloadLengthOverrun(t *testing.T) {
	m := &msg.Message{Kind: msg.KindPut, Data: []byte{1, 2, 3, 4}}
	body := AppendEncode(nil, m)[4:]
	// Corrupt the payload length field (the last fixed field).
	body[frameFixed-4-4] = 0xFF
	if _, err := Decode(body); err == nil {
		t.Fatal("overrun payload length accepted")
	}
}

// frameStream concatenates the frames of n random messages, one of them
// far larger than the FrameReader's initial buffer.
func frameStream(n int) (stream []byte, bodies [][]byte) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		m := randomMessage(r)
		if i == n/2 {
			m.Data = bytes.Repeat([]byte{byte(i)}, 100<<10)
		}
		f := AppendEncode(nil, m)
		stream = append(stream, f...)
		bodies = append(bodies, f[4:])
	}
	return stream, bodies
}

// TestFrameReaderYieldsEveryFrame: however the stream is cut into reads —
// all at once, byte by byte, in halves — FrameReader returns the same
// bodies ReadFrame does, then a bare io.EOF.
func TestFrameReaderYieldsEveryFrame(t *testing.T) {
	stream, bodies := frameStream(20)
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataerr": iotest.DataErrReader,
	} {
		fr := FrameReader{R: wrap(bytes.NewReader(stream))}
		for i, want := range bodies {
			got, err := fr.Next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d differs (%d bytes, want %d)", name, i, len(got), len(want))
			}
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%s: end of stream gave %v, want io.EOF", name, err)
		}
	}
}

// TestFrameReaderRejections: the limit and the short-frame error of
// ReadFrame hold, and a stream cut inside a frame is never a clean EOF.
func TestFrameReaderRejections(t *testing.T) {
	for name, stream := range map[string][]byte{
		"oversized":  {0xFF, 0xFF, 0xFF, 0xFF},
		"short body": {16, 0, 0, 0, 1, 2, 3},
		"no body":    {16, 0, 0, 0},
		"cut header": {16, 0},
	} {
		fr := FrameReader{R: bytes.NewReader(stream)}
		if body, err := fr.Next(); err == nil || err == io.EOF {
			t.Errorf("%s: got body %x, err %v; want a framing error", name, body, err)
		}
	}
}

// cycle is an endless stream repeating one byte sequence.
type cycle struct {
	b   []byte
	pos int
}

func (c *cycle) Read(p []byte) (int, error) {
	n := copy(p, c.b[c.pos:])
	c.pos = (c.pos + n) % len(c.b)
	return n, nil
}

// TestFrameReaderSteadyStateAllocs: once the buffer has grown to the
// largest frame, reading allocates nothing.
func TestFrameReaderSteadyStateAllocs(t *testing.T) {
	stream, bodies := frameStream(8)
	fr := FrameReader{R: &cycle{b: stream}}
	lap := func() {
		for i := range bodies {
			if body, err := fr.Next(); err != nil || len(body) != len(bodies[i]) {
				t.Fatalf("frame %d: %d bytes, err %v", i, len(body), err)
			}
		}
	}
	lap()
	if allocs := testing.AllocsPerRun(50, lap); allocs != 0 {
		t.Fatalf("%.1f allocations per %d frames, want 0", allocs, len(bodies))
	}
}
