package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"armci/internal/msg"
	"armci/internal/wire"
)

// loopback returns the two ends of a fresh loopback TCP connection.
func loopback(t *testing.T) (a, b net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if a, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if b, err = ln.Accept(); err != nil {
		a.Close()
		t.Fatal(err)
	}
	return a, b
}

// served is what ServePair handed on before it returned.
type served struct {
	hellos, frames [][]byte
	corrupt        []error
}

// serve starts ServePair on c, recording what it hands on. admit accepts
// every hello when hello is set. Each hello and frame is also signalled on
// got, so the peer can wait for what it wrote to be read before it
// closes. wait returns the record once the reader ends, failing the test
// after 10 s.
func serve(t *testing.T, c net.Conn, hello bool) (got <-chan struct{}, wait func() *served) {
	var s served
	seen := make(chan struct{}, 64)
	var admit func([]byte) bool
	if hello {
		admit = func(b []byte) bool {
			s.hellos = append(s.hellos, bytes.Clone(b))
			seen <- struct{}{}
			return true
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServePair(c, admit, func(m *msg.Message) {
			s.frames = append(s.frames, wire.AppendEncode(nil, m)[4:])
			seen <- struct{}{}
		}, func(err error) { s.corrupt = append(s.corrupt, err) })
	}()
	return seen, func() *served {
		t.Helper()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the pair reader did not end")
		}
		return &s
	}
}

// await waits for n hellos and frames to be handed on, failing the test
// after 10 s.
func await(t *testing.T, got <-chan struct{}, n int, what string) {
	t.Helper()
	for range n {
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the stream was not read", what)
		}
	}
}

// frameStream concatenates the frames of n messages, one of them far larger
// than the reader's initial 4 KiB buffer, and returns their bodies.
func frameStream(n int) (stream []byte, bodies [][]byte) {
	for i := 0; i < n; i++ {
		m := &msg.Message{Kind: msg.KindSend, Src: msg.User(i % 3), Dst: msg.User(3), Tag: i, Seq: uint64(i + 1),
			Data: bytes.Repeat([]byte{byte(i)}, i*i%257)}
		if i == n/2 {
			m.Data = bytes.Repeat([]byte{byte(i)}, 100<<10)
		}
		f := wire.AppendEncode(nil, m)
		stream = append(stream, f...)
		bodies = append(bodies, f[4:])
	}
	return stream, bodies
}

// TestServePairYieldsEveryFrame: however the stream is cut into writes —
// whole, in halves, byte by byte — the socket reader delivers every frame
// behind the hello, in order, and ends silently when the peer then closes.
// The peer closes only once everything is read: a close that lands with
// the last bytes is seen by the connection's owner, not by its reader.
func TestServePairYieldsEveryFrame(t *testing.T) {
	stream, bodies := frameStream(20)
	stream = append([]byte{0, 0, 0, 0}, stream...) // an empty hello
	for name, next := range map[string]func(rest int) int{
		"whole":   func(rest int) int { return rest },
		"half":    func(rest int) int { return (rest + 1) / 2 },
		"onebyte": func(int) int { return 1 },
	} {
		a, b := loopback(t)
		got, wait := serve(t, b, true)
		for rest := stream; len(rest) > 0; {
			n := next(len(rest))
			if _, err := a.Write(rest[:n]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rest = rest[n:]
		}
		await(t, got, 1+len(bodies), name)
		a.Close()
		s := wait()
		if len(s.hellos) != 1 || len(s.hellos[0]) != 0 || len(s.corrupt) != 0 {
			t.Fatalf("%s: hellos %x, corrupt %v; want one empty hello and no error", name, s.hellos, s.corrupt)
		}
		if len(s.frames) != len(bodies) {
			t.Fatalf("%s: %d frames delivered, want %d", name, len(s.frames), len(bodies))
		}
		for i, want := range bodies {
			if !bytes.Equal(s.frames[i], want) {
				t.Fatalf("%s: frame %d differs (%d bytes, want %d)", name, i, len(s.frames[i]), len(want))
			}
		}
	}
}

// TestServePairStreamEnds: a frame past the first buffer is delivered, one
// over wire.MaxFrame is corrupt, and a peer that closes mid-frame ends the
// reader silently with nothing delivered. Each stream follows an empty
// hello in the same write, so once the hello is admitted the whole write
// has been read and the close behind it is a wake-up of its own.
func TestServePairStreamEnds(t *testing.T) {
	big := wire.AppendEncode(nil, &msg.Message{Kind: msg.KindSend, Src: msg.User(1), Dst: msg.User(0),
		Data: bytes.Repeat([]byte{7}, 3*4096)})
	for _, tc := range []struct {
		name             string
		stream           []byte
		frames, corrupts int
	}{
		{"larger than the buffer", big, 1, 0},
		{"over MaxFrame", binary.LittleEndian.AppendUint32(nil, wire.MaxFrame+1), 0, 1},
		{"closed mid-frame", big[:100], 0, 0},
	} {
		a, b := loopback(t)
		got, wait := serve(t, b, true)
		if _, err := a.Write(append([]byte{0, 0, 0, 0}, tc.stream...)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		await(t, got, 1+tc.frames, tc.name)
		a.Close()
		s := wait()
		if len(s.frames) != tc.frames || len(s.corrupt) != tc.corrupts {
			t.Fatalf("%s: %d frames delivered and %d corrupt (%v); want %d and %d",
				tc.name, len(s.frames), len(s.corrupt), s.corrupt, tc.frames, tc.corrupts)
		}
		if tc.frames == 1 && !bytes.Equal(s.frames[0], big[4:]) {
			t.Fatalf("%s: the frame differs", tc.name)
		}
	}
}
