//go:build linux && (amd64 || arm64)

package transport

import (
	"encoding/binary"
	"net"
	"syscall"
	"testing"
	"unsafe"

	"armci/internal/msg"
)

// Offsets into Linux's struct tcp_info of tcpi_segs_out (every segment
// sent) and tcpi_data_segs_out (those that carried data), and the length a
// kernel must fill for both to be there (Linux 4.6 and later).
const (
	tcpiSegsOut     = 136
	tcpiDataSegsOut = 156
	tcpiNeed        = tcpiDataSegsOut + 4
)

// pureSegs returns the segments c's socket sent that carried no data — the
// handshake's, the FIN's and every pure ACK — and whether the kernel's
// TCP_INFO is long enough to say.
func pureSegs(c net.Conn) (n uint32, ok bool, err error) {
	raw, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		return 0, false, err
	}
	var info [256]byte
	size := uint32(len(info))
	var errno syscall.Errno
	if err := raw.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&info[0])), uintptr(unsafe.Pointer(&size)), 0)
	}); err != nil {
		return 0, false, err
	}
	if errno != 0 {
		return 0, false, errno
	}
	if size < tcpiNeed {
		return 0, false, nil
	}
	return binary.NativeEndian.Uint32(info[tcpiSegsOut:]) - binary.NativeEndian.Uint32(info[tcpiDataSegsOut:]), true, nil
}

// TestTCPRepliesCarryTheACK: 1,000 request/reply round trips between two
// ranks. The request and its reply ride one connection, so each data
// segment acknowledges the one before it and the kernel has next to no
// segment to send that is only an ACK. Counted on the link's own two
// sockets: at most a handful (the handshake, the first exchanges) plus 1 %
// of the round trips. Two one-way connections cost about one pure ACK per
// frame, 2,000 here.
func TestTCPRepliesCarryTheACK(t *testing.T) {
	const rounds = 1000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := net.Dial("tcp", ln.Addr().String())
	ln.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := pureSegs(probe)
	probe.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("TCP_INFO too short to count data segments (Linux before 4.6)")
	}

	f, _ := newTCPPair(t)
	l := f.link.(*tcpLink)
	var pure uint32
	var countErr error
	f.SpawnUser(0, func(env Env) {
		// Open the pair's connection as its first frame would, keeping the
		// raw ends to read their counters while they are open.
		l.mu.Lock()
		a, b, err := l.connect()
		if err == nil {
			l.end(msg.User(0), msg.User(1), a)
			l.end(msg.User(1), msg.User(0), b)
		}
		l.mu.Unlock()
		if err != nil {
			panic(err)
		}
		for i := 0; i < rounds; i++ {
			env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i})
			env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(1), i))
		}
		for _, c := range []net.Conn{a, b} {
			n, _, err := pureSegs(c)
			pure += n
			countErr = err
		}
	})
	f.SpawnUser(1, func(env Env) {
		for i := 0; i < rounds; i++ {
			env.Recv(tagged(i))
			env.Send(msg.User(0), &msg.Message{Kind: msg.KindSend, Tag: i})
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if countErr != nil {
		t.Fatal(countErr)
	}
	if limit := uint32(16 + rounds/100); pure > limit {
		t.Fatalf("%d round trips took %d segments that carried no data, want at most %d", rounds, pure, limit)
	}
	t.Logf("%d round trips: %d segments without data", rounds, pure)
}
