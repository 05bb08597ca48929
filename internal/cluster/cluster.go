// Package cluster is the multi-process runtime underneath the proc
// fabric: rendezvous and membership, worker-to-worker data sockets, and
// failure detection for armci workers running as separate OS processes.
//
// Control is a star, data is not. A coordinator (owned by the launcher,
// cmd/armci-run) listens on a TCP address; each worker process hosts one
// SMP node — that node's user ranks, data server and NIC agent as
// goroutines — and dials the coordinator exactly once. Admission
// requires a versioned hello handshake (magic, protocol version, node
// claim, cluster shape, launch cookie); once all nodes have arrived the
// coordinator broadcasts the roster and the membership view, which
// carries every worker's data-listener address, and the run begins. The
// coordinator carries control frames only: every message, same-node ones
// included, crosses a socket the sending worker dials on first send to
// the destination worker's listener: a Pair, the one connection both
// socket links write and read messages through (the in-process tcpnet link
// dials one per endpoint pair), here shared by all of the worker's actors.
//
// Failure detection is two-layered and wall-clock based: a worker whose
// connection drops (process death — the common, instantaneous signal) or
// whose heartbeats go silent (a wedged-but-alive process) is declared
// dead by the coordinator, which broadcasts a fault frame attributing
// the loss to the dead worker's first rank. Survivors surface it through
// the existing *pipeline.FaultError taxonomy (FaultPeerLost) so a killed
// worker fails the whole job fast instead of hanging every blocked peer.
//
// Shutdown is a drain protocol: each worker reports when its local user
// ranks finish; when every node has reported, the coordinator broadcasts
// a drain frame telling workers to stop their servers and close. A
// connection lost before the drain is a fault; one lost after it is a
// normal exit.
//
// Every coordinator decision is a method of its session state (state.go),
// which appends the frames, respawns and teardown it decides on and does
// no I/O; the Coordinator is the driver that carries them out.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"armci/internal/wire"
)

// Cluster frame types, carried as the first byte of every frame body on
// a coordinator⇄worker connection and of the hello that opens a peer
// connection. All frames reuse the wire package's length-prefixed
// framing.
const (
	// frameHello: worker → coordinator; payload is a wire.ClusterHello
	// body. Must be the first frame on every connection.
	frameHello byte = iota + 1
	// frameReject: coordinator → worker; payload is a human-readable
	// reason. The connection is closed immediately after.
	frameReject
	// frameRoster: coordinator → worker, broadcast once all nodes have
	// joined; payload echoes the cluster shape (procs, ppn, nodes) and
	// carries the launch's clock start (see Handlers.ClockStart). Its
	// arrival is the admission acknowledgment and the start signal.
	frameRoster
	// 4 was the data frame the coordinator forwarded up to ClusterVersion
	// 2. It stays unassigned so that one sent to the coordinator is an
	// unknown frame — a declared fault — and never parses as control.
	_
	// framePing: worker → coordinator heartbeat; empty payload.
	framePing
	// frameUserDone: worker → coordinator; this node's user ranks all
	// finished. Empty payload.
	frameUserDone
	// frameDrain: coordinator → worker, broadcast once every node's
	// users finished: stop servers and close. Empty payload.
	frameDrain
	// frameFault: coordinator → worker, broadcast when a worker is
	// declared dead; payload is the dead worker's first rank (i32) plus
	// a reason string.
	frameFault
	// frameView: coordinator → worker; payload is a wire.View body — the
	// membership roster at one view epoch, sent after the initial roster
	// and on every elastic membership change.
	frameView
	// frameViewAck: worker → coordinator; payload is a wire.ViewAck body
	// answering a view change with the worker's committed sync epoch.
	frameViewAck
	// 11 and 12 were the coordinator's barrier arrival and release up to
	// ClusterVersion 5. Like 4 they stay unassigned, so the frame types
	// after them keep their numbers.
	_
	_
	// frameResume: coordinator → worker, broadcast once every node of the
	// new view acked it; payload is a wire.EpochReport whose Node is the
	// replaced slot and whose Epoch is the sync epoch to resume from.
	frameResume
	// framePeerHello: worker → worker; the first frame on a lazily dialed
	// peer connection. Payload is a wire.ClusterHello body (the dialer's
	// node claim, launch cookie, incarnation and own listener address);
	// validated like the coordinator handshake, after which the connection
	// carries bare wire message frames from dialer to acceptor.
	framePeerHello
)

// Listen opens the rendezvous TCP listener, retrying transient
// address-in-use races (a just-released ephemeral port being rebound
// between repeated test runs) and reporting the address alongside the
// underlying error — a bare "address already in use" with no address is
// undiagnosable in CI logs.
func Listen(addr string) (net.Listener, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		if !errors.Is(err, syscall.EADDRINUSE) {
			break // not a bind race; retrying cannot help
		}
		time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
	}
	return nil, fmt.Errorf("cluster: listen %s: %w", addr, lastErr)
}

// Accept serves every connection ln accepts on a goroutine of its own,
// until ln is closed at teardown.
func Accept(ln net.Listener, serve func(net.Conn)) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go serve(c)
	}
}

// clusterConn wraps one coordinator⇄worker connection with a write mutex
// and a reused frame buffer, so concurrent writers interleave whole frames
// and steady-state sends do not allocate.
type clusterConn struct {
	c   net.Conn
	mu  sync.Mutex
	buf []byte // reused frame buffer, guarded by mu
}

// writeFrame writes one [len][type][payload] frame.
func (cc *clusterConn) writeFrame(typ byte, payload []byte) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	b := binary.LittleEndian.AppendUint32(cc.buf[:0], uint32(1+len(payload)))
	b = append(b, typ)
	b = append(b, payload...)
	cc.buf = b
	return wire.WriteFrame(cc.c, b)
}

// rosterPayload encodes a roster frame: the shape echo and the launch's
// clock start in Unix nanoseconds.
func rosterPayload(procs, ppn, nodes int, clockStart int64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(int32(procs)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(ppn)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(nodes)))
	return binary.LittleEndian.AppendUint64(b, uint64(clockStart))
}

// parseRoster validates the coordinator's shape echo against what the
// worker was launched with — a mismatch means launcher and worker
// disagree about the world and must not run — and returns the launch's
// clock start as a local time: it carries this process's monotonic
// reading, so time.Since on it is immune to wall-clock steps from here on.
func parseRoster(payload []byte, env WorkerEnv) (time.Time, error) {
	if len(payload) != 20 {
		return time.Time{}, fmt.Errorf("cluster: roster frame has %d payload bytes, want 20", len(payload))
	}
	procs := int(int32(binary.LittleEndian.Uint32(payload)))
	ppn := int(int32(binary.LittleEndian.Uint32(payload[4:])))
	nodes := int(int32(binary.LittleEndian.Uint32(payload[8:])))
	if procs != env.Procs || ppn != env.ProcsPerNode || nodes != env.NumNodes() {
		return time.Time{}, fmt.Errorf("cluster: roster shape %d procs × %d/node over %d nodes does not match worker env %d procs × %d/node over %d nodes",
			procs, ppn, nodes, env.Procs, env.ProcsPerNode, env.NumNodes())
	}
	now := time.Now()
	return now.Add(-time.Duration(now.UnixNano() - int64(binary.LittleEndian.Uint64(payload[12:])))), nil
}

// faultPayload encodes a fault broadcast: dead worker's first rank plus
// a reason.
func faultPayload(rank int, reason string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(int32(rank)))
	return append(b, reason...)
}

// parseFault decodes a fault broadcast payload.
func parseFault(payload []byte) (rank int, reason string) {
	if len(payload) < 4 {
		return -1, "malformed fault frame"
	}
	return int(int32(binary.LittleEndian.Uint32(payload))), string(payload[4:])
}
