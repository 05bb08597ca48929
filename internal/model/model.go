// Package model defines the communication and CPU cost model used by the
// simulated fabric and, optionally, by the real fabrics for latency
// injection.
//
// The model is LogGP-like: a message of s bytes sent from an idle sender to
// a receiver costs
//
//	SendOverhead (sender CPU)  +  Latency + s*ByteTime (wire)  +
//	RecvOverhead (receiver CPU)
//
// and a server that was idle (blocked in its receive loop, asleep) pays an
// additional WakeUp penalty for the first request of a busy period. Each
// request type additionally charges the server a service time while it is
// being handled; requests queue FIFO behind one another at a server, which
// is how contention at a hot data server emerges in the simulation.
//
// The parameters of the Myrinet2000 preset are calibrated so that the
// simulated experiments of the paper ("Optimizing Synchronization
// Operations for Remote Memory Communication Systems", IPPS 2003) have the
// shape of the published figures: GA_Sync 190 µs (new) vs ~1.7 ms (old) at
// 16 processes, lock hand-off 2 vs 1 message latencies, and so on. The
// absolute values are documented per experiment in EXPERIMENTS.md.
package model

import (
	"time"
)

// Params is the set of cost-model parameters, all expressed as durations
// (per-byte costs as the duration per single byte).
type Params struct {
	// Name identifies the preset for reports.
	Name string

	// SendOverhead is the CPU time a process spends injecting one message
	// into the network (GM host overhead, PCI programming).
	SendOverhead time.Duration

	// RecvOverhead is the CPU time a process spends draining one message
	// from the network into user space.
	RecvOverhead time.Duration

	// Latency is the one-way wire latency of a zero-byte message between
	// two distinct nodes.
	Latency time.Duration

	// ByteTime is the additional wire time per payload byte (inverse
	// bandwidth).
	ByteTime time.Duration

	// LocalLatency is the one-way latency between two endpoints of the
	// same node (shared-memory hand-off between a user process and its
	// own server thread, or between co-located processes).
	LocalLatency time.Duration

	// ServerWake is the penalty paid by a server that receives a request
	// while idle: the server thread blocks in a receive and sleeps, so
	// the first request of a busy period must wake it (interrupt +
	// scheduler). Subsequent back-to-back requests do not pay it.
	ServerWake time.Duration

	// ServerIdleAfter is how long a server must be without work before it
	// goes back to sleep (and the next request pays ServerWake again).
	ServerIdleAfter time.Duration

	// ServiceSmall is the server CPU time to handle a small control
	// request (lock, unlock, RMW).
	ServiceSmall time.Duration

	// ServiceFence is the extra server time to produce a fence
	// confirmation. On GM there are no per-put completion acks, so the
	// server must synchronize with the NIC DMA engine (a gm_flush-style
	// drain) before it can assert that every prior put from the origin
	// has landed in user memory — expensive through a 32 bit / 33 MHz
	// PCI bus. Only the original AllFence path pays this; the new
	// combined barrier avoids fence confirmations entirely.
	ServiceFence time.Duration

	// ServiceByteTime is the additional server CPU time per payload byte
	// for data requests (put/get/accumulate memory copies).
	ServiceByteTime time.Duration

	// AtomicOp is the CPU time of a local atomic operation
	// (fetch-and-increment, swap, compare&swap) on shared memory.
	AtomicOp time.Duration

	// NICService is the processing time of one request on a NIC agent
	// when NIC-assisted operations are enabled (the paper's §5 future
	// work): the NIC processor polls its request queue, so there is no
	// wake-up penalty and the per-request cost is far below the host
	// server's service time. The NIC-offload fence mode
	// (server.Options.NICFence) charges exactly this — and neither
	// ServerWake nor ServiceFence — for a fence round-trip: the NIC
	// answers from its descriptor queue state without waking the host
	// or draining the DMA engine through the PCI bus, and the server's
	// own busy/idle accounting is untouched.
	NICService time.Duration

	// PollGap is the re-check interval a process spends spinning on a
	// local variable (ticket counter, MCS locked flag, op_done). In the
	// simulator waiting is event driven, so PollGap only models the small
	// detection delay between the memory write and the waiter noticing.
	PollGap time.Duration
}

// Myrinet2000 returns parameters calibrated to the paper's testbed: 1 GHz
// dual Pentium III nodes, 32 bit / 33 MHz PCI, Myrinet-2000 with GM. The
// one-way small-message GM latency of that generation was ~8-12 µs; the
// host overheads and the server wake-up penalty dominate the old AllFence
// path exactly as the paper describes.
func Myrinet2000() Params {
	return Params{
		Name:            "myrinet2000-p3",
		SendOverhead:    2 * time.Microsecond,
		RecvOverhead:    2 * time.Microsecond,
		Latency:         13 * time.Microsecond,
		ByteTime:        8 * time.Nanosecond, // ~125 MB/s effective through 32/33 PCI
		LocalLatency:    1 * time.Microsecond,
		ServerWake:      8 * time.Microsecond,
		ServerIdleAfter: 150 * time.Microsecond,
		ServiceSmall:    8 * time.Microsecond,
		ServiceFence:    25 * time.Microsecond,
		ServiceByteTime: 4 * time.Nanosecond,
		AtomicOp:        150 * time.Nanosecond,
		NICService:      500 * time.Nanosecond,
		PollGap:         3 * time.Microsecond,
	}
}

// LowLatency returns a preset for a hypothetical cut-through interconnect
// an order of magnitude faster than Myrinet-2000 (think Quadrics/QsNet of
// the same era): used by the sensitivity analysis to show how the paper's
// improvement factors depend on the network.
func LowLatency() Params {
	p := Myrinet2000()
	p.Name = "low-latency"
	p.Latency = 3 * time.Microsecond
	p.ByteTime = 2 * time.Nanosecond
	p.SendOverhead = 800 * time.Nanosecond
	p.RecvOverhead = 800 * time.Nanosecond
	p.ServerWake = 4 * time.Microsecond
	p.ServiceFence = 12 * time.Microsecond
	return p
}

// FastEthernet returns a higher-latency preset used by ablation benches to
// show that the improvement factors grow with latency.
func FastEthernet() Params {
	p := Myrinet2000()
	p.Name = "fast-ethernet"
	p.Latency = 60 * time.Microsecond
	p.ByteTime = 80 * time.Nanosecond
	p.ServerWake = 50 * time.Microsecond
	return p
}

// Zero returns a model with all costs zero. Used by correctness tests that
// only care about protocol behaviour, not timing.
func Zero() Params {
	return Params{Name: "zero"}
}

// WireTime returns the wire component of sending n payload bytes between
// the two endpoints: one-way latency plus serialization time. local selects
// the intra-node latency.
func (p Params) WireTime(n int, local bool) time.Duration {
	lat := p.Latency
	if local {
		lat = p.LocalLatency
	}
	return lat + time.Duration(n)*p.ByteTime
}

// ServiceTime returns the server CPU time to execute a request carrying n
// payload bytes.
func (p Params) ServiceTime(n int) time.Duration {
	return p.ServiceSmall + time.Duration(n)*p.ServiceByteTime
}
