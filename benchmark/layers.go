package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"armci"
	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/sim"
	"armci/internal/trace"
	"armci/internal/wire"
)

// The stand-alone layer kernels: each times one public function of one
// module in a loop with nothing else running, the way a hot-path
// micro-benchmark does. They say what a layer costs per call, which the
// end-to-end numbers multiply by the calls on the blocking path.

// sampleNS runs batches of batch calls of f for about d (at least five)
// and returns the median batch's nanoseconds per call: the median over
// batches drops the ones a preemption hit.
func sampleNS(d time.Duration, batch int, f func()) float64 {
	var samples []float64
	for end := time.Now().Add(d); time.Now().Before(end) || len(samples) < 5; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	return median(samples)
}

// perCallNS times f with batches sized once to last about a millisecond.
func perCallNS(d time.Duration, f func()) float64 {
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		if time.Since(t0) >= time.Millisecond || batch >= 1<<24 {
			break
		}
		batch *= 2
	}
	return sampleNS(d, batch, f)
}

// sink keeps results alive so the compiler cannot drop the measured call.
var sink int

// wireKernels times the codec on the frames the tcp workloads send most:
// a 64 B put, and a 16-entry batch of 8 B puts.
func wireKernels(d time.Duration) (encode, decode, batchEncode, batchDecode float64, err error) {
	put := &msg.Message{
		Kind: msg.KindPut, Src: msg.User(0), Dst: msg.ServerOf(1), Origin: 0, Seq: 7,
		Ptr: shmem.Ptr{Rank: 1, Kind: shmem.KindByte, Seg: 1}, Data: make([]byte, 64),
	}
	var buf []byte
	encode = perCallNS(d, func() { buf = wire.AppendEncode(buf[:0], put) })
	body := buf[4:] // Decode takes the frame without its length prefix
	if _, derr := wire.Decode(body); derr != nil {
		return 0, 0, 0, 0, fmt.Errorf("wire kernel: %w", derr)
	}
	decode = perCallNS(d, func() {
		m, _ := wire.Decode(body)
		sink += int(m.Kind)
	})

	entries := make([]wire.BatchEntry, 16)
	for i := range entries {
		entries[i] = wire.BatchEntry{
			Op:   wire.BatchPut,
			Ptr:  shmem.Ptr{Rank: 1, Kind: shmem.KindByte, Seg: 1, Off: int64(8 * i)},
			Data: make([]byte, 8),
		}
	}
	var bbuf []byte
	batchEncode = perCallNS(d, func() { bbuf = wire.AppendBatch(bbuf[:0], entries) })
	if _, derr := wire.DecodeBatch(bbuf); derr != nil {
		return 0, 0, 0, 0, fmt.Errorf("wire batch kernel: %w", derr)
	}
	batchDecode = perCallNS(d, func() {
		es, _ := wire.DecodeBatch(bbuf)
		sink += len(es)
	})
	return encode, decode, batchEncode, batchDecode, nil
}

// shmemKernels times the locked copy into a Space segment every put ends
// in, at the sync workloads' payload and at a stencil-sized one.
func shmemKernels(d time.Duration) (copy64, copy8k float64) {
	space := shmem.NewSpace([]int{0})
	p := space.AllocBytes(0, 8192)
	small, big := make([]byte, 64), make([]byte, 8192)
	copy64 = perCallNS(d, func() { space.Put(p, small) })
	copy8k = perCallNS(d, func() { space.Put(p, big) })
	return copy64, copy8k
}

// simEventNS times one scheduled-and-fired event of the simulation
// kernel: a simulated process sleeping a virtual microsecond.
func simEventNS(d time.Duration) (float64, error) {
	const events = 1 << 14
	var runErr error
	ns := perCallNS(d, func() {
		k := sim.New()
		k.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < events; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if err := k.Run(0); err != nil {
			runErr = err
		}
	})
	return ns / events, runErr
}

// sendToNS times one message through the shared pipeline's hot path:
// SendTo (identity, cost, fault and FIFO stages) and Inbound (dedup,
// arrival stamp, trace).
func sendToNS(d time.Duration) (float64, error) {
	p := pipeline.New(pipeline.Config{Params: model.Myrinet2000(), ChargeModel: true, Stats: trace.New()})
	src, dst := msg.User(0), msg.User(1)
	m := &msg.Message{Kind: msg.KindSend}
	var now time.Duration
	clock := func() time.Duration { return now }
	var sendErr error
	emit := func(dl pipeline.Delivery) {
		if !p.Inbound(dl.Msg, dl.At) {
			sendErr = fmt.Errorf("pipeline kernel: delivery suppressed with no faults configured")
		}
	}
	ns := perCallNS(d, func() {
		now += time.Microsecond
		if err := p.SendTo(src, dst, m, clock, nil, emit); err != nil {
			sendErr = err
		}
	})
	return ns, sendErr
}

// pingPongs is how many round trips one RTT sample averages.
const pingPongs = 200

// rttUS returns the median µs per round trip over samples of pingPongs
// round trips; the first sample is thrown away, because first sends set
// up per-pair state.
func rttUS(d time.Duration, round func()) float64 {
	for i := 0; i < pingPongs; i++ {
		round()
	}
	return sampleNS(d, pingPongs, round) / 1e3
}

// chanFloorUS is the floor the channel fabric chases: a 64 B message
// ping-ponged between two goroutines over plain Go channels.
func chanFloorUS(d time.Duration) float64 {
	ping, pong := make(chan []byte), make(chan []byte)
	go func() {
		for b := range ping {
			pong <- b
		}
		close(pong)
	}()
	buf := make([]byte, 64)
	us := rttUS(d, func() {
		ping <- buf
		buf = <-pong
	})
	close(ping)
	<-pong
	return us
}

// tcpFloorUS is the floor the TCP fabric chases: 64 B ping-ponged over
// one raw loopback connection (Go sets TCP_NODELAY by default).
func tcpFloorUS(d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("tcp floor: %w", err)
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, aerr := ln.Accept()
		if aerr != nil {
			echoed <- aerr
			return
		}
		defer c.Close()
		b := make([]byte, 64)
		for {
			if _, rerr := io.ReadFull(c, b); rerr != nil {
				echoed <- nil // the client closed: done
				return
			}
			if _, werr := c.Write(b); werr != nil {
				echoed <- werr
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, fmt.Errorf("tcp floor: %w", err)
	}
	b := make([]byte, 64)
	var ioErr error
	us := rttUS(d, func() {
		if _, werr := c.Write(b); werr != nil {
			ioErr = werr
		}
		if _, rerr := io.ReadFull(c, b); rerr != nil {
			ioErr = rerr
		}
	})
	c.Close()
	if eerr := <-echoed; eerr != nil && ioErr == nil {
		ioErr = eerr
	}
	if ioErr != nil {
		return 0, fmt.Errorf("tcp floor: %w", ioErr)
	}
	return us, nil
}

// envRTTUS is the same ping-pong through a fabric's Env: rank 0 Sends a
// 64 B message to rank 1 and Recvs its echo, so the difference to the
// floor is what pipeline, codec, router and mailbox wake-up add. On the
// simulated fabric it is the wall cost of simulating one round trip.
func envRTTUS(fabric armci.FabricKind, preset armci.CostPreset, d time.Duration) (float64, error) {
	var us float64
	match := msg.MatchKind(msg.KindSend)
	_, err := armci.Run(armci.Options{Procs: 2, Fabric: fabric, Preset: preset, Deadline: runDeadline}, func(p *armci.Proc) {
		env := p.Env()
		if p.Rank() == 0 {
			data := make([]byte, 64)
			us = rttUS(d, func() {
				env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Data: data})
				env.Recv(match)
			})
			env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: 1})
			return
		}
		for {
			m := env.Recv(match)
			if m.Tag == 1 {
				return
			}
			env.Send(msg.User(0), &msg.Message{Kind: msg.KindSend, Data: m.Data})
		}
	})
	if err != nil {
		return 0, fmt.Errorf("env round trip on %v: %w", fabric, err)
	}
	return us, nil
}

// bringUpMS is the median wall time of n cold armci.Run calls, from the
// call to rank 0's return from its first barrier: fabric construction,
// rendezvous (listen, dial, hello on tcp), actor start and one collective.
func bringUpMS(w *workload, n int) (float64, error) {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var up time.Duration
		if _, err := armci.Run(w.options(), func(p *armci.Proc) {
			p.MPIBarrier()
			if p.Rank() == 0 {
				up = time.Since(t0)
			}
		}); err != nil {
			return 0, fmt.Errorf("%s: cold bring-up: %w", w.name, err)
		}
		samples = append(samples, float64(up)/float64(time.Millisecond))
		if i%16 == 15 {
			// The tcp fabric leaves its dialed sockets to the collector;
			// let it close them before a hundred runs' worth pile up.
			runtime.GC()
		}
	}
	return median(samples), nil
}

// kernels are the workload-independent measurements of a traced run.
type kernels struct {
	encode, decode, batchEncode, batchDecode float64 // wire, ns
	copy64, copy8k                           float64 // shmem, ns
	event, sendTo                            float64 // sim, pipeline, ns
	chanFloor, tcpFloor                      float64 // raw round trips, µs
	chanRTT, tcpRTT                          float64 // Env round trips, µs
}

// measureKernels gives every kernel, floor and Env round trip d. It keeps
// going after a failure (each costs a fraction of a second) and returns
// the first error.
func measureKernels(d time.Duration) (kernels, error) {
	var k kernels
	var first error
	note := func(err error) {
		if first == nil {
			first = err
		}
	}
	var err error
	k.encode, k.decode, k.batchEncode, k.batchDecode, err = wireKernels(d)
	note(err)
	k.copy64, k.copy8k = shmemKernels(d)
	k.event, err = simEventNS(d)
	note(err)
	k.sendTo, err = sendToNS(d)
	note(err)
	k.chanFloor = chanFloorUS(d)
	k.tcpFloor, err = tcpFloorUS(d)
	note(err)
	k.chanRTT, err = envRTTUS(armci.FabricChan, "", d)
	note(err)
	k.tcpRTT, err = envRTTUS(armci.FabricTCP, "", d)
	note(err)
	return k, first
}
