package server_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/proc"
	"armci/internal/server"
	"armci/internal/shmem"
	"armci/internal/transport"
	"armci/internal/wire"
)

// harness runs one server on a simulated fabric with a single scripted
// user process that speaks the raw protocol.
func harness(t *testing.T, params model.Params, nLocks int,
	script func(env transport.Env, lay *proc.Layout, locks *proc.LockTable)) {
	t.Helper()
	f, err := transport.NewSim(transport.Config{Procs: 1, Model: params})
	if err != nil {
		t.Fatal(err)
	}
	lay := proc.NewLayout(f.Space(), 1, 1)
	var locks *proc.LockTable
	if nLocks > 0 {
		locks = proc.NewLockTable(f.Space(), make([]int, nLocks))
	}
	f.SpawnServer(0, func(env transport.Env) transport.Handler {
		return server.New(env, lay, server.Options{Locks: locks}).HandleOne
	})
	f.SpawnUser(0, func(env transport.Env) {
		script(env, lay, locks)
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestServerPutIncrementsOpDone(t *testing.T) {
	var f *transport.SimFabric
	{
		var err error
		f, err = transport.NewSim(transport.Config{Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	lay := proc.NewLayout(f.Space(), 1, 1)
	buf := f.Space().AllocBytes(0, 16)
	f.SpawnServer(0, func(env transport.Env) transport.Handler {
		return server.New(env, lay, server.Options{}).HandleOne
	})
	f.SpawnUser(0, func(env transport.Env) {
		for i := 0; i < 3; i++ {
			env.Send(msg.ServerOf(0), &msg.Message{
				Kind: msg.KindPut, Origin: 0, Ptr: buf.Add(int64(i)),
				Stride: stride(shmem.Contig(1)), Data: []byte{byte(i + 1)},
			})
		}
		env.WaitUntil("done", shmem.Cell(lay.OpDone[0]), func() bool { return env.Space().Load(lay.OpDone[0]) == 3 })
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if got := f.Space().AppendGet(nil, buf, shmem.Strided{}, 3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("put data %v", got)
	}
}

func TestServerGetAndRmw(t *testing.T) {
	harness(t, model.Zero(), 0, func(env transport.Env, lay *proc.Layout, _ *proc.LockTable) {
		w := env.Space().AllocWords(0, 2)
		env.Space().Store(w, 40)
		env.Send(msg.ServerOf(0), &msg.Message{
			Kind: msg.KindRmw, Origin: 0, Token: 1, Ptr: w,
			Op: uint8(msg.RmwFetchAdd), Operands: [4]int64{2},
		})
		resp := env.Recv(msg.MatchToken(msg.KindRmwResp, 1))
		if resp.Operands[0] != 40 {
			panic(fmt.Sprintf("rmw returned %d", resp.Operands[0]))
		}
		b := env.Space().AllocBytes(0, 8)
		env.Space().Put(b, []byte{9, 8, 7, 6, 5, 4, 3, 2})
		env.Send(msg.ServerOf(0), &msg.Message{
			Kind: msg.KindGet, Origin: 0, Token: 2, Ptr: b.Add(2),
			Stride: stride(shmem.Contig(4)), N: 4,
		})
		g := env.Recv(msg.MatchToken(msg.KindGetResp, 2))
		if len(g.Data) != 4 || g.Data[0] != 7 {
			panic(fmt.Sprintf("get returned %v", g.Data))
		}
	})
}

// TestServerFenceAfterPuts: a fence confirmation must arrive after the
// earlier puts' effects, by FIFO.
func TestServerFenceAfterPuts(t *testing.T) {
	harness(t, model.Myrinet2000(), 0, func(env transport.Env, lay *proc.Layout, _ *proc.LockTable) {
		b := env.Space().AllocBytes(0, 64)
		for i := 0; i < 8; i++ {
			env.Send(msg.ServerOf(0), &msg.Message{
				Kind: msg.KindPut, Origin: 0, Ptr: b.Add(int64(i)),
				Stride: stride(shmem.Contig(1)), Data: []byte{0xFF},
			})
		}
		env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindFenceReq, Origin: 0, Token: 9})
		env.Recv(msg.MatchToken(msg.KindFenceAck, 9))
		if env.Space().Load(lay.OpDone[0]) != 8 {
			panic("fence ack before puts completed")
		}
		for _, v := range env.Space().AppendGet(nil, b, shmem.Strided{}, 8) {
			if v != 0xFF {
				panic("fence ack before put data landed")
			}
		}
	})
}

// TestServerLockGrantOrder: queued remote lock requests are granted in
// ticket order interleaved with unlocks.
func TestServerLockGrantOrder(t *testing.T) {
	harness(t, model.Zero(), 1, func(env transport.Env, lay *proc.Layout, locks *proc.LockTable) {
		// Request the lock three times on behalf of pseudo-origins; the
		// single scripted user plays all roles (origin is always 0 so
		// the grants come back to us; tokens distinguish them).
		for tok := uint64(1); tok <= 3; tok++ {
			env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindLockReq, Origin: 0, Token: tok, Tag: 0})
		}
		// Only the first is granted immediately.
		env.Recv(msg.MatchToken(msg.KindLockGrant, 1))
		// Release twice; grants 2 and 3 must arrive in order.
		env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindUnlock, Origin: 0, Tag: 0})
		env.Recv(msg.MatchToken(msg.KindLockGrant, 2))
		env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindUnlock, Origin: 0, Tag: 0})
		env.Recv(msg.MatchToken(msg.KindLockGrant, 3))
		env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindUnlock, Origin: 0, Tag: 0})
		// The final unlock is fire-and-forget; wait for the counter to
		// catch the ticket, proving full release.
		base := locks.TicketCounter[0]
		env.WaitUntil("released", shmem.Cells{P: base, N: 2}, func() bool {
			return env.Space().Load(base.Add(proc.TicketWord)) ==
				env.Space().Load(base.Add(proc.CounterWord))
		})
	})
}

// TestServerWakeCharging: after a long idle gap the first request pays
// the wake penalty, observable as added virtual latency.
func TestServerWakeCharging(t *testing.T) {
	params := model.Myrinet2000()
	var hot, cold time.Duration
	harness(t, params, 0, func(env transport.Env, lay *proc.Layout, _ *proc.LockTable) {
		w := env.Space().AllocWords(0, 1)
		rtt := func() time.Duration {
			t0 := env.Clock().Now()
			env.Send(msg.ServerOf(0), &msg.Message{
				Kind: msg.KindRmw, Origin: 0, Token: uint64(t0), Ptr: w,
				Op: uint8(msg.RmwFetchAdd), Operands: [4]int64{1},
			})
			env.Recv(msg.MatchToken(msg.KindRmwResp, uint64(t0)))
			return env.Clock().Now() - t0
		}
		rtt() // wake it once
		hot = rtt()
		env.Clock().Sleep(params.ServerIdleAfter * 3)
		cold = rtt()
	})
	if cold <= hot {
		t.Fatalf("cold RTT %v not above hot RTT %v", cold, hot)
	}
	if diff := cold - hot; diff != params.ServerWake {
		t.Fatalf("wake penalty observed %v, want %v", diff, params.ServerWake)
	}
}

// TestServerRejectsUnknownKind: garbage reaching a server is a loud
// protocol error.
func TestServerRejectsUnknownKind(t *testing.T) {
	f, err := transport.NewSim(transport.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lay := proc.NewLayout(f.Space(), 1, 1)
	f.SpawnServer(0, func(env transport.Env) transport.Handler {
		return server.New(env, lay, server.Options{}).HandleOne
	})
	f.SpawnUser(0, func(env transport.Env) {
		env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindGetResp})
		env.Clock().Sleep(time.Second)
	})
	if err := f.Run(); err == nil {
		t.Fatal("server accepted an unexpected message kind")
	}
}

// TestServerLockWithoutTablePanics documents the configuration error.
func TestServerLockWithoutTablePanics(t *testing.T) {
	f, err := transport.NewSim(transport.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lay := proc.NewLayout(f.Space(), 1, 1)
	f.SpawnServer(0, func(env transport.Env) transport.Handler {
		return server.New(env, lay, server.Options{}).HandleOne
	})
	f.SpawnUser(0, func(env transport.Env) {
		env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindLockReq, Tag: 0})
		env.Clock().Sleep(time.Second)
	})
	if err := f.Run(); err == nil {
		t.Fatal("lock request without a table should fail the run")
	}
}

// TestNewRejectsUserEndpoint: a server must be constructed on a server
// address.
func TestNewRejectsUserEndpoint(t *testing.T) {
	f, err := transport.NewSim(transport.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lay := proc.NewLayout(f.Space(), 1, 1)
	f.SpawnUser(0, func(env transport.Env) {
		defer func() {
			if recover() == nil {
				panic("server.New accepted a user endpoint")
			}
		}()
		server.New(env, lay, server.Options{})
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestServerAccumulateStrided(t *testing.T) {
	harness(t, model.Zero(), 0, func(env transport.Env, lay *proc.Layout, _ *proc.LockTable) {
		b := env.Space().AllocBytes(0, 64)
		one := make([]byte, 16)
		for i := 0; i < 2; i++ {
			for j := 0; j < 8; j++ {
				one[8*i+j] = 0
			}
		}
		// 1.0 little-endian float64 twice
		copy(one[0:], []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F})
		copy(one[8:], []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F})
		for k := 0; k < 3; k++ {
			env.Send(msg.ServerOf(0), &msg.Message{
				Kind: msg.KindAcc, Origin: 0, Ptr: b,
				Stride:   &shmem.Strided{Count: []int{8, 2}, Stride: []int64{32}},
				Op:       uint8(shmem.AccFloat64),
				Operands: msg.ScaleOperands(2), Data: one,
			})
		}
		env.WaitUntil("acc", shmem.Cell(lay.OpDone[0]), func() bool { return env.Space().Load(lay.OpDone[0]) == 3 })
		got := env.Space().AppendGet(nil, b, shmem.Strided{}, 8)
		// 3 accumulations of 2*1.0 = 6.0
		if got[6] != 0x18 || got[7] != 0x40 {
			panic(fmt.Sprintf("accumulated bytes %v", got))
		}
	})
}

// TestServerIdleCycleSleepsAgain: after a busy period and a long gap, the
// wake penalty applies again (not only the first time).
func TestServerIdleCycleSleepsAgain(t *testing.T) {
	params := model.Myrinet2000()
	var rtts []time.Duration
	harness(t, params, 0, func(env transport.Env, lay *proc.Layout, _ *proc.LockTable) {
		w := env.Space().AllocWords(0, 1)
		rtt := func() time.Duration {
			t0 := env.Clock().Now()
			env.Send(msg.ServerOf(0), &msg.Message{
				Kind: msg.KindRmw, Origin: 0, Token: uint64(t0), Ptr: w,
				Op: uint8(msg.RmwFetchAdd), Operands: [4]int64{1},
			})
			env.Recv(msg.MatchToken(msg.KindRmwResp, uint64(t0)))
			return env.Clock().Now() - t0
		}
		for cycle := 0; cycle < 3; cycle++ {
			cold := rtt()
			hot := rtt()
			rtts = append(rtts, cold, hot)
			env.Clock().Sleep(params.ServerIdleAfter * 2)
		}
	})
	for c := 0; c < 3; c++ {
		cold, hot := rtts[2*c], rtts[2*c+1]
		if cold-hot != params.ServerWake {
			t.Fatalf("cycle %d: cold-hot = %v, want wake %v", c, cold-hot, params.ServerWake)
		}
	}
}

// TestAgentServesRmwAndFence: the NIC agent executes atomics and
// per-origin fences at NIC cost and rejects bulk traffic.
func TestAgentServesRmwAndFence(t *testing.T) {
	f, err := transport.NewSim(transport.Config{Procs: 1, Model: model.Myrinet2000()})
	if err != nil {
		t.Fatal(err)
	}
	lay := proc.NewLayout(f.Space(), 1, 1)
	f.SpawnServer(1, func(env transport.Env) transport.Handler { // agent id = numNodes(1) + node(0)
		return server.NewAgent(env, lay, server.Options{}).HandleOne
	})
	f.SpawnUser(0, func(env transport.Env) {
		w := env.Space().AllocWords(0, 1)
		agent := msg.NICOf(0, 1)
		env.Send(agent, &msg.Message{
			Kind: msg.KindRmw, Origin: 0, Token: 1, Ptr: w,
			Op: uint8(msg.RmwFetchAdd), Operands: [4]int64{42},
		})
		resp := env.Recv(msg.MatchToken(msg.KindRmwResp, 1))
		if resp.Operands[0] != 0 || env.Space().Load(w) != 42 {
			panic("agent rmw wrong")
		}
		// A fence for zero issued ops acks immediately.
		env.Send(agent, &msg.Message{Kind: msg.KindFenceReq, Origin: 0, Token: 2})
		env.Recv(msg.MatchToken(msg.KindFenceAck, 2))
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAgentRejectsBulkTraffic(t *testing.T) {
	f, err := transport.NewSim(transport.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lay := proc.NewLayout(f.Space(), 1, 1)
	f.SpawnServer(1, func(env transport.Env) transport.Handler {
		return server.NewAgent(env, lay, server.Options{}).HandleOne
	})
	f.SpawnUser(0, func(env transport.Env) {
		b := env.Space().AllocBytes(0, 8)
		env.Send(msg.NICOf(0, 1), &msg.Message{
			Kind: msg.KindPut, Origin: 0, Ptr: b, Stride: stride(shmem.Contig(1)), Data: []byte{1},
		})
		env.Clock().Sleep(time.Second)
	})
	if err := f.Run(); err == nil {
		t.Fatal("agent accepted a put")
	}
}

func TestNewAgentRejectsHostAddress(t *testing.T) {
	f, err := transport.NewSim(transport.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lay := proc.NewLayout(f.Space(), 1, 1)
	panicked := false
	func() {
		defer func() { panicked = recover() != nil }()
		f.SpawnServer(0, func(env transport.Env) transport.Handler { // host id, not agent id
			return server.NewAgent(env, lay, server.Options{}).HandleOne
		})
	}()
	if !panicked {
		t.Fatal("NewAgent accepted a host server endpoint")
	}
}

// batchServer runs one server for procs ranks, ppn to a node, on a
// simulated fabric, and hands body the server and rank 0's Env; body
// calls HandleOne itself, as the fabric would.
func batchServer(t testing.TB, procs, ppn int, body func(f *transport.SimFabric, lay *proc.Layout, s *server.Server)) {
	t.Helper()
	f, err := transport.NewSim(transport.Config{Procs: procs, ProcsPerNode: ppn, Model: model.Zero()})
	if err != nil {
		t.Fatal(err)
	}
	lay := proc.NewLayout(f.Space(), procs, f.Space().NumNodes())
	var s *server.Server
	f.SpawnServer(0, func(env transport.Env) transport.Handler {
		s = server.New(env, lay, server.Options{})
		return s.HandleOne
	})
	f.SpawnUser(0, func(transport.Env) { body(f, lay, s) })
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
}

// putBatch returns a KindBatch from rank 0 of one 8-byte put per cell of
// buf, the i-th holding i+1.
func putBatch(buf shmem.Ptr, entries int) (*msg.Message, []wire.BatchEntry) {
	batch := make([]wire.BatchEntry, entries)
	for i := range batch {
		batch[i] = wire.BatchEntry{Op: wire.BatchPut, Ptr: buf.Add(int64(8 * i)), Data: []byte{byte(i + 1), byte((i + 1) >> 8), 0, 0, 0, 0, 0, 0}}
	}
	return &msg.Message{Kind: msg.KindBatch, Origin: 0, N: entries, Data: wire.EncodeBatch(batch)}, batch
}

// TestServerBatchAllocBudget pins the server half of the coalesced path:
// a warm KindBatch, of 16 entries or of a full burst's 256, allocates
// nothing — the entries alias the frame's body and the entry table and
// write batch are the server's own — and op_done and the per-origin cell
// each advance by the frame's entry count.
func TestServerBatchAllocBudget(t *testing.T) {
	for _, entries := range []int{16, 256} {
		t.Run(fmt.Sprint(entries), func(t *testing.T) {
			var avg float64
			frames := 0
			var buf shmem.Ptr
			var batch []wire.BatchEntry
			batchServer(t, 1, 1, func(f *transport.SimFabric, lay *proc.Layout, s *server.Server) {
				buf = f.Space().AllocBytes(0, 8*entries)
				var m *msg.Message
				m, batch = putBatch(buf, entries)
				handle := func() {
					s.HandleOne(m)
					frames++
				}
				handle() // warm
				avg = testing.AllocsPerRun(100, handle)
				want := int64(entries * frames)
				if got := f.Space().Load(lay.OpDone[0]); got != want {
					t.Errorf("op_done = %d after %d frames, want %d", got, frames, want)
				}
				if got := f.Space().Load(lay.PerOrigin[0]); got != want {
					t.Errorf("per-origin count = %d after %d frames, want %d", got, frames, want)
				}
				got := f.Space().AppendGet(nil, buf, shmem.Strided{}, 8*entries)
				for i := range batch {
					if !bytes.Equal(got[8*i:8*i+8], batch[i].Data) {
						t.Fatalf("entry %d landed as %v, want %v", i, got[8*i:8*i+8], batch[i].Data)
					}
				}
			})
			if avg > 0 {
				t.Errorf("a warm %d-entry batch allocates %.2f, budget 0", entries, avg)
			}
		})
	}
}

// TestServerBatchNotifiesOncePerRun: the write hook fires once per
// maximal run of contiguous cells a batch wrote, so 256 contiguous puts
// signal the waits on their cells once, not 256 times.
func TestServerBatchNotifiesOncePerRun(t *testing.T) {
	const entries = 256
	batchServer(t, 1, 1, func(f *transport.SimFabric, lay *proc.Layout, s *server.Server) {
		buf := f.Space().AllocBytes(0, 8*entries)
		m, _ := putBatch(buf, entries)
		var got []shmem.Cells
		f.Space().SetOnWrite(func(p shmem.Ptr, n int64) {
			if p.Kind == buf.Kind && p.Seg == buf.Seg {
				got = append(got, shmem.Cells{P: p, N: n})
			}
		})
		s.HandleOne(m)
		if want := []shmem.Cells{{P: buf, N: 8 * entries}}; !slices.Equal(got, want) {
			t.Errorf("write hook on the burst's segment: %v, want %v", got, want)
		}
	})
}

// TestServerBatchSpansRanksInEntryOrder: at two ranks per node one frame
// carries entries for both ranks' memory, interleaved. They land in
// entry order — a later entry to a cell overwrites an earlier one, and a
// flag store follows the data before it — and op_done and the per-origin
// counter advance by the entry count.
func TestServerBatchSpansRanksInEntryOrder(t *testing.T) {
	batchServer(t, 2, 2, func(f *transport.SimFabric, lay *proc.Layout, s *server.Server) {
		sp := f.Space()
		b0, b1 := sp.AllocBytes(0, 16), sp.AllocBytes(1, 16)
		w0, w1 := sp.AllocWords(0, 1), sp.AllocWords(1, 1)
		le := func(v int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
		batch := []wire.BatchEntry{
			{Op: wire.BatchPut, Ptr: b0, Data: le(1)},
			{Op: wire.BatchPut, Ptr: b1, Data: le(2)},
			{Op: wire.BatchPut, Ptr: b0, Data: le(3)}, // overwrites entry 0
			{Op: wire.BatchAcc, Ptr: b1, Data: le(5), AccOp: uint8(shmem.AccInt64), Scale: 2},
			{Op: wire.BatchPut, Ptr: b1.Add(8), Data: le(6)},
			{Op: wire.BatchStore, Ptr: w1, Data: le(7)},
			{Op: wire.BatchStore, Ptr: w0, Data: le(8)},
			{Op: wire.BatchStore, Ptr: w0, Data: le(9)}, // overwrites entry 6
		}
		s.HandleOne(&msg.Message{Kind: msg.KindBatch, Origin: 1, N: len(batch), Data: wire.EncodeBatch(batch)})
		word := func(p shmem.Ptr) uint64 {
			return binary.LittleEndian.Uint64(sp.AppendGet(nil, p, shmem.Strided{}, 8))
		}
		if got := word(b0); got != 3 {
			t.Errorf("rank 0 cell = %d, want the later put's 3", got)
		}
		if got := word(b1); got != 2+2*5 {
			t.Errorf("rank 1 cell = %d, want 2 accumulated with 2*5", got)
		}
		if got := word(b1.Add(8)); got != 6 {
			t.Errorf("rank 1 second cell = %d, want 6", got)
		}
		if got0, got1 := sp.Load(w0), sp.Load(w1); got0 != 9 || got1 != 7 {
			t.Errorf("flags = %d, %d; want 9 (the later store), 7", got0, got1)
		}
		want := int64(len(batch))
		if got := sp.Load(lay.OpDone[0]); got != want {
			t.Errorf("op_done = %d, want %d", got, want)
		}
		if got := sp.Load(lay.PerOrigin[0].Add(1)); got != want {
			t.Errorf("rank 1's per-origin count = %d, want %d", got, want)
		}
		if got := sp.Load(lay.PerOrigin[0]); got != 0 {
			t.Errorf("rank 0's per-origin count = %d, want 0", got)
		}
	})
}

// BenchmarkServerBatch times the server's apply of a warm 256 × 8 B
// batch, a coalesced burst's frame: decode, charges (zero), the writes
// and the completion counting.
func BenchmarkServerBatch(b *testing.B) {
	const entries = 256
	batchServer(b, 1, 1, func(f *transport.SimFabric, _ *proc.Layout, s *server.Server) {
		m, _ := putBatch(f.Space().AllocBytes(0, 8*entries), entries)
		s.HandleOne(m) // warm
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			s.HandleOne(m)
		}
	})
}

// stride is d as a request carries it.
func stride(d shmem.Strided) *shmem.Strided { return &d }
