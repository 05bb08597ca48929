package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"armci/internal/cluster"
	"armci/internal/model"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/shmem"
	"armci/internal/trace"
	"armci/internal/wire"
)

func TestConfigValidation(t *testing.T) {
	if _, err := NewSim(Config{Procs: 0}); err == nil {
		t.Fatal("Procs=0 accepted")
	}
	if _, err := NewChan(Config{Procs: -1}); err == nil {
		t.Fatal("negative Procs accepted")
	}
	if _, err := NewTCP(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestConfigRejectsBadKnobs: normalize must reject nonsensical values with
// a descriptive error rather than silently misbehaving later.
func TestConfigRejectsBadKnobs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"negative deadline", Config{Procs: 2, Deadline: -time.Second}, "Deadline >= 0"},
		{"negative fault jitter", Config{Procs: 2, Faults: pipeline.Faults{Jitter: -1}}, "fault plan"},
		{"negative spike delay", Config{Procs: 2, Faults: pipeline.Faults{SpikeDelay: -time.Millisecond, SpikeProb: 0.1}}, "fault plan"},
		{"spike prob above 1", Config{Procs: 2, Faults: pipeline.Faults{SpikeProb: 1.5}}, "fault plan"},
		{"negative dup prob", Config{Procs: 2, Faults: pipeline.Faults{DupProb: -0.1}}, "fault plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			err := cfg.normalize()
			if err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestConfigTopology(t *testing.T) {
	c := Config{Procs: 5, ProcsPerNode: 2}
	if err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	nodes := c.nodeMap()
	want := []int{0, 0, 1, 1, 2}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodeMap = %v", nodes)
		}
	}
	if c.numNodes() != 3 {
		t.Fatalf("numNodes = %d", c.numNodes())
	}
}

// fabricsUnderTest builds each fabric kind for a config.
// spawnServerBody registers body as node's server actor in place of a
// serve loop, for the tests of how a server's Recv waits and is released.
func spawnServerBody(f Fabric, node int, body func(Env)) {
	switch f := f.(type) {
	case *SimFabric:
		f.servers = append(f.servers, f.newEnv(msg.ServerOf(node), body))
	case *ChanFabric:
		f.spawn(msg.ServerOf(node), body)
	case *TCPFabric:
		f.spawn(msg.ServerOf(node), body)
	case *ProcFabric:
		f.spawn(msg.ServerOf(node), body)
	default:
		panic(fmt.Sprintf("spawnServerBody: fabric %T", f))
	}
}

func fabricsUnderTest(t *testing.T, cfg Config) map[string]func() (Fabric, error) {
	t.Helper()
	return map[string]func() (Fabric, error){
		"sim": func() (Fabric, error) { return NewSim(cfg) },
		"chan": func() (Fabric, error) {
			c := cfg
			c.Model = model.Zero()
			return NewChan(c)
		},
		"tcp": func() (Fabric, error) {
			c := cfg
			c.Model = model.Zero()
			return NewTCP(c)
		},
	}
}

// TestPingPongAllFabrics: two user processes exchange a counter via
// tagged messages on every fabric.
func TestPingPongAllFabrics(t *testing.T) {
	for name, mk := range fabricsUnderTest(t, Config{Procs: 2, Model: model.Myrinet2000()}) {
		t.Run(name, func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 10
			var final int
			f.SpawnUser(0, func(env Env) {
				v := 0
				for i := 0; i < rounds; i++ {
					env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i, N: v})
					m := env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(1), i))
					v = m.N
				}
				final = v
			})
			f.SpawnUser(1, func(env Env) {
				for i := 0; i < rounds; i++ {
					m := env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(0), i))
					env.Send(msg.User(0), &msg.Message{Kind: msg.KindSend, Tag: i, N: m.N + 1})
				}
			})
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
			if final != rounds {
				t.Fatalf("final counter %d, want %d", final, rounds)
			}
		})
	}
}

// TestServerShutdownNilRecv: a server's Recv returns nil after the users
// finish, on every fabric.
func TestServerShutdownNilRecv(t *testing.T) {
	for name, mk := range fabricsUnderTest(t, Config{Procs: 1}) {
		t.Run(name, func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			served := 0
			clean := false
			spawnServerBody(f, 0, func(env Env) {
				for {
					m := env.Recv(msg.MatchAny)
					if m == nil {
						clean = true
						return
					}
					served++
					env.Send(m.Src, &msg.Message{Kind: msg.KindRmwResp, Token: m.Token})
				}
			})
			f.SpawnUser(0, func(env Env) {
				for i := 0; i < 3; i++ {
					env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindRmw, Token: uint64(i), Origin: 0})
					env.Recv(msg.MatchToken(msg.KindRmwResp, uint64(i)))
				}
			})
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
			if served != 3 || !clean {
				t.Fatalf("served=%d clean=%v", served, clean)
			}
		})
	}
}

// TestPerPairFIFO: a big message then small messages from the same
// sender must arrive in order, on every fabric.
func TestPerPairFIFO(t *testing.T) {
	for name, mk := range fabricsUnderTest(t, Config{Procs: 2, Model: model.Myrinet2000()}) {
		t.Run(name, func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			f.SpawnUser(0, func(env Env) {
				env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: 0, Data: make([]byte, 64<<10)})
				for i := 1; i < 5; i++ {
					env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i})
				}
			})
			f.SpawnUser(1, func(env Env) {
				for i := 0; i < 5; i++ {
					m := env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(0), i))
					got = append(got, m.Tag)
				}
			})
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("order %v", got)
				}
			}
		})
	}
}

// TestSimCostAccounting checks the virtual-time arithmetic of one
// message: sender overhead + wire + receiver overhead.
func TestSimCostAccounting(t *testing.T) {
	params := model.Myrinet2000()
	f, err := NewSim(Config{Procs: 2, Model: params})
	if err != nil {
		t.Fatal(err)
	}
	var sentAt, gotAt time.Duration
	var m0 *msg.Message
	f.SpawnUser(0, func(env Env) {
		sentAt = env.Clock().Now()
		m0 = &msg.Message{Kind: msg.KindSend, Tag: 1}
		env.Send(msg.User(1), m0)
	})
	f.SpawnUser(1, func(env Env) {
		env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(0), 1))
		gotAt = env.Clock().Now()
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	want := sentAt + params.SendOverhead +
		params.WireTime(m0.PayloadBytes(), false) + params.RecvOverhead
	if gotAt != want {
		t.Fatalf("receive completed at %v, want %v", gotAt, want)
	}
}

// TestSimIntraNodeLatency: endpoints on the same node use LocalLatency.
func TestSimIntraNodeLatency(t *testing.T) {
	params := model.Myrinet2000()
	f, err := NewSim(Config{Procs: 2, ProcsPerNode: 2, Model: params})
	if err != nil {
		t.Fatal(err)
	}
	var gotAt time.Duration
	var m0 *msg.Message
	f.SpawnUser(0, func(env Env) {
		m0 = &msg.Message{Kind: msg.KindSend, Tag: 1}
		env.Send(msg.User(1), m0)
	})
	f.SpawnUser(1, func(env Env) {
		env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(0), 1))
		gotAt = env.Clock().Now()
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	want := params.SendOverhead + params.WireTime(m0.PayloadBytes(), true) + params.RecvOverhead
	if gotAt != want {
		t.Fatalf("intra-node receive at %v, want %v", gotAt, want)
	}
}

// TestSimDeterminism: two identical multi-actor runs produce identical
// captured message streams and identical virtual end times.
func TestSimDeterminism(t *testing.T) {
	run := func() (string, time.Duration) {
		stats := trace.New()
		stats.SetTimeline(true)
		f, err := NewSim(Config{Procs: 4, Model: model.Myrinet2000(), Trace: stats})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			r := r
			f.SpawnUser(r, func(env Env) {
				for round := 0; round < 5; round++ {
					to := (r + 1 + round) % 4
					if to == r {
						to = (to + 1) % 4
					}
					env.Send(msg.User(to), &msg.Message{Kind: msg.KindSend, Tag: r*100 + round})
					// The round's sends are a rotation of the ranks, so one
					// message of the round is for r, from the rank r - (to - r).
					from := (r - (to-r+4)%4 + 4) % 4
					env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(from), from*100+round))
				}
			})
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return trace.FingerprintEvents(stats.Timeline()), f.Now()
	}
	fp1, t1 := run()
	fp2, t2 := run()
	if fp1 != fp2 {
		t.Fatal("two identical sim runs produced different message streams")
	}
	if t1 != t2 {
		t.Fatalf("virtual end times differ: %v vs %v", t1, t2)
	}
}

// TestWaitUntilAcrossActors: a user blocked in WaitUntil on shared memory
// is woken by a server's write, on every fabric.
func TestWaitUntilAcrossActors(t *testing.T) {
	for name, mk := range fabricsUnderTest(t, Config{Procs: 1, Model: model.Myrinet2000()}) {
		t.Run(name, func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			cell := f.Space().AllocWords(0, 1)
			f.SpawnServer(0, func(env Env) Handler {
				return func(*msg.Message) { env.Space().Store(cell, 42) }
			})
			var got int64
			f.SpawnUser(0, func(env Env) {
				env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindRmw, Op: uint8(msg.RmwStore)})
				env.WaitUntil("cell", shmem.Cell(cell), func() bool { return env.Space().Load(cell) != 0 })
				got = env.Space().Load(cell)
			})
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 42 {
				t.Fatalf("observed %d", got)
			}
		})
	}
}

// TestPanicPropagation: an actor panic surfaces as a Run error naming the
// actor, on every fabric.
func TestPanicPropagation(t *testing.T) {
	for name, mk := range fabricsUnderTest(t, Config{Procs: 1, Deadline: 10 * time.Second}) {
		t.Run(name, func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			f.SpawnUser(0, func(env Env) {
				panic("deliberate")
			})
			err = f.Run()
			if err == nil || !strings.Contains(err.Error(), "deliberate") {
				t.Fatalf("want panic error, got %v", err)
			}
		})
	}
}

// TestManyToOneStress: many users hammer one echo server concurrently on
// the real fabrics.
func TestManyToOneStress(t *testing.T) {
	for _, name := range []string{"chan", "tcp"} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Procs: 8, Model: model.Zero()}
			var f Fabric
			var err error
			if name == "chan" {
				f, err = NewChan(cfg)
			} else {
				f, err = NewTCP(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			// One node hosting all 8 ranks? No — default one node per
			// rank; use server 0 as the shared echo target.
			f.SpawnServer(0, func(env Env) Handler {
				return func(m *msg.Message) {
					env.Send(msg.User(m.Origin), &msg.Message{Kind: msg.KindRmwResp, Token: m.Token})
				}
			})
			for r := 0; r < 8; r++ {
				r := r
				f.SpawnUser(r, func(env Env) {
					for i := 0; i < 50; i++ {
						tok := uint64(r*1000 + i)
						env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindRmw, Origin: r, Token: tok})
						env.Recv(msg.MatchToken(msg.KindRmwResp, tok))
					}
				})
			}
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTCPLargePayload pushes a 1 MiB frame over a pair connection, far
// past the frame reader's initial buffer.
func TestTCPLargePayload(t *testing.T) {
	f, err := NewTCP(Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	ok := false
	f.SpawnUser(0, func(env Env) {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: 0, Data: data})
	})
	f.SpawnUser(1, func(env Env) {
		m := env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(0), 0))
		ok = len(m.Data) == size
		for i := range m.Data {
			if m.Data[i] != byte(i*7) {
				ok = false
				break
			}
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("large payload corrupted")
	}
}

// TestSimDeadline: a wedged simulated cluster reports a deadline error
// rather than hanging.
func TestSimDeadline(t *testing.T) {
	f, err := NewSim(Config{Procs: 1, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.SpawnUser(0, func(env Env) {
		env.Clock().Sleep(2 * time.Second)
	})
	if err := f.Run(); err == nil {
		t.Fatal("want deadline error")
	}
}

func TestFabricKindStringsViaEnv(t *testing.T) {
	f, err := NewSim(Config{Procs: 3, ProcsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	f.SpawnUser(2, func(env Env) {
		if env.Rank() != 2 || env.Size() != 3 || env.NumNodes() != 2 {
			panic(fmt.Sprintf("env identity wrong: rank=%d size=%d nodes=%d",
				env.Rank(), env.Size(), env.NumNodes()))
		}
		if env.Node(0) != 0 || env.Node(2) != 1 {
			panic("node mapping wrong")
		}
		if env.Self() != msg.User(2) {
			panic("self wrong")
		}
		checked = true
	})
	f.SpawnUser(0, func(env Env) {})
	f.SpawnUser(1, func(env Env) {})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("assertions never ran")
	}
}

// TestTCPDropsUnknownDestination: a frame addressed to an endpoint nobody
// hosts is dropped on arrival without disturbing the rest of the cluster.
func TestTCPDropsUnknownDestination(t *testing.T) {
	f, err := NewTCP(Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	f.SpawnUser(0, func(env Env) {
		env.Send(msg.ServerOf(99), &msg.Message{Kind: msg.KindSend, Tag: 0}) // nobody home
		env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: 1})
	})
	f.SpawnUser(1, func(env Env) {
		env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(0), 1))
		ok = true
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cluster wedged after a dropped frame")
	}
}

// TestChanSendToUnknownEndpointPanics documents the channel fabric's
// stricter behavior: local sends to unregistered endpoints are bugs.
func TestChanSendToUnknownEndpointPanics(t *testing.T) {
	f, err := NewChan(Config{Procs: 1, Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f.SpawnUser(0, func(env Env) {
		env.Send(msg.ServerOf(42), &msg.Message{Kind: msg.KindSend})
	})
	if err := f.Run(); err == nil {
		t.Fatal("send to unknown endpoint did not fail the run")
	}
}

// TestJitterPreservesPerPairFIFO at the transport level: with heavy
// jitter, tagged messages from one sender still arrive in send order.
func TestJitterPreservesPerPairFIFO(t *testing.T) {
	f, err := NewChan(Config{Procs: 2, Faults: pipeline.Faults{Jitter: 2 * time.Millisecond, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 30
	var got []int
	f.SpawnUser(0, func(env Env) {
		for i := 0; i < msgs; i++ {
			env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i})
		}
	})
	f.SpawnUser(1, func(env Env) {
		for i := 0; i < msgs; i++ {
			m := env.Recv(msg.MatchKind(msg.KindSend)) // any order the fabric offers
			got = append(got, m.Tag)
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("jitter reordered the pipe: %v", got)
		}
	}
}

// TestFaultSeedDeterminismAcrossFabrics: fault decisions are pure
// functions of (seed, pair, sequence), so a causally serialized workload
// — ping-pong, where the global send order is forced by the protocol —
// produces the identical fault-annotated trace fingerprint on the
// simulated and the channel fabric, and different seeds diverge.
func TestFaultSeedDeterminismAcrossFabrics(t *testing.T) {
	const rounds = 30
	run := func(mk func(Config) (Fabric, error), seed int64) string {
		stats := trace.New()
		stats.SetTimeline(true)
		f, err := mk(Config{
			Procs: 2,
			Trace: stats,
			Faults: pipeline.Faults{
				Seed:       seed,
				Jitter:     100 * time.Microsecond,
				SpikeProb:  0.3,
				SpikeDelay: 500 * time.Microsecond,
				DupProb:    0.4,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		f.SpawnUser(0, func(env Env) {
			for i := 0; i < rounds; i++ {
				env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i})
				env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(1), i))
			}
		})
		f.SpawnUser(1, func(env Env) {
			for i := 0; i < rounds; i++ {
				env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(0), i))
				env.Send(msg.User(0), &msg.Message{Kind: msg.KindSend, Tag: i})
			}
		})
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return trace.FingerprintEvents(stats.Timeline())
	}
	mkSim := func(c Config) (Fabric, error) { return NewSim(c) }
	mkChan := func(c Config) (Fabric, error) { return NewChan(c) }

	simFP := run(mkSim, 7)
	if run(mkSim, 7) != simFP {
		t.Fatal("simulated fabric did not replay the fault pattern")
	}
	if chanFP := run(mkChan, 7); chanFP != simFP {
		t.Fatalf("fault pattern diverges across fabrics for one seed:\nsim:  %s\nchan: %s", simFP, chanFP)
	}
	if run(mkSim, 8) == simFP {
		t.Fatal("different fault seeds produced identical traces")
	}
	if !strings.Contains(simFP, ":f") || !strings.Contains(simFP, ":dup") {
		t.Fatalf("fingerprint carries no fault annotations: %s", simFP)
	}
}

// TestSimScheduleShuffleDeterminism: the shuffled scheduler replays
// exactly for a seed and differs across seeds.
func TestSimScheduleShuffleDeterminism(t *testing.T) {
	run := func(seed int64) string {
		stats := trace.New()
		stats.SetTimeline(true)
		f, err := NewSim(Config{Procs: 4, Model: model.Myrinet2000(), Trace: stats, ScheduleSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			r := r
			f.SpawnUser(r, func(env Env) {
				for i := 0; i < 5; i++ {
					env.Send(msg.User((r+1)%4), &msg.Message{Kind: msg.KindSend, Tag: i})
					env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User((r+3)%4), i))
				}
			})
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return trace.FingerprintEvents(stats.Timeline())
	}
	if run(5) != run(5) {
		t.Fatal("seeded shuffle did not replay")
	}
	if run(5) == run(6) && run(6) == run(7) {
		t.Fatal("three different seeds gave identical schedules — shuffle inert")
	}
}

// TestStampsOnlyForAReader pins when a message carries send and arrival
// times (pipeline.Stamps): in a quiet run on chan and tcp never — Sent and
// Arrival stay 0 and no clock is read for them; under capture, a NewRun
// recorder or a jitter plan always, with 0 < Sent <= Arrival and Recv
// never handing out a message before its stamped arrival; on sim always,
// since its cost model reads them.
func TestStampsOnlyForAReader(t *testing.T) {
	const n = 20
	readers := map[string]func(*Config){
		"quiet":        func(*Config) {},
		"capture":      func(c *Config) { c.Trace = trace.New(); c.Trace.SetTimeline(true) },
		"run recorder": func(c *Config) { c.Trace = trace.New().NewRun() },
		"jitter":       func(c *Config) { c.Faults = pipeline.Faults{Seed: 1, Jitter: time.Millisecond} },
	}
	for reader, set := range readers {
		for _, fabric := range []string{"sim", "chan", "tcp"} {
			t.Run(reader+"/"+fabric, func(t *testing.T) {
				cfg := Config{Procs: 2, Model: model.Myrinet2000()} // sim's; chan and tcp run the zero model
				set(&cfg)
				f, err := fabricsUnderTest(t, cfg)[fabric]()
				if err != nil {
					t.Fatal(err)
				}
				var got []*msg.Message
				early := 0
				f.SpawnUser(0, func(env Env) {
					for i := 0; i < n; i++ {
						env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend, Tag: i})
					}
				})
				f.SpawnUser(1, func(env Env) {
					for len(got) < n {
						m := env.Recv(msg.MatchKind(msg.KindSend))
						if m.Arrival > env.Clock().Now() {
							early++
						}
						got = append(got, m)
					}
				})
				if err := f.Run(); err != nil {
					t.Fatal(err)
				}
				if early > 0 {
					t.Fatalf("Recv handed out %d of %d messages before their stamped arrival", early, n)
				}
				stamped := reader != "quiet" || fabric == "sim"
				for _, m := range got {
					if stamped && !(0 < m.Sent && m.Sent <= m.Arrival) || !stamped && (m.Sent != 0 || m.Arrival != 0) {
						t.Fatalf("message %d stamped sent %v, arrival %v; want stamps: %v", m.Tag, m.Sent, m.Arrival, stamped)
					}
				}
			})
		}
	}
}

// TestQuietCountsEqualCaptured: a quiet recorder counts each send in its
// actor's own share and folds the shares in when read; a capturing one
// counts every send itself. The same 4-rank chan exchange must read the
// same totals from both, however the sends interleaved.
func TestQuietCountsEqualCaptured(t *testing.T) {
	const procs, each = 4, 50
	run := func(capture bool) *trace.Stats {
		rec := trace.New()
		rec.SetTimeline(capture)
		f, err := NewChan(Config{Procs: procs, Model: model.Zero(), Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < procs; r++ {
			f.SpawnUser(r, func(env Env) {
				for i := 0; i < each; i++ {
					for to := 0; to < procs; to++ {
						if to != r {
							kind := []msg.Kind{msg.KindSend, msg.KindColl}[i%2]
							env.Send(msg.User(to), &msg.Message{Kind: kind, Data: make([]byte, r+to+i%3)})
						}
					}
				}
				for i := 0; i < each*(procs-1); i++ {
					env.Recv(msg.MatchAny)
				}
			})
		}
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	quiet, captured := run(false), run(true)
	if n := len(captured.Timeline()); quiet.Sends() != n || captured.Sends() != n || n != procs*(procs-1)*each {
		t.Fatalf("sends: quiet %d, captured %d, %d events", quiet.Sends(), captured.Sends(), n)
	}
	for _, k := range []msg.Kind{msg.KindSend, msg.KindColl} {
		if quiet.Count(k) != captured.Count(k) {
			t.Errorf("%v: quiet %d, captured %d", k, quiet.Count(k), captured.Count(k))
		}
	}
	if quiet.Bytes() != captured.Bytes() {
		t.Errorf("bytes: quiet %d, captured %d", quiet.Bytes(), captured.Bytes())
	}
}

// never is the predicate of a wait nothing will ever satisfy.
func never() bool { return false }

// listen is the cheapest fabric call that is not a Send: a wait whose
// predicate already holds, which returns without parking.
func listen(env Env) { env.WaitUntil("listen", shmem.Cells{}, func() bool { return true }) }

// wantFault runs f and requires a *pipeline.FaultError of the given kind.
func wantFault(t *testing.T, f Fabric, kind pipeline.FaultKind) *pipeline.FaultError {
	t.Helper()
	var fe *pipeline.FaultError
	if err := f.Run(); !errors.As(err, &fe) {
		t.Fatalf("want *pipeline.FaultError, got %v", err)
	}
	if fe.Kind != kind {
		t.Fatalf("want kind %v, got %v", kind, fe)
	}
	return fe
}

// TestOpDeadlineBoundsUserRecvOnly: a user Recv nothing satisfies is cut
// off at OpDeadline with a rank-attributed op-timeout carrying the recv
// tag, while a server idling in Recv for several deadlines is left alone
// and gets nil at shutdown — on every fabric.
func TestOpDeadlineBoundsUserRecvOnly(t *testing.T) {
	const od = 30 * time.Millisecond
	for name, mk := range fabricsUnderTest(t, Config{Procs: 2, OpDeadline: od}) {
		t.Run(name+"/user", func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			f.SpawnUser(0, func(env Env) {})
			f.SpawnUser(1, func(env Env) { env.Recv(msg.MatchNone) })
			fe := wantFault(t, f, pipeline.FaultOpTimeout)
			if fe.Rank != 1 || fe.Server || fe.Op != "recv@"+msg.User(1).String() {
				t.Fatalf("timeout attributed to %+v, want user rank 1 in its recv", fe)
			}
		})
		t.Run(name+"/server", func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			released := false
			spawnServerBody(f, 0, func(env Env) { released = env.Recv(msg.MatchAny) == nil })
			f.SpawnUser(0, func(env Env) { env.Clock().Sleep(4 * od) })
			f.SpawnUser(1, func(env Env) {})
			if err := f.Run(); err != nil {
				t.Fatalf("idle server tripped the op deadline: %v", err)
			}
			if !released {
				t.Fatal("server Recv did not return nil at shutdown")
			}
		})
	}
}

// TestWaitUntilForOwnsItsBound: the bounded wait reports false at d —
// even past OpDeadline, the recovery decision is the caller's — and
// d <= 0 degrades to WaitUntil, which OpDeadline does police.
func TestWaitUntilForOwnsItsBound(t *testing.T) {
	const od, d = 30 * time.Millisecond, 80 * time.Millisecond
	for name, mk := range fabricsUnderTest(t, Config{Procs: 1, OpDeadline: od}) {
		t.Run(name, func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			satisfied := true
			var took time.Duration
			f.SpawnUser(0, func(env Env) {
				t0 := env.Clock().Now()
				satisfied = env.WaitUntilFor("bounded", shmem.Cells{}, never, d)
				took = env.Clock().Now() - t0
				env.WaitUntilFor("unbounded", shmem.Cells{}, never, 0)
			})
			fe := wantFault(t, f, pipeline.FaultOpTimeout)
			if satisfied || took < d {
				t.Fatalf("WaitUntilFor(%v) = %v after %v, want false at the bound", d, satisfied, took)
			}
			if fe.Rank != 0 || fe.Op != "unbounded" {
				t.Fatalf("timeout attributed to %+v, want rank 0 in the d<=0 wait", fe)
			}
		})
	}
}

// TestCrashGraceBoundsEachWait: after a peer fail-stops, a user that keeps
// completing short waits is never aborted (the data server serves it well
// past the grace), but its first wait wedged for CrashGrace aborts with a
// FaultCrash naming the dead rank — no earlier than the grace and within
// a second after it. The simulator has no grace (a wedged survivor is a
// virtual-time deadlock), so this row is wall-clock only.
func TestCrashGraceBoundsEachWait(t *testing.T) {
	const grace, slack = 100 * time.Millisecond, time.Second
	fabrics := fabricsUnderTest(t, Config{Procs: 2, CrashGrace: grace})
	delete(fabrics, "sim")
	for name, mk := range fabrics {
		t.Run(name, func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			f.SpawnServer(0, func(env Env) Handler {
				return func(m *msg.Message) { env.Send(m.Src, &msg.Message{Kind: msg.KindRmwResp, Token: m.Token}) }
			})
			f.SpawnUser(1, func(env Env) { env.FailStop("test") })
			var wedged time.Time
			f.SpawnUser(0, func(env Env) {
				env.WaitUntil("crash on record", shmem.Cells{}, func() bool { return env.CrashedRank() == 1 })
				for tok, t0 := uint64(0), time.Now(); time.Since(t0) < 2*grace; tok++ {
					env.Send(msg.ServerOf(0), &msg.Message{Kind: msg.KindRmw, Token: tok})
					env.Recv(msg.MatchToken(msg.KindRmwResp, tok))
				}
				wedged = time.Now()
				env.WaitUntil("wedged", shmem.Cells{}, never)
			})
			fe := wantFault(t, f, pipeline.FaultCrash)
			if fe.Rank != 1 || fe.Op != "wedged" {
				t.Fatalf("crash attributed to %+v, want rank 1 at the wedged wait", fe)
			}
			if took := time.Since(wedged); took < grace || took > grace+slack {
				t.Fatalf("wedged wait aborted after %v, want within [%v, %v]", took, grace, grace+slack)
			}
		})
		// A wait the crash finds parked reads no clock at its start (no
		// bound then); it must still abort CrashGrace after the crash, not
		// at once and not a grace after the alert woke it.
		t.Run(name+"/parked before the crash", func(t *testing.T) {
			f, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			var crashed time.Time
			f.SpawnUser(1, func(env Env) {
				env.Clock().Sleep(3 * grace) // rank 0 is long parked by now
				crashed = time.Now()
				env.FailStop("test")
			})
			f.SpawnUser(0, func(env Env) { env.WaitUntil("wedged", shmem.Cells{}, never) })
			fe := wantFault(t, f, pipeline.FaultCrash)
			if fe.Rank != 1 || fe.Op != "wedged" {
				t.Fatalf("crash attributed to %+v, want rank 1 at the wedged wait", fe)
			}
			if took := time.Since(crashed); took < grace || took > grace+slack {
				t.Fatalf("wait parked before the crash aborted %v after it, want within [%v, %v]", took, grace, grace+slack)
			}
		})
	}
}

// TestTCPRunLeavesNoFDs: every socket a TCP run opens — listener, both
// ends of every pair connection — is closed by the time Run returns (or
// moments later, when the reader goroutine holding it unblocks), not left
// to a GC finalizer, and the per-end readers exit:
// after a clean run and after one that failed with frames still buffered.
func TestTCPRunLeavesNoFDs(t *testing.T) {
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no fd table to count: %v", err)
		}
		return len(ents)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // finalizers must not hide a leak
	beforeG := runtime.NumGoroutine()
	runTCPRing(t) // the runtime's own descriptors (netpoller) exist from here on
	before := countFDs()
	for i := 0; i < 8; i++ {
		runTCPRing(t)
		runTCPFailsWhileCorked(t) // a pair torn down with frames still in its buffer
	}
	after := countFDs()
	for wait := time.Now(); after > before && time.Since(wait) < 2*time.Second; after = countFDs() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("16 TCP runs leaked %d descriptors (%d -> %d)", after-before, before, after)
	}
	if afterG := settledGoroutines(beforeG); afterG > beforeG {
		t.Fatalf("17 TCP runs leaked %d goroutines (%d -> %d)", afterG-beforeG, beforeG, afterG)
	}
}

// settledGoroutines returns the goroutine count once it is back at or
// below want, giving up after 2 s: readers and waiters exit moments after
// Run returns.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for wait := time.Now(); n > want && time.Since(wait) < 2*time.Second; n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// dialedPairs counts the connections a finished TCP run opened, not their
// ends: each has two, one per direction.
func dialedPairs(f *TCPFabric) int {
	l := f.link.(*tcpLink)
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ends) / 2
}

// runTCPRing runs a 4-rank token ring, two ranks and one idle server per
// node, on a fresh TCP fabric and returns the finished fabric.
func runTCPRing(t *testing.T) *TCPFabric {
	f, err := NewTCP(Config{Procs: 4, ProcsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		f.SpawnServer(n, func(Env) Handler { return func(*msg.Message) {} })
	}
	for r := 0; r < 4; r++ {
		f.SpawnUser(r, func(env Env) {
			for i := 0; i < 10; i++ {
				env.Send(msg.User((env.Rank()+1)%4), &msg.Message{Kind: msg.KindSend, Tag: i})
				env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User((env.Rank()+3)%4), i))
			}
		})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTCPDialsOnlyPairsThatTalk: connections are per unordered pair of
// endpoints and opened on the pair's first frame only, so a 4-rank ring with
// two idle servers opens 4 of them — not one per endpoint, not the mesh —
// and a request with its reply opens one, which carries both.
func TestTCPDialsOnlyPairsThatTalk(t *testing.T) {
	if got := dialedPairs(runTCPRing(t)); got != 4 {
		t.Fatalf("a 4-rank ring opened %d connections, want 4", got)
	}
	f, _ := newTCPPair(t)
	f.SpawnUser(0, func(env Env) {
		env.Send(msg.User(1), &msg.Message{Kind: msg.KindSend})
		env.Recv(msg.MatchSrcTag(msg.KindSend, msg.User(1), 0))
	})
	f.SpawnUser(1, func(env Env) {
		env.Recv(tagged(0))
		env.Send(msg.User(0), &msg.Message{Kind: msg.KindSend})
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if got := dialedPairs(f); got != 1 {
		t.Fatalf("a request and its reply opened %d connections, want 1", got)
	}
}

// TestTCPPerPairFIFOAcrossConnections: three senders stream to one
// receiver over three separate connections whose readers file into the
// one mailbox concurrently; each source's frames still arrive in exactly
// the order it sent them.
func TestTCPPerPairFIFOAcrossConnections(t *testing.T) {
	const senders, frames = 3, 1000
	f, err := NewTCP(Config{Procs: senders + 1})
	if err != nil {
		t.Fatal(err)
	}
	var order string
	f.SpawnUser(0, func(env Env) {
		next := make(map[msg.Addr]int)
		for i := 0; i < senders*frames; i++ {
			m := env.Recv(msg.MatchKind(msg.KindSend))
			if m.Tag != next[m.Src] && order == "" {
				order = fmt.Sprintf("frame %d from %v arrived where %d was due", m.Tag, m.Src, next[m.Src])
			}
			next[m.Src]++
		}
	})
	for r := 1; r <= senders; r++ {
		f.SpawnUser(r, func(env Env) {
			for i := 0; i < frames; i++ {
				env.Send(msg.User(0), &msg.Message{Kind: msg.KindSend, Tag: i, Data: make([]byte, i%97)})
			}
		})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if order != "" {
		t.Fatal(order)
	}
	if got := dialedPairs(f); got != senders {
		t.Fatalf("%d senders opened %d connections", senders, got)
	}
}

// closeCount is a connection that counts the calls of its Close.
type closeCount struct {
	net.Conn
	n atomic.Int32
}

func (c *closeCount) Close() error {
	c.n.Add(1)
	return c.Conn.Close()
}

// TestTCPCorruptFramesFailRunOnceAndLeakNothing: more connections than the
// failure channel has room for, each opened and registered as a pair's
// first frame opens it, carry a corrupt frame written on one of their real
// ends. Run fails with one of the reports, and every reader — also those
// whose report nobody will read — exits and closes its end, on top of
// down's close of it.
func TestTCPCorruptFramesFailRunOnceAndLeakNothing(t *testing.T) {
	beforeG := runtime.NumGoroutine()
	f, err := NewTCP(Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := f.link.(*tcpLink)
	release := make(chan struct{})
	var ends []*closeCount
	var openErr error
	f.SpawnUser(0, func(env Env) {
		// Open them all before corrupting any: the first report fails Run,
		// which closes the listener. The peers are hosted by nobody.
		l.mu.Lock()
		for i := 0; i < cap(f.panics)+8 && openErr == nil; i++ {
			var a, b net.Conn
			if a, b, openErr = l.connect(); openErr == nil {
				ca, cb := &closeCount{Conn: a}, &closeCount{Conn: b}
				peer := msg.User(100 + i)
				l.end(msg.User(1), peer, ca)
				l.end(peer, msg.User(1), cb)
				ends = append(ends, ca, cb)
			}
		}
		l.mu.Unlock()
		for i := 0; i < len(ends); i += 2 {
			ends[i].Write([]byte{3, 0, 0, 0, 0xff, 0xff, 0xff}) // read by the peer's reader
		}
		<-release
	})
	f.SpawnUser(1, func(Env) { <-release })
	err = f.Run()
	close(release)
	if openErr != nil {
		t.Fatal(openErr)
	}
	if err == nil || !strings.Contains(err.Error(), "corrupt frame") {
		t.Fatalf("Run returned %v, want a corrupt-frame failure", err)
	}
	if afterG := settledGoroutines(beforeG); afterG > beforeG {
		t.Fatalf("%d reader goroutines leaked (%d -> %d)", afterG-beforeG, beforeG, afterG)
	}
	// down closed every end once; its reader, once it exited, again.
	for i, c := range ends {
		if n := c.n.Load(); n != 2 {
			t.Errorf("end %d was closed %d times, want 2: by down and by its reader", i, n)
		}
	}
}

// TestProcCorruptFramesNeverBlockTheReader: the pair reader reports a
// corrupt frame into the proc fabric, perhaps after Run has returned and
// stopped draining, and ends the connection — the frame behind it is never
// delivered. More corrupt connections than the report channel has slots
// must be dropped, not park a reader forever.
func TestProcCorruptFramesNeverBlockTheReader(t *testing.T) {
	f, err := NewProc(Config{Procs: 2, ProcsPerNode: 1},
		cluster.WorkerEnv{Node: 0, Procs: 2, ProcsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream := []byte{0, 0, 0, 0, 3, 0, 0, 0, 0xff, 0xff, 0xff} // an empty hello, then a corrupt frame
	stream = append(stream, wire.AppendEncode(nil, &msg.Message{Kind: msg.KindSend, Src: msg.User(1), Dst: msg.User(0), Seq: 1})...)
	var delivered atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < cap(f.panics)+2; i++ {
			cluster.ServePair(io.NopCloser(bytes.NewReader(stream)), func([]byte) bool { return true },
				func(*msg.Message) { delivered.Add(1) }, f.proc.onCorrupt)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the reader blocked on a full report channel with nobody draining it")
	}
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d frames behind a corrupt one were delivered", n)
	}
	if len(f.panics) != cap(f.panics) {
		t.Fatalf("%d of %d report slots used: the corrupt frames were not reported", len(f.panics), cap(f.panics))
	}
}
