package bench

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"armci"
)

// fastOpts keeps harness tests quick; the simulator is deterministic so
// few repetitions lose nothing.
func fastOpts() Opts {
	return Opts{Fabric: armci.FabricSim, Preset: armci.PresetMyrinet2000, Reps: 3, Warmup: 1}
}

// TestRunnerLaps pins the one measured loop every experiment goes
// through: warm-up steps run but are not recorded, the k-th lap of a
// step lands in column k in rank-then-repetition order, a rank that
// never loops adds no samples, and a failed run's error comes back as
// armci.Run reported it.
func TestRunnerLaps(t *testing.T) {
	o := Opts{Fabric: armci.FabricSim, Preset: armci.PresetMyrinet2000, Warmup: 2}
	steps := make([]int, 3)
	l, err := o.run(armci.Options{Procs: 3}, 2, func(p *armci.Proc, l *laps) {
		me := p.Rank()
		if me == 2 {
			return
		}
		l.loop(p, func(rep int, lap func(func())) {
			steps[me]++
			// Each lap sleeps a virtual time naming its rank, step and lap.
			nap := func(k int) func() {
				return func() { p.Env().Clock().Sleep(time.Duration(100*(me+1)+10*rep+k) * time.Microsecond) }
			}
			lap(nap(1))
			lap(nap(2))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(steps, []int{4, 4, 0}) {
		t.Fatalf("steps per rank = %v, want warmup+reps = 4 on the looping ranks", steps)
	}
	if got, want := l.col(0), []float64{121, 131, 221, 231}; !slices.Equal(got, want) {
		t.Fatalf("lap 0 = %v, want %v (timed steps only, rank then repetition)", got, want)
	}
	if got, want := l.col(1), []float64{122, 132, 222, 232}; !slices.Equal(got, want) {
		t.Fatalf("lap 1 = %v, want %v", got, want)
	}
	if got := l.col(2); got != nil {
		t.Fatalf("lap 2 = %v, want no samples", got)
	}
	if got := mean(l.col(0)); got != 176 {
		t.Fatalf("mean lap 0 = %v, want 176: the idle rank must not dilute it", got)
	}

	_, want := armci.Run(armci.Options{Procs: 2, Preset: o.Preset}, func(*armci.Proc) { panic("boom") })
	got, err := o.meanLap(armci.Options{Procs: 2}, 1, func(*armci.Proc, *laps) { panic("boom") })
	if want == nil || err == nil || err.Error() != want.Error() || got != 0 {
		t.Fatalf("failed run returned (%v, %v), want (0, %v) with no added context", got, err, want)
	}
}

// TestFig7ReproducesPaperShape pins the headline result: the combined
// barrier beats the original GA_Sync with a factor that grows with the
// process count, reaching the paper's 9x neighborhood (1724.3 µs vs
// 190.3 µs at 16 processes on the real cluster).
func TestFig7ReproducesPaperShape(t *testing.T) {
	res, err := Fig7(Fig7Opts{Opts: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prev := 0.0
	for _, row := range res.Rows {
		if row.Factor <= 1 {
			t.Fatalf("N=%d: new implementation not faster (factor %.2f)", row.Procs, row.Factor)
		}
		if row.Factor <= prev {
			t.Fatalf("factor not growing with N: %+v", res.Rows)
		}
		prev = row.Factor
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Procs != 16 {
		t.Fatalf("last row is N=%d", last.Procs)
	}
	if last.Factor < 6 || last.Factor > 14 {
		t.Fatalf("factor at 16 procs = %.2f, want the paper's ~9 (band 6..14)", last.Factor)
	}
	if last.NewUS < 100 || last.NewUS > 320 {
		t.Fatalf("new GA_Sync at 16 = %.1f us, want near the paper's 190 us", last.NewUS)
	}
	if last.OldUS < 1100 || last.OldUS > 2600 {
		t.Fatalf("old GA_Sync at 16 = %.1f us, want near the paper's 1724 us", last.OldUS)
	}
}

// TestFig7Deterministic: identical sweeps give identical virtual times.
func TestFig7Deterministic(t *testing.T) {
	run := func() []Fig7Row {
		res, err := Fig7(Fig7Opts{Opts: fastOpts(), ProcCounts: []int{4, 8}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %+v vs %+v", a[i], b[i])
		}
	}
}

// TestLockReproducesPaperShape pins Figures 8-10: the queuing lock loses
// uncontended (the release compare&swap round trip), wins under
// contention, and the acquire/release split behaves as published.
func TestLockReproducesPaperShape(t *testing.T) {
	res, err := Lock(LockOpts{Opts: fastOpts(), Iters: 60})
	if err != nil {
		t.Fatal(err)
	}
	byProcs := map[int]LockRow{}
	for _, row := range res.Rows {
		byProcs[row.Procs] = row
	}
	// Figure 8(b): below 1 at one process, above 1 from 2 on.
	if f := byProcs[1].Factor; f >= 1 {
		t.Fatalf("single-process factor %.2f, want < 1 (the CAS penalty)", f)
	}
	for _, n := range []int{2, 4, 8, 16} {
		if f := byProcs[n].Factor; f <= 1 {
			t.Fatalf("N=%d factor %.2f, want > 1", n, f)
		}
	}
	if f := byProcs[8].Factor; f < 1.1 || f > 2.2 {
		t.Fatalf("N=8 factor %.2f outside the paper-shaped band (paper: 1.25)", f)
	}
	// Figure 9: the new lock always acquires faster.
	for _, n := range []int{1, 2, 4, 8, 16} {
		if byProcs[n].New.AcquireUS >= byProcs[n].Current.AcquireUS {
			t.Fatalf("N=%d: new acquire %.1f not below current %.1f",
				n, byProcs[n].New.AcquireUS, byProcs[n].Current.AcquireUS)
		}
	}
	// Figure 10: the new release is slower at low contention (CAS) and
	// the gap shrinks as waiters appear.
	if byProcs[1].New.ReleaseUS <= byProcs[1].Current.ReleaseUS {
		t.Fatal("uncontended new release should pay the CAS round trip")
	}
	gap1 := byProcs[1].New.ReleaseUS - byProcs[1].Current.ReleaseUS
	gap16 := byProcs[16].New.ReleaseUS - byProcs[16].Current.ReleaseUS
	if gap16 >= gap1 {
		t.Fatalf("release gap should shrink with contention: %.1f at 1, %.1f at 16", gap1, gap16)
	}
}

// TestCrossoverMatchesAnalysis: §3.1.2 predicts the original AllFence
// wins when fewer than log2(N)/2 servers were written to. At N=16 that
// threshold is 2.
func TestCrossoverMatchesAnalysis(t *testing.T) {
	res, err := Crossover(CrossoverOpts{Opts: fastOpts(), Procs: 16, KValues: []int{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		oldWins := row.OldUS < row.NewUS
		wantOldWins := row.K < 2
		if oldWins != wantOldWins {
			t.Fatalf("K=%d: old=%.1f new=%.1f — crossover off the log2(N)/2 prediction",
				row.K, row.OldUS, row.NewUS)
		}
	}
	// The new barrier's cost must not depend on K at all.
	base := res.Rows[0].NewUS
	for _, row := range res.Rows {
		if math.Abs(row.NewUS-base) > base*0.05 {
			t.Fatalf("new barrier cost varies with K: %.1f vs %.1f", row.NewUS, base)
		}
	}
}

// TestMessageCountFormulas: exact message complexity, the analytical core
// of §3.1.
func TestMessageCountFormulas(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		c, err := CountSyncMessages(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.OldFenceReqs != n*(n-1) {
			t.Fatalf("N=%d: old fence requests %d, want N(N-1)=%d", n, c.OldFenceReqs, n*(n-1))
		}
		logN := 0
		for 1<<logN < n {
			logN++
		}
		if c.NewColl != 2*n*logN {
			t.Fatalf("N=%d: new collective messages %d, want 2N*log2(N)=%d", n, c.NewColl, 2*n*logN)
		}
		// The new barrier must send no fence traffic at all; its total
		// is exactly the collective messages.
		if c.NewTotal != c.NewColl {
			t.Fatalf("N=%d: new barrier sent %d extra non-collective messages", n, c.NewTotal-c.NewColl)
		}
	}
}

func TestCountSyncMessagesRejectsNonPow2(t *testing.T) {
	if _, err := CountSyncMessages(6); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

// TestAblationsRun: every ablation produces a sensible comparison.
func TestAblationsRun(t *testing.T) {
	res, err := Ablations(AblationOpts{Opts: fastOpts(), Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("%d ablation rows", len(res.Rows))
	}
	rows := map[string]AblationRow{}
	for _, row := range res.Rows {
		if row.AUS <= 0 || row.BUS <= 0 {
			t.Fatalf("%s: non-positive times %+v", row.Name, row)
		}
		rows[row.Name] = row
	}
	// Pipelining the fence round trips must help, and per-put acks must
	// beat explicit confirmations for the old sync.
	if r := rows["allfence round trips"]; r.BUS >= r.AUS {
		t.Fatalf("pipelined allfence (%.1f) not faster than serialized (%.1f)", r.BUS, r.AUS)
	}
	if r := rows["fence mode"]; r.BUS >= r.AUS {
		t.Fatalf("ack-mode sync (%.1f) not faster than request-mode (%.1f)", r.BUS, r.AUS)
	}
	// The strided tile transfer must beat one put per row.
	if r := rows["tile transfer"]; r.AUS >= r.BUS {
		t.Fatalf("strided put (%.1f) not faster than per-row puts (%.1f)", r.AUS, r.BUS)
	}
	// Co-locating contenders must help the queuing lock (local hand-offs).
	if r := rows["queue lock on SMP"]; r.AUS >= r.BUS {
		t.Fatalf("co-located queue lock (%.1f) not faster than spread (%.1f)", r.AUS, r.BUS)
	}
	// The NIC agent must cut the uncontended release cost (§5).
	if r := rows["NIC-assisted atomics"]; r.BUS >= r.AUS {
		t.Fatalf("NIC-served release (%.1f) not faster than host-served (%.1f)", r.BUS, r.AUS)
	}
}

// TestFormatters produce the paper-style tables without choking.
func TestFormatters(t *testing.T) {
	f7, err := Fig7(Fig7Opts{Opts: fastOpts(), ProcCounts: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatFig7(f7); !strings.Contains(s, "Figure 7(a)") || !strings.Contains(s, "factor") {
		t.Fatalf("fig7 table malformed:\n%s", s)
	}
	lk, err := Lock(LockOpts{Opts: fastOpts(), ProcCounts: []int{1, 2}, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := FormatLock(lk)
	for _, want := range []string{"Figure 8(a)", "Figure 8(b)", "Figure 9", "Figure 10"} {
		if !strings.Contains(s, want) {
			t.Fatalf("lock table missing %q:\n%s", want, s)
		}
	}
	cr, err := Crossover(CrossoverOpts{Opts: fastOpts(), Procs: 8, KValues: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatCrossover(cr); !strings.Contains(s, "Crossover") {
		t.Fatalf("crossover table malformed:\n%s", s)
	}
	mc, err := CountSyncMessages(4)
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatMessageCounts([]*MessageCounts{mc}); !strings.Contains(s, "Message complexity") {
		t.Fatalf("counts table malformed:\n%s", s)
	}
}

// TestFig7OnWireFabric: the qualitative result — new never slower than
// old for N >= 4 — holds on the real concurrent fabric in wall time.
// Wall-clock noise on a loaded machine makes tight bands meaningless, so
// only the ordering is asserted, with a retry.
func TestFig7OnWireFabric(t *testing.T) {
	opts := Fig7Opts{
		Opts:       Opts{Fabric: armci.FabricChan, Preset: armci.PresetZero, Reps: 5, Warmup: 2},
		ProcCounts: []int{8},
	}
	ok := false
	for attempt := 0; attempt < 3 && !ok; attempt++ {
		res, err := Fig7(opts)
		if err != nil {
			t.Fatal(err)
		}
		ok = res.Rows[0].NewUS <= res.Rows[0].OldUS*1.2
	}
	if !ok {
		t.Fatal("combined barrier consistently slower than old sync on the wire fabric")
	}
}

// TestStripingShape: the extension experiment's emergent crossover — the
// queuing lock wins on hot (few) locks and loses to the hybrid once
// striping removes contention, generalizing the paper's single-process
// observation (the uncontended release CAS round trip).
func TestStripingShape(t *testing.T) {
	res, err := Striping(StripingOpts{Opts: fastOpts(), Procs: 8, Iters: 60})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.Locks != 1 || last.Locks != 8 {
		t.Fatalf("unexpected sweep %+v", res.Rows)
	}
	if first.ThroughputFactor <= 1 {
		t.Fatalf("hot single lock: queue lock should win (factor %.2f)", first.ThroughputFactor)
	}
	if last.ThroughputFactor >= 1 {
		t.Fatalf("8-way striping: hybrid should win the uncontended regime (factor %.2f)", last.ThroughputFactor)
	}
}

// TestSensitivityAcrossNetworks: the combined barrier wins by >4x at 16
// processes under every cost model spanning an order of magnitude of
// latency, with the calibrated Myrinet point the strongest.
func TestSensitivityAcrossNetworks(t *testing.T) {
	res, err := Sensitivity(SensitivityOpts{Opts: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	var myrinet float64
	for _, row := range res.Rows {
		if row.Factor < 4 {
			t.Fatalf("%s: factor %.2f below 4", row.Preset, row.Factor)
		}
		if row.Preset == armci.PresetMyrinet2000 {
			myrinet = row.Factor
		}
	}
	for _, row := range res.Rows {
		if row.Factor > myrinet {
			t.Fatalf("%s factor %.2f exceeds the calibrated Myrinet point %.2f",
				row.Preset, row.Factor, myrinet)
		}
	}
}

// TestGoldenTables is the harness's output contract: the cheap sections
// of `armci-bench -fig all` and the small rows of its Crossover-N table,
// rendered through the same Format* calls at the CLI's defaults, must
// appear byte for byte in the committed results/all-tables.txt (sim
// virtual times are exactly reproducible). `make golden` diffs the whole
// file. A deliberate change regenerates the file with
// `go run ./cmd/armci-bench -fig all > results/all-tables.txt`.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-table rendering skipped in -short")
	}
	golden, err := os.ReadFile("../../results/all-tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	f7, err := Fig7(Fig7Opts{})
	must(err)
	cr, err := Crossover(CrossoverOpts{})
	must(err)
	var counts []*MessageCounts
	for _, n := range []int{2, 4, 8, 16} {
		c, err := CountSyncMessages(n)
		must(err)
		counts = append(counts, c)
	}
	sp, err := SmallPut(SmallPutOpts{})
	must(err)
	wl, err := Workloads(WorkloadsOpts{})
	must(err)
	for name, got := range map[string]string{
		"fig7":      FormatFig7(f7),
		"crossover": FormatCrossover(cr),
		"counts":    FormatMessageCounts(counts),
		"smallput":  FormatSmallPut(sp),
		"workloads": FormatWorkloads(wl),
	} {
		if !strings.Contains(string(golden), got) {
			t.Errorf("%s section is not in results/all-tables.txt verbatim:\n%s", name, got)
		}
	}
	// The Crossover-N table moves first when a collective's peer order
	// changes. Its large rows take minutes, so hold the small ones line
	// by line (title, header, rows and the crossover summary, which these
	// three sizes already decide).
	cn, err := CrossoverN(CrossoverNOpts{NValues: []int{16, 64, 256}})
	must(err)
	for _, line := range strings.SplitAfter(FormatCrossoverN(cn), "\n") {
		if !strings.Contains(string(golden), "\n"+line) {
			t.Errorf("crossover-n line is not in results/all-tables.txt verbatim:\n%s", line)
		}
	}
}
