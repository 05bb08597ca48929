package bench

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"armci"
	"armci/internal/msg"
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
	at := func(key string) map[int]float64 { // the column, by process count
		col := map[int]float64{}
		for i := range res.Rows {
			col[res.Cell(i, "procs").(int)] = res.Float(i, key)
		}
		return col
	}
	// Figure 8(b): below 1 at one process, above 1 from 2 on.
	factor := at("factor")
	if f := factor[1]; f >= 1 {
		t.Fatalf("single-process factor %.2f, want < 1 (the CAS penalty)", f)
	}
	for _, n := range []int{2, 4, 8, 16} {
		if f := factor[n]; f <= 1 {
			t.Fatalf("N=%d factor %.2f, want > 1", n, f)
		}
	}
	if f := factor[8]; f < 1.1 || f > 2.2 {
		t.Fatalf("N=8 factor %.2f outside the paper-shaped band (paper: 1.25)", f)
	}
	// Figure 9: the new lock always acquires faster.
	curAcq, newAcq := at("cur_acquire_us"), at("new_acquire_us")
	for _, n := range []int{1, 2, 4, 8, 16} {
		if newAcq[n] >= curAcq[n] {
			t.Fatalf("N=%d: new acquire %.1f not below current %.1f", n, newAcq[n], curAcq[n])
		}
	}
	// Figure 10: the new release is slower at low contention (CAS) and
	// the gap shrinks as waiters appear.
	curRel, newRel := at("cur_release_us"), at("new_release_us")
	if newRel[1] <= curRel[1] {
		t.Fatal("uncontended new release should pay the CAS round trip")
	}
	if gap1, gap16 := newRel[1]-curRel[1], newRel[16]-curRel[16]; gap16 >= gap1 {
		t.Fatalf("release gap should shrink with contention: %.1f at 1, %.1f at 16", gap1, gap16)
	}
}

// TestCrossoverMatchesAnalysis: §3.1.2 predicts the original AllFence
// wins when fewer than log2(N)/2 servers were written to. At N=16 that
// threshold is 2. At K = 0 nothing is outstanding anywhere, so the new
// barrier ends after its all-reduce.
func TestCrossoverMatchesAnalysis(t *testing.T) {
	res, err := Crossover(CrossoverOpts{Opts: fastOpts(), Procs: 16, KValues: []int{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Float(1, "new_us") // K = 1
	for i := range res.Rows {
		k, oldUS, newUS := res.Cell(i, "targets").(int), res.Float(i, "old_us"), res.Float(i, "new_us")
		if oldWins, wantOldWins := oldUS < newUS, k < 2; oldWins != wantOldWins {
			t.Fatalf("K=%d: old=%.1f new=%.1f — crossover off the log2(N)/2 prediction", k, oldUS, newUS)
		}
		// Once anything is outstanding, the new barrier's cost must not
		// depend on K at all.
		if k >= 1 && math.Abs(newUS-base) > base*0.05 {
			t.Fatalf("new barrier cost varies with K: %.1f vs %.1f", newUS, base)
		}
	}
	if k0 := res.Float(0, "new_us"); k0 >= base {
		t.Fatalf("K=0: new barrier %.1f us, want below the K=1 cost %.1f: it has nothing to fence", k0, base)
	}
	coll, _, err := syncMessages(16, 0, false, msg.KindColl)
	if err != nil {
		t.Fatal(err)
	}
	if coll != 16*4 {
		t.Fatalf("K=0: new barrier sent %d collective messages, want the all-reduce's N*log2(N)=64", coll)
	}
}

// TestMessageCountFormulas: exact message complexity, the analytical core
// of §3.1.
func TestMessageCountFormulas(t *testing.T) {
	res, err := MessageCounts([]int{2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		n := res.Cell(i, "procs").(int)
		cell := func(key string) int { return res.Cell(i, key).(int) }
		if cell("old_fence_reqs") != n*(n-1) || cell("exp_fence_reqs") != n*(n-1) {
			t.Fatalf("N=%d: old fence requests %d, want N(N-1)=%d", n, cell("old_fence_reqs"), n*(n-1))
		}
		logN := 0
		for 1<<logN < n {
			logN++
		}
		if cell("new_coll") != 2*n*logN || cell("exp_coll") != 2*n*logN {
			t.Fatalf("N=%d: new collective messages %d, want 2N*log2(N)=%d", n, cell("new_coll"), 2*n*logN)
		}
		// The new barrier must send no fence traffic at all; its total
		// is exactly the collective messages.
		if cell("new_total") != cell("new_coll") {
			t.Fatalf("N=%d: new barrier sent %d extra non-collective messages", n, cell("new_total")-cell("new_coll"))
		}
		// With nothing outstanding the new barrier is its all-reduce.
		if cell("empty_coll") != n*logN {
			t.Fatalf("N=%d: empty barrier sent %d collective messages, want N*log2(N)=%d", n, cell("empty_coll"), n*logN)
		}
	}
}

// A process count that is not a power of two is left out of the table
// and named in a note.
func TestCountSyncMessagesRejectsNonPow2(t *testing.T) {
	res, err := MessageCounts([]int{6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || len(res.Notes) != 1 || !strings.Contains(res.Notes[0], "N=6") {
		t.Fatalf("non-power-of-two accepted: rows %v, notes %q", res.Rows, res.Notes)
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
	aUS, bUS := map[string]float64{}, map[string]float64{}
	for i := range res.Rows {
		name := res.Cell(i, "name").(string)
		aUS[name], bUS[name] = res.Float(i, "a_us"), res.Float(i, "b_us")
		if aUS[name] <= 0 || bUS[name] <= 0 {
			t.Fatalf("%s: non-positive times %v", name, res.Rows[i])
		}
	}
	// Pipelining the fence round trips must help, and per-put acks must
	// beat explicit confirmations for the old sync.
	if n := "allfence round trips"; bUS[n] >= aUS[n] {
		t.Fatalf("pipelined allfence (%.1f) not faster than serialized (%.1f)", bUS[n], aUS[n])
	}
	if n := "fence mode"; bUS[n] >= aUS[n] {
		t.Fatalf("ack-mode sync (%.1f) not faster than request-mode (%.1f)", bUS[n], aUS[n])
	}
	// The strided tile transfer must beat one put per row.
	if n := "tile transfer"; aUS[n] >= bUS[n] {
		t.Fatalf("strided put (%.1f) not faster than per-row puts (%.1f)", aUS[n], bUS[n])
	}
	// Co-locating contenders must help the queuing lock (local hand-offs).
	if n := "queue lock on SMP"; aUS[n] >= bUS[n] {
		t.Fatalf("co-located queue lock (%.1f) not faster than spread (%.1f)", aUS[n], bUS[n])
	}
	// The NIC agent must cut the uncontended release cost (§5).
	if n := "NIC-assisted atomics"; bUS[n] >= aUS[n] {
		t.Fatalf("NIC-served release (%.1f) not faster than host-served (%.1f)", bUS[n], aUS[n])
	}
}

// TestFormatters pins the one text renderer, the one CSV renderer and the
// metric expansion on a hand-made table with every feature — a grid
// section, a layout section, a text-only column, a left-aligned one, a
// cell that needs quoting, a note — and the registry's dispatch: every
// name and alias selects its row, and nothing else does.
func TestFormatters(t *testing.T) {
	tab := &Table{
		Cols: []Col{
			{Key: "spec", Head: "spec", Width: -8},
			usCol("t_us", "time (us)", "x/{}/us"),
			{Key: "n", Head: "n", Width: 4, Metric: "x/{}/n", Unit: "sends"},
			{Key: "best", Head: "best", Width: 5, TextOnly: true},
		},
		Rows: [][]any{{"a,b", 1.25, 7, "yes"}, {"c", 10.0, 12, "no"}},
		Sections: []Section{
			{Title: "Grid", Cols: "spec t_us best"},
			{Title: "Lines", Cols: "n spec", Layout: "%d of %s"},
		},
		Notes: []string{"a note"},
	}
	wantText := "Grid\nspec          time (us)  best\na,b                 1.2   yes\nc                  10.0    no\n" +
		"\nLines\n7 of a,b\n12 of c\na note\n"
	if got := tab.Text(); got != wantText {
		t.Errorf("text:\n%q\nwant\n%q", got, wantText)
	}
	if got, want := tab.CSV(), "spec,t_us,n\n\"a,b\",1.250,7\nc,10.000,12\n"; got != want {
		t.Errorf("csv:\n%q\nwant\n%q", got, want)
	}
	var metrics []string
	tab.Metrics(func(name string, v float64, unit string) {
		metrics = append(metrics, fmt.Sprintf("%s=%v %s", name, v, unit))
	})
	if want := []string{"x/a,b/us=1.25 us", "x/c/us=10 us", "x/a,b/n=7 sends", "x/c/n=12 sends"}; !slices.Equal(metrics, want) {
		t.Errorf("metrics %q, want %q", metrics, want)
	}

	seen := map[string]bool{}
	for i := range Experiments {
		e := &Experiments[i]
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			if Find(name) != e {
				t.Errorf("-fig %s does not dispatch to the %s row", name, e.Name)
			}
			if seen[name] {
				t.Errorf("-fig %s is claimed by two rows", name)
			}
			seen[name] = true
		}
	}
	if got := FigNames(); len(got) != len(seen) {
		t.Errorf("FigNames() = %v, want the %d names and aliases of the registry", got, len(seen))
	}
	if Find("all") != nil || Find("") != nil || Find("fig7") != nil {
		t.Error("Find accepts a name no row carries")
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
	last := len(res.Rows) - 1
	if res.Cell(0, "locks") != 1 || res.Cell(last, "locks") != 8 {
		t.Fatalf("unexpected sweep %v", res.Rows)
	}
	if f := res.Float(0, "factor"); f <= 1 {
		t.Fatalf("hot single lock: queue lock should win (factor %.2f)", f)
	}
	if f := res.Float(last, "factor"); f >= 1 {
		t.Fatalf("8-way striping: hybrid should win the uncontended regime (factor %.2f)", f)
	}
}

// TestSensitivityAcrossNetworks: the combined barrier wins by >4x at 16
// processes under every cost model spanning an order of magnitude of
// latency, with the calibrated Myrinet point the strongest.
func TestSensitivityAcrossNetworks(t *testing.T) {
	res, err := Sensitivity(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	var myrinet float64
	for i := range res.Rows {
		if f := res.Float(i, "factor"); f < 4 {
			t.Fatalf("%v: factor %.2f below 4", res.Cell(i, "model"), f)
		} else if res.Cell(i, "model") == string(armci.PresetMyrinet2000) {
			myrinet = f
		}
	}
	for i := range res.Rows {
		if f := res.Float(i, "factor"); f > myrinet {
			t.Fatalf("%v factor %.2f exceeds the calibrated Myrinet point %.2f", res.Cell(i, "model"), f, myrinet)
		}
	}
}

// TestGoldenTables is the harness's output contract, driven from the
// registry: every experiment, run as `armci-bench -fig <name>` runs it
// at the CLI's defaults, must appear byte for byte in the committed
// results/all-tables.txt (sim virtual times are exactly reproducible),
// and must render a CSV whose header is its column keys with one line
// per row. `make golden` diffs the whole file. A deliberate change
// regenerates the file with
// `go run ./cmd/armci-bench -fig all > results/all-tables.txt`.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-table rendering skipped in -short")
	}
	golden, err := os.ReadFile("../../results/all-tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	// The Crossover-N table moves first when a collective's peer order
	// changes. Its large rows take minutes, so hold the small ones line
	// by line (title, header, rows and the crossover summary, which these
	// three sizes already decide).
	slow := map[string]Args{"crossover-n": {Procs: []int{16, 64, 256}}}
	for _, e := range Experiments {
		args, lineByLine := slow[e.Name]
		tab, err := e.Run(args)
		if err != nil {
			t.Errorf("-fig %s: %v", e.Name, err)
			continue
		}
		text := tab.Text()
		if lineByLine {
			for _, line := range strings.SplitAfter(text, "\n") {
				if !strings.Contains(string(golden), "\n"+line) {
					t.Errorf("-fig %s: line is not in results/all-tables.txt verbatim:\n%s", e.Name, line)
				}
			}
		} else if !strings.Contains("\n\n"+string(golden), "\n\n"+text) {
			t.Errorf("-fig %s is not in results/all-tables.txt verbatim:\n%s", e.Name, text)
		}
		var keys []string
		for _, c := range tab.Cols {
			if !c.TextOnly {
				keys = append(keys, c.Key)
			}
		}
		lines := strings.Split(strings.TrimSuffix(tab.CSV(), "\n"), "\n")
		if lines[0] != strings.Join(keys, ",") || len(lines) != 1+len(tab.Rows) || len(tab.Rows) == 0 {
			t.Errorf("-fig %s: CSV is not its %d rows under its column keys %v:\n%s", e.Name, len(tab.Rows), keys, tab.CSV())
		}
	}
}
