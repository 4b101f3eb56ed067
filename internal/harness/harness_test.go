package harness

import (
	"bytes"
	"strings"
	"testing"

	"threadscan/internal/workload"
)

// quickPaper is the paper scenario shrunk for fast unit runs: 2
// virtual ms on 4 cores over a 512-key range.
func quickPaper(dsName, scheme string, threads int) workload.Scenario {
	s := PaperScenario(dsName, SweepParams{Scale: ScaleQuick, Duration: 2_000_000, Seed: 1})
	s.Scheme, s.Threads, s.Cores = scheme, threads, 4
	s.KeyRange, s.Prefill, s.Buckets = 512, 256, 16
	return s
}

func TestRunProducesOps(t *testing.T) {
	r, err := RunScenario(quickPaper("list", "threadscan", 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.Throughput <= 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if r.Core == nil {
		t.Fatal("missing ThreadScan core stats")
	}
	if r.ElapsedCycles < 2_000_000 {
		t.Fatalf("elapsed %d shorter than per-thread budget", r.ElapsedCycles)
	}
}

func TestRunAllCombinations(t *testing.T) {
	for _, dsName := range []string{"list", "hash", "skiplist"} {
		for _, scheme := range []string{"leaky", "hazard", "epoch", "slow-epoch", "threadscan", "stacktrack"} {
			spec := quickPaper(dsName, scheme, 2)
			spec.SlowDelay = 200_000 // scaled-down errant delay
			r, err := RunScenario(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", dsName, scheme, err)
			}
			if r.Ops == 0 {
				t.Fatalf("%s/%s: no ops", dsName, scheme)
			}
			// Reclamation accounting: every scheme but leaky must have
			// freed what it retired once flushed.
			if scheme != "leaky" && r.SchemeStats.Retired != r.SchemeStats.Freed {
				t.Fatalf("%s/%s: retired %d != freed %d",
					dsName, scheme, r.SchemeStats.Retired, r.SchemeStats.Freed)
			}
			if scheme == "leaky" && r.SchemeStats.Retired > 0 && r.SchemeStats.Leaked != r.SchemeStats.Retired {
				t.Fatalf("leaky accounting: %+v", r.SchemeStats)
			}
		}
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	if _, err := RunScenario(quickPaper("btree", "leaky", 1)); err == nil {
		t.Error("unknown ds accepted")
	}
	if _, err := RunScenario(quickPaper("list", "magic", 1)); err == nil {
		t.Error("unknown scheme accepted")
	}
	bad := quickPaper("list", "threadscan", 1)
	bad.Lookup = "btree"
	if _, err := RunScenario(bad); err == nil {
		t.Error("unknown scan lookup accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	a, err := RunScenario(quickPaper("list", "threadscan", 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(quickPaper("list", "threadscan", 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.ElapsedCycles != b.ElapsedCycles || a.TraceHash != b.TraceHash {
		t.Fatalf("non-deterministic: %d/%d/%x vs %d/%d/%x ops/cycles/trace",
			a.Ops, a.ElapsedCycles, a.TraceHash, b.Ops, b.ElapsedCycles, b.TraceHash)
	}
}

func TestOversubscriptionDividesPerThreadWork(t *testing.T) {
	// Duration is a wall-clock window (the paper's methodology): 8
	// threads on 2 cores run for the same elapsed window as 2 threads
	// on 2 cores, but each gets ~1/4 of the CPU, so per-thread ops
	// drop ~4x.
	base := quickPaper("list", "leaky", 2)
	base.Cores = 2
	over := quickPaper("list", "leaky", 8)
	over.Cores = 2
	rb, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := RunScenario(over)
	if err != nil {
		t.Fatal(err)
	}
	elapsedRatio := float64(ro.ElapsedCycles) / float64(rb.ElapsedCycles)
	if elapsedRatio > 1.5 || elapsedRatio < 0.67 {
		t.Fatalf("elapsed should be a fixed window: ratio %.2f", elapsedRatio)
	}
	perBase := float64(rb.Ops) / 2
	perOver := float64(ro.Ops) / 8
	if r := perBase / perOver; r < 2.5 || r > 6.5 {
		t.Fatalf("per-thread ops ratio %.2f, want ~4 (base %d over %d)", r, rb.Ops, ro.Ops)
	}
}

func TestFigureSweepAndRendering(t *testing.T) {
	p := SweepParams{
		Scale:        ScaleQuick,
		ThreadCounts: []int{1, 2},
		Cores:        2,
		Duration:     1_000_000,
		Seed:         7,
	}
	fig, err := RunFig3("list", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(Fig3Schemes) {
		t.Fatalf("series: %d", len(fig.Series))
	}
	var tbl, csvBuf bytes.Buffer
	if err := WriteTable(&tbl, fig); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csvBuf, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "threadscan") {
		t.Fatalf("table missing scheme column:\n%s", tbl.String())
	}
	lines := strings.Count(csvBuf.String(), "\n")
	if lines != 1+len(Fig3Schemes)*2 {
		t.Fatalf("csv rows = %d:\n%s", lines, csvBuf.String())
	}
}

func TestFig4AddsTunedHashVariant(t *testing.T) {
	p := SweepParams{
		Scale:        ScaleQuick,
		ThreadCounts: []int{4},
		Cores:        2,
		Duration:     1_000_000,
		Seed:         3,
	}
	fig, err := RunFig4("hash", p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range fig.Series {
		if s.Name == "threadscan-tuned" {
			found = true
			base := 128 // quick-scale buffer
			if s.Results[0].Scenario.BufferSize != 4*base {
				t.Fatalf("tuned variant buffer = %d, want %d", s.Results[0].Scenario.BufferSize, 4*base)
			}
		}
	}
	if !found {
		t.Fatal("tuned hash variant missing from Figure 4")
	}
}

// ablation returns the named declaration or fails the test.
func ablation(t *testing.T, name string) *Ablation {
	t.Helper()
	a, ok := AblationByName(name)
	if !ok {
		t.Fatalf("ablation %q not registered", name)
	}
	return a
}

// runTweaked expands an ablation, lets tweak adjust every cell, and
// runs the cells.
func runTweaked(t *testing.T, a *Ablation, p AblationParams, tweak func(*workload.Scenario)) []AblationRow {
	t.Helper()
	vs, err := a.Variants(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		tweak(&vs[i].Spec)
	}
	rows, err := runVariants(vs)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestAblationBuffer(t *testing.T) {
	a := ablation(t, "buffer")
	p := AblationParams{SweepParams: SweepParams{Scale: ScaleQuick, Cores: 2, Duration: 1_000_000, Seed: 5},
		Values: []int64{64, 256}}
	rows := runTweaked(t, a, p, func(s *workload.Scenario) { s.Threads = 4 })
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Larger buffers mean fewer collects.
	if rows[1].Result.Core.Collects > rows[0].Result.Core.Collects {
		t.Fatalf("collects did not drop with buffer size: %d -> %d",
			rows[0].Result.Core.Collects, rows[1].Result.Core.Collects)
	}
	var buf bytes.Buffer
	if err := WriteAblationTable(&buf, a, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# A1: ") || !strings.Contains(buf.String(), "\n256 ") {
		t.Fatalf("A1 table:\n%s", buf.String())
	}
}

func TestAblationLookupAgree(t *testing.T) {
	a := ablation(t, "lookup")
	p := AblationParams{SweepParams: SweepParams{Scale: ScaleQuick, Cores: 2, Duration: 1_000_000, Seed: 9}}
	rows := runTweaked(t, a, p, func(s *workload.Scenario) {})
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	// At short windows the three rows can be identical, so nothing but
	// the labels tells a swapped registry entry apart.
	for i, want := range []string{"binary", "linear", "hash"} {
		if got := rows[i].Result.Scenario.Lookup; rows[i].Labels[0] != want || got != want {
			t.Errorf("row %d: label %q runs lookup %q, want %q", i, rows[i].Labels[0], got, want)
		}
	}
	var buf bytes.Buffer
	if err := WriteAblationTable(&buf, a, rows); err != nil {
		t.Fatal(err)
	}
}

func TestAblationStallShowsContrast(t *testing.T) {
	a := ablation(t, "stall")
	p := AblationParams{SweepParams: SweepParams{Scale: ScaleQuick, Cores: 2, Duration: 8_000_000, Seed: 11}}
	rows := runTweaked(t, a, p, func(s *workload.Scenario) {
		s.Threads, s.StallEvery, s.StallCycles = 3, 50, 1_000_000
	})
	var epochWait, tsWait int64
	for _, r := range rows {
		switch r.Labels[0] {
		case "epoch":
			epochWait = r.Result.SchemeStats.GraceWaitCycles
		case "threadscan":
			tsWait = r.Result.SchemeStats.GraceWaitCycles
		}
	}
	if tsWait != 0 {
		t.Fatalf("threadscan reported grace waits: %d", tsWait)
	}
	if epochWait == 0 {
		t.Fatal("epoch reclaimers never waited despite the stalled thread")
	}
	var buf bytes.Buffer
	if err := WriteAblationTable(&buf, a, rows); err != nil {
		t.Fatal(err)
	}
}
