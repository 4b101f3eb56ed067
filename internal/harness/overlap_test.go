package harness

import (
	"testing"

	"threadscan/internal/obs"
	"threadscan/internal/workload"
)

// overlapTestSpec is the per-node-reclaim A9 shape at the given node
// count, scaled to a short window (the ratios stabilize within a few
// collects per node).
func overlapTestSpec(t *testing.T, nodes int) workload.Scenario {
	t.Helper()
	base, ok := workload.ByName("per-node-reclaim")
	if !ok {
		t.Fatal("per-node-reclaim builtin missing")
	}
	base = base.Scale(0.2)
	base.DS = "stack"
	base.Scheme = "threadscan"
	base.Seed = 1
	return overlapScale(base, nodes)
}

// TestOverlapScalingRegression is the A9 acceptance gate: on the
// per-node-reclaim shape with fixed per-node geometry, concurrent
// collects must scale collect throughput by at least 1.7x from one
// node to two and at least 3x from one node to four, while the
// serialized control never overlaps a phase.
func TestOverlapScalingRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("A9 sweep skipped in -short")
	}
	rows, err := ablation(t, "overlap").Run(AblationParams{
		SweepParams: SweepParams{Duration: 10_000_000, Seed: 1},
		Scenarios:   []string{"per-node-reclaim"}, Values: []int64{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Labels are scenario, nodes, mode.
	byKey := map[[2]string]*ScenarioResult{}
	for i := range rows {
		nodes, mode := rows[i].Labels[1], rows[i].Labels[2]
		byKey[[2]string{nodes, mode}] = &rows[i].Result
		c := rows[i].Result.Core
		if mode == "serialized" && c.OverlappedCollects != 0 {
			t.Errorf("serialized run at %s nodes overlapped %d collects — the machine-wide lock leaked",
				nodes, c.OverlappedCollects)
		}
		if mode == "overlapped" && nodes != "1" && c.OverlappedCollects == 0 {
			t.Errorf("overlapped run at %s nodes never overlapped a collect — the sweep proves nothing",
				nodes)
		}
	}
	// At one node PerNode is inert, so both modes are the same classic
	// pipeline — the common scaling baseline.
	s1, o1 := byKey[[2]string{"1", "serialized"}], byKey[[2]string{"1", "overlapped"}]
	if s1.Ops != o1.Ops || s1.ElapsedCycles != o1.ElapsedCycles || s1.TraceHash != o1.TraceHash {
		t.Errorf("single-node serialized and overlapped runs diverged: ops %d/%d cycles %d/%d",
			s1.Ops, o1.Ops, s1.ElapsedCycles, o1.ElapsedCycles)
	}
	base := collectThroughput(o1)
	if base <= 0 {
		t.Fatal("single-node run reclaimed nothing")
	}
	for _, want := range []struct {
		nodes string
		ratio float64
	}{{"2", 1.7}, {"4", 3.0}} {
		got := collectThroughput(byKey[[2]string{want.nodes, "overlapped"}]) / base
		if got < want.ratio {
			t.Errorf("overlapped collect throughput at %s nodes scaled %.2fx over one node, want >= %.1fx",
				want.nodes, got, want.ratio)
		}
	}
}

// TestStealUnderOverlapChaos stresses steal arbitration while collects
// overlap: node 0 retires far past the steal threshold while node 1
// runs its own collects, under the chaos scheduler across seeds.  The
// checked, poisoned heap faults any double free, the per-node collect
// slot panics on double admission, and the accounting must balance —
// every retired node freed exactly once or still pending.  Steals
// never target a node whose own reclaimer is active by construction
// (slot TryLock), so surviving the sweep with both steals and overlaps
// observed is the assertion.
func TestStealUnderOverlapChaos(t *testing.T) {
	base, ok := workload.ByName("numa-skewed-retire")
	if !ok {
		t.Fatal("numa-skewed-retire builtin missing")
	}
	base = base.Scale(0.4)
	base.DS = "stack"
	base.Scheme = "threadscan"
	// Node 1 retires too (unlike the builtin's pure readers), so its
	// own collects run while its threads steal node 0's backlog.
	base.WorkerMix = []workload.Mix{
		{InsertPct: 50, RemovePct: 50},
		{InsertPct: 10, RemovePct: 10},
	}
	base.Chaos = true
	var stole, overlapped uint64
	for seed := int64(1); seed <= 5; seed++ {
		spec := base
		spec.Seed = seed
		r, err := RunScenario(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.AccountingError != "" {
			t.Errorf("seed %d: %s", seed, r.AccountingError)
		}
		if r.LeakedRegistrations != 0 {
			t.Errorf("seed %d: %d leaked registrations", seed, r.LeakedRegistrations)
		}
		s := r.SchemeStats
		if s.Freed+s.Pending != s.Retired {
			t.Errorf("seed %d: free accounting unbalanced: freed %d + pending %d != retired %d",
				seed, s.Freed, s.Pending, s.Retired)
		}
		stole += s.StolenCollects
		overlapped += s.OverlappedCollects
	}
	if stole == 0 {
		t.Error("no seed stole a collect — the sweep never exercised steal-under-overlap")
	}
	if overlapped == 0 {
		t.Error("no seed overlapped collects — the sweep never exercised overlap")
	}
}

// TestOverlapCollectSpansDistinctNodes: the obs acceptance — two
// concurrently in-flight collects must be attributed to their own
// nodes in the trace, with genuinely overlapping time ranges.
func TestOverlapCollectSpansDistinctNodes(t *testing.T) {
	spec := overlapTestSpec(t, 4)
	rec := obs.NewTraceRecorder()
	if _, err := RunScenarioRecorded(spec, rec); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans(obs.StageCollect)
	if len(spans) < 2 {
		t.Fatalf("run produced %d collect spans, need at least 2", len(spans))
	}
	for _, sp := range spans {
		if sp.Node < 0 {
			t.Fatalf("collect span without node attribution: %+v", sp)
		}
	}
	found := false
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.Node != b.Node && a.Start < b.Start+b.Dur && b.Start < a.Start+a.Dur {
				found = true
			}
		}
	}
	if !found {
		t.Error("no two time-overlapping collect spans with distinct nodes — overlap invisible in the trace")
	}
}

// TestOverlapZeroCostReplay: recording overlapped collects (node
// attribution included) charges no virtual cycles — a traced run is
// bit-identical to an untraced one.
func TestOverlapZeroCostReplay(t *testing.T) {
	spec := overlapTestSpec(t, 2)
	bare, err := RunScenarioRecorded(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunScenarioRecorded(spec, obs.NewTraceRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if bare.Ops != traced.Ops || bare.ElapsedCycles != traced.ElapsedCycles ||
		bare.TraceHash != traced.TraceHash || bare.FinalSize != traced.FinalSize {
		t.Errorf("tracing changed the run: ops %d/%d cycles %d/%d trace %x/%x final %d/%d",
			bare.Ops, traced.Ops, bare.ElapsedCycles, traced.ElapsedCycles,
			bare.TraceHash, traced.TraceHash, bare.FinalSize, traced.FinalSize)
	}
	if bare.SchemeStats.OverlappedCollects == 0 {
		t.Error("replay pair never overlapped a collect — zero-cost claim untested on the overlap path")
	}
}
