package harness

import (
	"math"
	"testing"

	"threadscan/internal/obs"
	"threadscan/internal/workload"
)

func findSeries(t *testing.T, series []obs.Series, name string) obs.Series {
	t.Helper()
	for _, s := range series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q missing (have %d series)", name, len(series))
	return obs.Series{}
}

func maxValue(s obs.Series) float64 {
	var mx float64
	for _, p := range s.Points {
		if p.V > mx {
			mx = p.V
		}
	}
	return mx
}

// TestMetricsOffIsBitIdentical: the metrics engine's safety contract.
// Replaying the captured baseline with full metrics sampling enabled
// (every registered series ticking on the footprint cadence) must
// reproduce every virtual-cycle result bit-identically: samplers read
// state on clock advance but never charge cycles, so the schedule —
// and therefore ops, elapsed cycles, trace hash, and final size —
// cannot move.  Only host-side memory differs.
func TestMetricsOffIsBitIdentical(t *testing.T) {
	replayBaseline(t, [][3]string{
		{"uniform-baseline", "list", "threadscan"},
		{"delete-storm", "stack", "epoch"},
		{"thread-churn", "queue", "threadscan"},
		{"numa-split", "stack", "threadscan"},
	}, replayMode{
		run: func(spec workload.Scenario) (ScenarioResult, error) {
			spec.MetricsEvery = -1 // full sampling on the footprint cadence
			return RunScenarioRecorded(spec, obs.NewRecorder())
		},
		check: func(t *testing.T, r ScenarioResult) {
			if len(r.Metrics) == 0 {
				t.Error("metrics were requested but no series came back — test proves nothing")
			}
		},
	})
}

// TestFootprintSeriesReconciles: the footprint's pushed series and the
// scheme's exact running peak must tell one consistent story.
func TestFootprintSeriesReconciles(t *testing.T) {
	spec, ok := workload.ByName("per-node-reclaim")
	if !ok {
		t.Fatal("per-node-reclaim builtin missing")
	}
	spec = spec.Scale(0.25)
	spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 1
	spec.MetricsEvery = -1
	res, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	garb := findSeries(t, res.Metrics, "footprint_garbage_nodes")
	live := findSeries(t, res.Metrics, "footprint_live_words")
	if len(garb.Points) == 0 {
		t.Fatal("footprint series has no points")
	}

	// Both series are sampled together: same length, same timestamps.
	if len(garb.Points) != len(live.Points) {
		t.Fatalf("sample count mismatch: %d garbage vs %d live points", len(garb.Points), len(live.Points))
	}
	for i := range garb.Points {
		if garb.Points[i].At != live.Points[i].At {
			t.Fatalf("sample %d timestamp mismatch: %d vs %d", i, garb.Points[i].At, live.Points[i].At)
		}
	}
	fp := res.Footprint
	if got := uint64(maxValue(live)); got != fp.PeakLiveWords {
		t.Errorf("live series max %d != peak live words %d", got, fp.PeakLiveWords)
	}
	if last := garb.Points[len(garb.Points)-1]; uint64(last.V) != fp.FinalRetiredNodes {
		t.Errorf("final sample %.0f != final retired nodes %d", last.V, fp.FinalRetiredNodes)
	}
	if fp.PeakRetiredWords != fp.PeakRetiredNodes*uint64(fp.NodeWords) {
		t.Errorf("peak retired words %d != nodes %d * %d",
			fp.PeakRetiredWords, fp.PeakRetiredNodes, fp.NodeWords)
	}

	// The sampled peak is the series maximum, and the exact scheme-side
	// peak reconciles with it through the recorded undercount.
	if got := uint64(maxValue(garb)); got != fp.PeakRetiredNodes {
		t.Errorf("series max %d != sampled peak %d", got, fp.PeakRetiredNodes)
	}
	if fp.ExactPeakRetiredNodes < fp.PeakRetiredNodes {
		t.Errorf("exact peak %d below sampled peak %d — exact tracking broken",
			fp.ExactPeakRetiredNodes, fp.PeakRetiredNodes)
	}
	if want := fp.ExactPeakRetiredNodes - fp.PeakRetiredNodes; fp.PeakUndercountNodes != want {
		t.Errorf("undercount %d != exact %d - sampled %d",
			fp.PeakUndercountNodes, fp.ExactPeakRetiredNodes, fp.PeakRetiredNodes)
	}
}

// TestMetricsSeriesPresent mirrors the CI smoke: a traced
// per-node-reclaim run must emit non-empty timelines for the named
// series the exported-metrics contract promises.
func TestMetricsSeriesPresent(t *testing.T) {
	spec, ok := workload.ByName("per-node-reclaim")
	if !ok {
		t.Fatal("per-node-reclaim builtin missing")
	}
	spec = spec.Scale(0.25)
	spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 1
	spec.MetricsEvery = -1
	res, err := RunScenarioRecorded(spec, obs.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	named := []string{
		"ops", "throughput", "garbage_nodes", "op_p99",
		"remote_line_fills", "steals", "footprint_garbage_nodes",
	}
	nonEmpty := 0
	for _, s := range res.Metrics {
		if len(s.Points) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 6 {
		t.Errorf("only %d non-empty series (want >= 6)", nonEmpty)
	}
	for _, name := range named {
		if s := findSeries(t, res.Metrics, name); len(s.Points) == 0 {
			t.Errorf("series %q is empty", name)
		}
	}
	// Throughput's steady digest should be a sane ops-per-window level.
	tp := findSeries(t, res.Metrics, "throughput")
	if tp.SteadyMean <= 0 {
		t.Errorf("throughput steady mean %.2f, want > 0", tp.SteadyMean)
	}
}

// TestRobustContrastOverTime is A10's bounded-garbage contrast read
// off the timelines instead of scalar peaks: pin a scanner for 6M
// cycles on stalled-scanner and watch the garbage series.  Hyaline's
// per-batch reference counting keeps reclaiming while the scanner is
// out, so its timeline plateaus at its bound and stays flat; epoch
// and threadscan gate reclamation on the stalled thread, so their
// garbage keeps climbing until the stall ends.
//
// The slope window [2.5M, 7.4M] starts after every scheme's warmup
// ramp has plateaued and ends before the post-stall collect collapses
// the growers' series back toward zero.
func TestRobustContrastOverTime(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme stall runs skipped in -short")
	}
	const winLo, winHi = 2_500_000, 7_400_000
	type shape struct {
		slope float64 // per million cycles over the stall window
		max   float64
	}
	shapes := map[string]shape{}
	for _, scheme := range []string{"epoch", "threadscan", "hyaline"} {
		spec, ok := workload.ByName("stalled-scanner")
		if !ok {
			t.Fatal("stalled-scanner builtin missing")
		}
		spec.DS, spec.Scheme, spec.Seed = "list", scheme, 1
		spec.StallCycles = 6_000_000
		spec.MetricsEvery = -1
		res, err := RunScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		garb := findSeries(t, res.Metrics, "garbage_nodes")
		w := garb.Window(winLo, winHi)
		if len(w) < 10 {
			t.Fatalf("%s: only %d points in the stall window — cadence changed?", scheme, len(w))
		}
		shapes[scheme] = shape{
			slope: obs.Series{Points: w}.Slope(),
			max:   maxValue(garb),
		}
		t.Logf("%-10s stall-window slope %+.1f/Mcyc, peak %.0f", scheme, shapes[scheme].slope, shapes[scheme].max)
	}
	// Hyaline: flat at its bound (measured slope is exactly 0; allow
	// slack for future scheduling shifts).
	if s := shapes["hyaline"]; math.Abs(s.slope) > 5 {
		t.Errorf("hyaline garbage slope %+.1f/Mcyc in stall window, want flat (|slope| <= 5)", s.slope)
	}
	for _, grower := range []string{"epoch", "threadscan"} {
		g := shapes[grower]
		// Garbage keeps accumulating while the scanner is stalled
		// (measured slopes are +47 to +58 per Mcyc).
		if g.slope < 10 {
			t.Errorf("%s garbage slope %+.1f/Mcyc in stall window, want clearly positive (>= 10)", grower, g.slope)
		}
		// And the stall-end peak dwarfs hyaline's bound (measured
		// ratios are 3.1x and 3.7x).
		if g.max < 2*shapes["hyaline"].max {
			t.Errorf("%s peak garbage %.0f not >= 2x hyaline bound %.0f", grower, g.max, shapes["hyaline"].max)
		}
	}
}
