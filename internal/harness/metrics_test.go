package harness

import (
	"math"
	"strings"
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
// Samplers read state on clock advance but never charge cycles, so
// replaying the captured cells with every series sampled far more
// densely than the manifest's default cadence must reproduce ops,
// elapsed cycles, trace hash and final size bit-identically: the run
// behaves as if metrics were off.  Only the number of points differs.
func TestMetricsOffIsBitIdentical(t *testing.T) {
	const denseEvery = 10_000
	replayBaseline(t, [][3]string{
		{"uniform-baseline", "list", "threadscan"},
		{"delete-storm", "stack", "epoch"},
		{"thread-churn", "queue", "threadscan"},
		{"numa-split", "stack", "threadscan"},
	}, replayMode{
		run: func(spec workload.Scenario) (ScenarioResult, error) {
			spec.SampleEvery = denseEvery
			return RunScenario(spec)
		},
		check: func(t *testing.T, r ScenarioResult) {
			// The default cadence takes 64 in-run samples plus the
			// post-teardown row; a dense run that took no more proves
			// nothing about sampling cost.
			if n := len(findSeries(t, r.Metrics, "garbage_nodes").Points); n <= 65 {
				t.Errorf("dense cadence took only %d samples", n)
			}
		},
	})
}

// TestFootprintSeriesReconciles: the metrics engine is the run's one
// sampler.  Every exported series shares one time axis, the footprint
// peaks are the maxima of the garbage_nodes and live_words series, and
// the scheme's exact running peak reconciles with the sampled one
// through the recorded undercount.
func TestFootprintSeriesReconciles(t *testing.T) {
	spec, ok := workload.ByName("per-node-reclaim")
	if !ok {
		t.Fatal("per-node-reclaim builtin missing")
	}
	spec = spec.Scale(0.25)
	spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 1
	res, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	garb := findSeries(t, res.Metrics, "garbage_nodes")
	live := findSeries(t, res.Metrics, "live_words")
	if len(garb.Points) == 0 {
		t.Fatal("garbage series has no points")
	}

	// One sampler, one time axis: every series (the windowed op
	// quantiles included) has a point at each of garbage_nodes' times.
	findSeries(t, res.Metrics, "op_p99")
	for _, s := range res.Metrics {
		if strings.HasPrefix(s.Name, "footprint_") {
			t.Errorf("second footprint series %q exported", s.Name)
		}
		if len(s.Points) != len(garb.Points) {
			t.Errorf("%s: %d points, garbage_nodes has %d", s.Name, len(s.Points), len(garb.Points))
			continue
		}
		for i := range s.Points {
			if s.Points[i].At != garb.Points[i].At {
				t.Errorf("%s: point %d at %d, garbage_nodes at %d", s.Name, i, s.Points[i].At, garb.Points[i].At)
				break
			}
		}
	}

	fp := res.Footprint
	if got := uint64(maxValue(live)); got != fp.PeakLiveWords {
		t.Errorf("live series max %d != peak live words %d", got, fp.PeakLiveWords)
	}
	if got := uint64(maxValue(garb)); got != fp.PeakRetiredNodes {
		t.Errorf("garbage series max %d != sampled peak %d", got, fp.PeakRetiredNodes)
	}
	if last := garb.Points[len(garb.Points)-1]; uint64(last.V) != fp.FinalRetiredNodes {
		t.Errorf("final sample %.0f != final retired nodes %d", last.V, fp.FinalRetiredNodes)
	}
	if fp.PeakRetiredWords != fp.PeakRetiredNodes*uint64(fp.NodeWords) {
		t.Errorf("peak retired words %d != nodes %d * %d",
			fp.PeakRetiredWords, fp.PeakRetiredNodes, fp.NodeWords)
	}
	if fp.ExactPeakRetiredNodes != res.SchemeStats.PeakRetired {
		t.Errorf("exact peak %d != scheme running peak %d", fp.ExactPeakRetiredNodes, res.SchemeStats.PeakRetired)
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
	res, err := RunScenarioRecorded(spec, obs.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	named := []string{
		"ops", "throughput", "garbage_nodes", "op_p99",
		"remote_line_fills", "steals", "live_words",
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
