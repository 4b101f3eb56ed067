package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestDisabledMetricsAllocateNothing mirrors the recorder's zero-alloc
// pin: a nil or zero-value engine must make every hot call a guarded
// no-op that allocates nothing and accumulates nothing.
func TestDisabledMetricsAllocateNothing(t *testing.T) {
	var nilM *Metrics
	for name, m := range map[string]*Metrics{"nil": nilM, "zero": new(Metrics)} {
		m := m
		t.Run(name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				m.Tick(1000)
				m.sample(1000)
				m.Finish(1000)
				m.Counter("c", nil)
				m.Gauge("g", nil)
				m.Rate("r", nil)
				m.Quantile("q", 0.5, nil)
				m.Series()
			})
			if allocs != 0 {
				t.Errorf("disabled metrics allocated %.0f times per run, want 0", allocs)
			}
			if m != nil && (m.nextAt != 0 || len(m.counters) != 0 || len(m.gauges) != 0) {
				t.Errorf("disabled metrics accumulated state: %+v", m)
			}
		})
	}
}

// TestTickQuantizesBoundaries: samples land at exact interval
// boundaries regardless of how the clock jumps, one row per crossed
// boundary, none before the first; Finish adds one last row stamped at
// its own time.
func TestTickQuantizesBoundaries(t *testing.T) {
	m := NewMetrics(100)
	var v uint64
	m.Counter("c", func() uint64 { return v })
	m.Tick(99) // below first boundary: nothing
	if n := len(m.Series()[0].Points); n != 0 {
		t.Fatalf("sampled %d rows before first boundary", n)
	}
	v = 7
	m.Tick(100) // lands exactly on a boundary
	v = 50
	m.Tick(460) // jumps across three boundaries at once
	v = 60
	m.Finish(470)
	s := m.Series()[0]
	wantAt := []int64{100, 200, 300, 400, 470}
	wantV := []float64{7, 50, 50, 50, 60}
	if len(s.Points) != len(wantAt) {
		t.Fatalf("points = %v", s.Points)
	}
	for i, p := range s.Points {
		if p.At != wantAt[i] || p.V != wantV[i] {
			t.Errorf("point %d = %+v, want {%d %g}", i, p, wantAt[i], wantV[i])
		}
	}
}

// TestRateAndLatestDelta: rates store per-window deltas against a
// registration-time baseline, and the newest rate point agrees with the
// counter view's newest delta.
func TestRateAndLatestDelta(t *testing.T) {
	m := NewMetrics(10)
	var v uint64 = 100 // nonzero at registration: rate baselines here
	read := func() uint64 { return v }
	m.Counter("total", read)
	m.Rate("rate", read)
	v = 130
	m.Tick(10)
	v = 175
	m.Tick(20)
	total, rate := m.Series()[0], m.Series()[1]
	if rate.Points[0].V != 30 || rate.Points[1].V != 45 {
		t.Errorf("rate points = %+v, want [30 45]", rate.Points)
	}
	if d := total.Deltas(); len(d) != 1 || d[0] != rate.Points[1] {
		t.Errorf("counter deltas = %+v, want the newest rate point %+v", d, rate.Points[1])
	}
}

// TestWindowedQuantiles: each sample digests only the window's
// observations — a slow first window must not drag up a fast second
// window's p99, and an empty window reports zero.
func TestWindowedQuantiles(t *testing.T) {
	m := NewMetrics(100)
	h := NewHist()
	m.Quantile("p99", 0.99, func(into *Hist) {
		into.Reset()
		into.Merge(h)
	})
	for i := 0; i < 100; i++ {
		h.Observe(10_000) // slow window
	}
	m.Tick(100)
	for i := 0; i < 100; i++ {
		h.Observe(10) // fast window
	}
	m.Tick(200)
	m.Tick(300) // empty window
	pts := m.Series()[0].Points
	if pts[0].V < 9000 {
		t.Errorf("slow window p99 = %g, want ~10000", pts[0].V)
	}
	if pts[1].V > 100 {
		t.Errorf("fast window p99 = %g: cumulative histogram leaked into the window", pts[1].V)
	}
	if pts[2].V != 0 {
		t.Errorf("empty window p99 = %g, want 0", pts[2].V)
	}
}

// TestDeltaQuantileMatchesDirect: the bucket-wise delta quantile must
// agree with observing the window's values into a fresh histogram.
func TestDeltaQuantileMatchesDirect(t *testing.T) {
	var prev, cur, direct Hist
	for i := int64(1); i <= 1000; i += 3 {
		prev.Observe(i)
		cur.Observe(i)
	}
	for i := int64(500); i < 2000; i += 7 {
		cur.Observe(i)
		direct.Observe(i)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := deltaQuantile(&cur, &prev, q), direct.Quantile(q)
		if got != want {
			t.Errorf("deltaQuantile(%g) = %d, direct = %d", q, got, want)
		}
	}
	if got := deltaQuantile(&prev, &prev, 0.5); got != 0 {
		t.Errorf("empty delta quantile = %d, want 0", got)
	}
}

// TestHistReset: a reset histogram is indistinguishable from a fresh
// one.
func TestHistReset(t *testing.T) {
	h := NewHist()
	for i := int64(0); i < 100; i++ {
		h.Observe(i * 13)
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Errorf("reset histogram not empty: n=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
}

// TestSeriesAnalysis: Deltas, Window, Mean, Slope, and the steady
// digest (counters judged on deltas, gauges on levels).
func TestSeriesAnalysis(t *testing.T) {
	lin := Series{Name: "g", Kind: SeriesGauge.String()}
	for i := int64(0); i < 10; i++ {
		// V = 2 per Mcycle slope: at every 1e6 cycles, value climbs 2.
		lin.Points = append(lin.Points, Point{i * 1_000_000, float64(2 * i)})
	}
	if got := lin.Slope(); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope = %g, want 2", got)
	}
	if got := lin.Mean(); got != 9 {
		t.Errorf("mean = %g, want 9", got)
	}
	if w := lin.Window(2_000_000, 5_000_000); len(w) != 3 || w[0].V != 4 {
		t.Errorf("window = %+v", w)
	}
	st := lin.Steady()
	if math.Abs(st.Slope-2) > 1e-9 || st.Points != 5 {
		t.Errorf("steady = %+v", st)
	}

	// A counter growing by a constant 5 per window is steady: delta
	// mean 5, delta slope 0.
	ctr := Series{Name: "c", Kind: SeriesCounter.String()}
	for i := int64(0); i < 10; i++ {
		ctr.Points = append(ctr.Points, Point{i * 1000, float64(5 * i)})
	}
	d := ctr.Deltas()
	if len(d) != 9 || d[0].V != 5 || d[0].At != 1000 {
		t.Errorf("deltas = %+v", d)
	}
	st = ctr.Steady()
	if st.Mean != 5 || math.Abs(st.Slope) > 1e-9 {
		t.Errorf("counter steady = %+v, want mean 5 slope 0", st)
	}
	if (Series{}).Slope() != 0 || len((Series{}).Deltas()) != 0 {
		t.Error("empty series analysis not zero")
	}
}

func testCells() []MetricsCell {
	mk := func(scale float64) []Series {
		m := NewMetrics(10)
		var v uint64
		m.Counter("retired", func() uint64 { return v })
		m.Gauge("garbage", func() float64 { return float64(v) / 2 * scale })
		for i := 1; i <= 8; i++ {
			v += uint64(100 * scale)
			m.Tick(int64(i) * 10)
		}
		return m.Series()
	}
	return []MetricsCell{
		{Scenario: "s1", DS: "stack", Scheme: "threadscan", Series: mk(1)},
		{Scenario: "s1", DS: "stack", Scheme: "epoch", Series: mk(2)},
	}
}

// TestMetricsJSONRoundTrip: Write → Read is lossless.
func TestMetricsJSONRoundTrip(t *testing.T) {
	cells := testCells()
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, cells); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMetricsJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(cells)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Errorf("round trip diverged:\n%s\n%s", a, b)
	}
	if _, err := ReadMetricsJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage input parsed")
	}
}

// TestMetricsCSV: long format, one row per point, header first.
func TestMetricsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, testCells()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "scenario,ds,scheme,series,kind,at_cycles,value" {
		t.Errorf("header = %q", lines[0])
	}
	if want := 1 + 2*2*8; len(lines) != want {
		t.Errorf("csv rows = %d, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[1], "s1,stack,threadscan,retired,counter,10,") {
		t.Errorf("first row = %q", lines[1])
	}
}

// TestDiffMetrics: self-compare is clean; a perturbed steady window is
// flagged; tolerance, the noise floor, and missing cells/series all
// behave as documented.
func TestDiffMetrics(t *testing.T) {
	cells := testCells()
	if d := DiffMetrics(cells, cells, 0.01); len(d) != 0 {
		t.Fatalf("self-compare drifted: %+v", d)
	}

	// Perturb one cell's series by 2x: both its series must be flagged
	// against the original, and the shift must name the worst first.
	perturbed := testCells()
	perturbed[1] = MetricsCell{Scenario: "s1", DS: "stack", Scheme: "epoch",
		Series: testCells()[0].Series} // epoch now looks like threadscan: halved
	drifts := DiffMetrics(cells, perturbed, 0.10)
	if len(drifts) != 2 {
		t.Fatalf("drifts = %+v, want 2", drifts)
	}
	for _, d := range drifts {
		if d.Cell != "s1 stack/epoch" || d.Reason != "steady-mean" {
			t.Errorf("unexpected drift %+v", d)
		}
		if d.Shift < 0.4 {
			t.Errorf("2x perturbation reported shift %g", d.Shift)
		}
	}
	// The same perturbation passes under a generous-enough tolerance.
	if d := DiffMetrics(cells, perturbed, 0.8); len(d) != 0 {
		t.Errorf("tolerance 0.8 still flagged: %+v", d)
	}

	// Sub-noise-floor series are never compared.
	tiny := []MetricsCell{{Scenario: "s", DS: "d", Scheme: "x",
		Series: []Series{{Name: "idle", Kind: "gauge", SteadyMean: 0.2}}}}
	tiny2 := []MetricsCell{{Scenario: "s", DS: "d", Scheme: "x",
		Series: []Series{{Name: "idle", Kind: "gauge", SteadyMean: 0.8}}}}
	if d := DiffMetrics(tiny, tiny2, 0.01); len(d) != 0 {
		t.Errorf("noise-floor series flagged: %+v", d)
	}

	// Missing series and missing cells are drifts; extra ones are not.
	if d := DiffMetrics(cells, cells[:1], 0.1); len(d) != 1 || d[0].Reason != "missing-cell" {
		t.Errorf("missing cell: %+v", d)
	}
	fewer := testCells()
	fewer[0].Series = fewer[0].Series[:1]
	if d := DiffMetrics(cells, fewer, 0.1); len(d) != 1 || d[0].Reason != "missing-series" {
		t.Errorf("missing series: %+v", d)
	}
	if d := DiffMetrics(fewer, cells, 0.1); len(d) != 0 {
		t.Errorf("extra series flagged: %+v", d)
	}

	var buf bytes.Buffer
	if err := WriteDriftTable(&buf, drifts); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cell", "steady-mean", "s1 stack/epoch"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("drift table missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWriteTimeline: the sparkline report renders every series (or a
// filtered subset) with the steady digest.
func TestWriteTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, testCells(), ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"s1 stack/threadscan", "s1 stack/epoch", "retired", "garbage", "steady", "▁"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteTimeline(&buf, testCells(), "garbage"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "retired") {
		t.Errorf("filter leaked non-matching series:\n%s", buf.String())
	}
}

// TestSparkline: scaling, flat series, and downsampling.
func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{0, 1, 2, 3}, 48); got != "▁▃▅█" {
		t.Errorf("ramp = %q", got)
	}
	if got := sparkline([]float64{5, 5, 5}, 48); got != "▁▁▁" {
		t.Errorf("flat = %q", got)
	}
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	if got := sparkline(long, 10); len([]rune(got)) != 10 {
		t.Errorf("downsampled width = %d, want 10", len([]rune(got)))
	}
	if sparkline(nil, 10) != "" {
		t.Error("empty sparkline not empty")
	}
}

// TestMergeStageInto: the non-allocating aggregation agrees with
// StageHist, and the guard holds for nil/disabled recorders.
func TestMergeStageInto(t *testing.T) {
	r := NewRecorder()
	r.observe(StageOp, 100)
	r.observe(StageOp, 2000)
	var h Hist
	r.MergeStageInto(StageOp, &h)
	want := r.StageHist(StageOp)
	if h.Count() != 2 || h.Count() != want.Count() || h.Quantile(0.99) != want.Quantile(0.99) {
		t.Errorf("MergeStageInto diverged from StageHist: n=%d vs %d", h.Count(), want.Count())
	}
	var h2 Hist
	var nilRec *Recorder
	nilRec.MergeStageInto(StageOp, &h2)
	new(Recorder).MergeStageInto(StageOp, &h2)
	if h2.Count() != 0 {
		t.Errorf("disabled MergeStageInto merged %d observations", h2.Count())
	}
}

// TestSeriesKindString covers the kind names the exporters embed.
func TestSeriesKindString(t *testing.T) {
	for k, want := range map[SeriesKind]string{
		SeriesCounter: "counter", SeriesGauge: "gauge",
		SeriesRate: "rate", SeriesQuantile: "quantile",
		numSeriesKinds: "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("kind %d = %q, want %q", k, got, want)
		}
	}
}
