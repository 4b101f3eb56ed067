package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"

	"threadscan/internal/obs"
)

// smokeFactor shrinks every workload to 1/20 of its benchmark length.
const smokeFactor = 1.0 / 20

// smokeSession runs sub-seed 0 of w once untraced and once traced.
func smokeSession(t *testing.T, w workloadDef, seed int64) *session {
	t.Helper()
	s := newSession(w, seed, smokeFactor)
	s.run(0, obs.NewRecorder())
	s.run(0, obs.NewTraceRecorder())
	if s.failed != 0 {
		t.Fatalf("%s: %d of %d runs failed: %v", w.name, s.failed, s.tried, s.reasons)
	}
	return s
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked
// against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestNamesMatchBenchmarkJSON runs every workload briefly and checks
// that the workloads and metrics the code emits are exactly those
// BENCHMARK.json declares, with the same units.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}

	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	var emitted []string
	for _, w := range workloads {
		emitted = append(emitted, w.name)
	}
	sameNames(t, "workloads", declared, emitted)

	for _, w := range workloads {
		s := smokeSession(t, w, 1)
		e2e := endToEndMetrics(s.firstReps(), s.reps, []float64{1})
		perLayer := layerMetrics(s.firstReps(), s.reps, s.traced)
		perLayer = append(perLayer, shareMetrics(nil, 0)...)
		for _, m := range micros {
			perLayer = append(perLayer, metric{name: m.name, unit: m.unit})
		}
		sameMetrics(t, w.name+" end_to_end", decl.EndToEnd, e2e)
		sameMetrics(t, w.name+" per_layer", decl.PerLayer, perLayer)
	}
}

func sameNames(t *testing.T, what string, declared, emitted []string) {
	t.Helper()
	for _, n := range emitted {
		if !validName.MatchString(n) {
			t.Errorf("%s: invalid name %q", what, n)
		}
	}
	if !slices.Equal(declared, emitted) {
		t.Fatalf("%s: BENCHMARK.json declares %v, code emits %v", what, declared, emitted)
	}
}

func sameMetrics(t *testing.T, what string, declared []struct{ Name, Unit string }, emitted []metric) {
	t.Helper()
	var dn, en []string
	for _, d := range declared {
		dn = append(dn, d.Name+" ["+d.Unit+"]")
	}
	for _, m := range emitted {
		if m.unit == "" || !validName.MatchString(m.name) {
			t.Errorf("%s: metric %q has an invalid name or no unit", what, m.name)
		}
		en = append(en, m.name+" ["+m.unit+"]")
	}
	if !slices.Equal(dn, en) {
		t.Fatalf("%s: BENCHMARK.json declares\n%v\ncode emits\n%v", what, dn, en)
	}
}

func TestSeedChangesTraceHash(t *testing.T) {
	w := workloads[0]
	a := smokeSession(t, w, 1).reps[0].res.TraceHash
	b := smokeSession(t, w, 2).reps[0].res.TraceHash
	if a == b {
		t.Fatalf("seeds 1 and 2 share trace hash %x", a)
	}
}

func TestGateTripsOnRepMismatch(t *testing.T) {
	s := smokeSession(t, workloads[0], 1)
	bad := s.reps[0]
	bad.res.TraceHash++
	s.admit(bad, false)
	if s.failed != 1 {
		t.Fatalf("a rep with a different trace hash passed the gate (%d failures)", s.failed)
	}
	traced := s.traced[0]
	traced.res.Sim.Dispatches++
	s.admit(traced, true)
	if s.failed != 2 {
		t.Fatalf("a traced rep with different virtual results passed the gate (%d failures)", s.failed)
	}
}

// TestLayerSharesSumToOne profiles a short run and checks that layer
// attribution accounts for every sample.
func TestLayerSharesSumToOne(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	s := newSession(workloads[0], 1, 0.2)
	s.run(0, obs.NewTraceRecorder())
	pprof.StopCPUProfile()
	if s.failed != 0 {
		t.Fatal(s.reasons)
	}
	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("profile holds no samples")
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("layer shares sum to %v: %v", sum, shares)
	}
	if shares["simt"] == 0 {
		t.Fatalf("no samples attributed to simt: %v", shares)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"threadscan/internal/simt.(*Thread).Load":               "simt",
		"threadscan/internal/harness.RunScenarioRecorded.func1": "harness",
		"threadscan/internal/lint/analysis.Run":                 "",
		"runtime.mallocgc":                                      "",
		"main.run":                                              "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
