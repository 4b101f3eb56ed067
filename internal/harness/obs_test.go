package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"threadscan/internal/obs"
	"threadscan/internal/workload"
)

// TestObservabilityOffIsBitIdentical: the observability layer's safety
// contract.  Replaying the captured baseline with recording disabled
// (nil recorder) AND with full span tracing must both reproduce every
// virtual-cycle result bit-identically — the recorder never charges
// cycles, so only host-side memory differs.
func TestObservabilityOffIsBitIdentical(t *testing.T) {
	latency := func(t *testing.T, r ScenarioResult) {
		if r.Latency == nil {
			t.Error("Latency summary missing")
		}
	}
	recorded := func(mk func() *obs.Recorder) func(workload.Scenario) (ScenarioResult, error) {
		return func(spec workload.Scenario) (ScenarioResult, error) { return RunScenarioRecorded(spec, mk()) }
	}
	replayBaseline(t, [][3]string{
		{"uniform-baseline", "list", "threadscan"},
		{"delete-storm", "stack", "epoch"},
		{"thread-churn", "queue", "threadscan"},
		{"numa-split", "stack", "threadscan"},
	},
		replayMode{"disabled", recorded(func() *obs.Recorder { return nil }), latency},
		replayMode{"tracing", recorded(obs.NewTraceRecorder), latency})
}

// TestChurnedThreadsMergeOnce: SpawnFrom-churned workers record into
// the same recorder as persistent workers; every op observed exactly
// once (no loss, no double count), proven by the histogram count
// matching the engine's own op total.
func TestChurnedThreadsMergeOnce(t *testing.T) {
	spec, ok := workload.ByName("thread-churn")
	if !ok {
		t.Fatal("thread-churn builtin missing")
	}
	spec = spec.Scale(0.25)
	spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 1
	rec := obs.NewRecorder()
	res, err := RunScenarioRecorded(spec, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnWorkers == 0 {
		t.Fatal("scenario churned no workers — test proves nothing")
	}
	if got := rec.StageCount(obs.StageOp); got != int64(res.Ops) {
		t.Errorf("recorder op count %d != engine ops %d (churned threads lost or double-counted)",
			got, res.Ops)
	}
	if res.Latency.Op.Count != int64(res.Ops) {
		t.Errorf("summary op count %d != engine ops %d", res.Latency.Op.Count, res.Ops)
	}
	if res.Latency.Op.P50 <= 0 || res.Latency.Op.P999 < res.Latency.Op.P50 {
		t.Errorf("implausible op quantiles: %+v", res.Latency.Op)
	}
}

// TestTraceCoversLifecycle: a traced numa-split run must contain at
// least one complete span for every collect-lifecycle stage the
// acceptance criteria name.
func TestTraceCoversLifecycle(t *testing.T) {
	spec, ok := workload.ByName("numa-split")
	if !ok {
		t.Fatal("numa-split builtin missing")
	}
	spec = spec.Scale(0.5)
	spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 1
	rec := obs.NewTraceRecorder()
	res, err := RunScenarioRecorded(spec, rec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runs := []obs.TraceRun{{Label: "numa-split stack/threadscan", Rec: rec}}
	for _, pw := range res.Scenario.PhaseWindows() {
		runs[0].Windows = append(runs[0].Windows, obs.Window{
			Name: pw.Name, Start: res.MeasuredStart + pw.Start, End: res.MeasuredStart + pw.End})
	}
	if err := obs.WriteChromeTrace(&buf, runs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans[e.Name]++
		}
	}
	for _, stage := range []string{"signal", "scan", "handshake-wait", "sort", "sweep", "free"} {
		if spans[stage] == 0 {
			t.Errorf("trace has no %q span (spans present: %v)", stage, spans)
		}
	}
	if spans["ferry"] == 0 {
		t.Errorf("trace has no phase window row (spans present: %v)", spans)
	}
}
