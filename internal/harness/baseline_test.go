package harness

import (
	"encoding/json"
	"os"
	"testing"

	"threadscan/internal/workload"
)

// replayMode is one way of running a captured baseline row: a subtest
// name suffix ("" for none), the run itself, and optional extra checks
// on its result.
type replayMode struct {
	name  string
	run   func(spec workload.Scenario) (ScenarioResult, error)
	check func(t *testing.T, r ScenarioResult)
}

// replayBaseline replays the named (scenario, ds, scheme) rows of
// BENCH_baseline.json (the repo-root capture of `tsbench scenarios
// -seed 1 -json`) once per mode, each as a parallel subtest, and
// demands bit-identical ops, elapsed cycles, trace hash and final size.
func replayBaseline(t *testing.T, rows [][3]string, modes ...replayMode) {
	t.Helper()
	if testing.Short() {
		t.Skip("baseline replay skipped in -short")
	}
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Skipf("no captured baseline: %v", err)
	}
	var baseline []struct {
		Scenario      string `json:"scenario"`
		DS            string `json:"ds"`
		Scheme        string `json:"scheme"`
		Ops           uint64 `json:"ops"`
		ElapsedCycles int64  `json:"elapsed_cycles"`
		TraceHash     uint64 `json:"trace_hash"`
		FinalSize     int    `json:"final_size"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parse baseline: %v", err)
	}
	want := make(map[[3]string]bool, len(rows))
	for _, r := range rows {
		want[r] = true
	}
	replayed := 0
	for _, b := range baseline {
		if !want[[3]string{b.Scenario, b.DS, b.Scheme}] {
			continue
		}
		replayed++
		for _, m := range modes {
			name := b.Scenario + "/" + b.DS + "/" + b.Scheme
			if m.name != "" {
				name += "/" + m.name
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				spec, ok := workload.ByName(b.Scenario)
				if !ok {
					t.Fatalf("baseline names unknown scenario %q", b.Scenario)
				}
				spec.DS, spec.Scheme, spec.Seed = b.DS, b.Scheme, 1
				r, err := m.run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if r.Ops != b.Ops || r.ElapsedCycles != b.ElapsedCycles ||
					r.TraceHash != b.TraceHash || r.FinalSize != b.FinalSize {
					t.Errorf("diverged from captured baseline:\n  ops %d != %d\n  cycles %d != %d\n  trace %x != %x\n  final %d != %d",
						r.Ops, b.Ops, r.ElapsedCycles, b.ElapsedCycles,
						r.TraceHash, b.TraceHash, r.FinalSize, b.FinalSize)
				}
				if m.check != nil {
					m.check(t, r)
				}
			})
		}
	}
	if replayed != len(want) {
		t.Fatalf("replayed %d of %d baseline rows — regenerate BENCH_baseline.json?", replayed, len(want))
	}
}
