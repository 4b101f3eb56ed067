package harness

import (
	"encoding/json"
	"os"
	"testing"

	"threadscan/internal/workload"
)

// TestFlatModelMatchesCapturedBaseline: Nodes=1 (every pre-existing
// scenario) must reproduce the captured suite's virtual-cycle results
// bit-identically — the topology refactor's safety contract.  The
// golden file is BENCH_baseline.json at the repo root, regenerated
// with `tsbench scenarios -seed 1 -json BENCH_baseline.json`.
func TestFlatModelMatchesCapturedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline replay skipped in -short")
	}
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Skipf("no captured baseline: %v", err)
	}
	var baseline []struct {
		Scenario      string  `json:"scenario"`
		DS            string  `json:"ds"`
		Scheme        string  `json:"scheme"`
		Ops           uint64  `json:"ops"`
		ElapsedCycles int64   `json:"elapsed_cycles"`
		TraceHash     uint64  `json:"trace_hash"`
		FinalSize     int     `json:"final_size"`
		Throughput    float64 `json:"throughput_ops_per_vsec"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parse baseline: %v", err)
	}

	// Replay a cross-section of the grid: one flat scenario per family
	// against distinct structures and schemes, plus a multi-node row —
	// Nodes > 1 with per-node routing *disabled* must also stay
	// bit-identical, the per-node refactor's safety contract.  The two
	// extra list rows walk the list under snips racing collects and
	// under signals to descheduled walkers.  (CI replays the full grid
	// in its test job; this keeps `go test` minutes-free.)
	want := map[[3]string]bool{
		{"uniform-baseline", "list", "threadscan"}: true,
		{"delete-storm", "list", "threadscan"}:     true,
		{"oversubscribed", "list", "epoch"}:        true,
		{"delete-storm", "stack", "epoch"}:         true,
		{"thread-churn", "queue", "threadscan"}:    true,
		{"numa-split", "stack", "threadscan"}:      true,
	}
	replayed := 0
	for _, b := range baseline {
		if !want[[3]string{b.Scenario, b.DS, b.Scheme}] {
			continue
		}
		replayed++
		b := b
		t.Run(b.Scenario+"/"+b.DS+"/"+b.Scheme, func(t *testing.T) {
			t.Parallel()
			spec, ok := workload.ByName(b.Scenario)
			if !ok {
				t.Fatalf("baseline names unknown scenario %q", b.Scenario)
			}
			spec.DS, spec.Scheme, spec.Seed = b.DS, b.Scheme, 1
			r, err := RunScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.Ops != b.Ops || r.ElapsedCycles != b.ElapsedCycles ||
				r.TraceHash != b.TraceHash || r.FinalSize != b.FinalSize {
				t.Errorf("diverged from captured baseline:\n  ops %d != %d\n  cycles %d != %d\n  trace %x != %x\n  final %d != %d",
					r.Ops, b.Ops, r.ElapsedCycles, b.ElapsedCycles,
					r.TraceHash, b.TraceHash, r.FinalSize, b.FinalSize)
			}
		})
	}
	if replayed != len(want) {
		t.Fatalf("replayed %d of %d baseline rows — regenerate BENCH_baseline.json?", replayed, len(want))
	}
}

// TestNUMAAffinityBeatsRoundRobin (the A6 claim): on the numa-split
// scenario, affinity-first claiming must reduce both remote shard
// claims and remote line fills versus round-robin, without giving up
// throughput.
func TestNUMAAffinityBeatsRoundRobin(t *testing.T) {
	if testing.Short() {
		t.Skip("NUMA ablation skipped in -short")
	}
	run := func(claim string) ScenarioResult {
		spec, ok := workload.ByName("numa-split")
		if !ok {
			t.Fatal("numa-split builtin missing")
		}
		spec = spec.Scale(0.5)
		spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 1
		spec.ClaimPolicy = claim
		r, err := RunScenario(spec)
		if err != nil {
			t.Fatalf("claim %s: %v", claim, err)
		}
		return r
	}
	aff := run("affinity")
	rr := run("rr")
	if aff.Core.RemoteShardClaims >= rr.Core.RemoteShardClaims {
		t.Errorf("affinity remote claims %d, round-robin %d — affinity should claim less remotely",
			aff.Core.RemoteShardClaims, rr.Core.RemoteShardClaims)
	}
	if aff.Sim.RemoteLineFills >= rr.Sim.RemoteLineFills {
		t.Errorf("affinity remote fills %d, round-robin %d — affinity should fill less remotely",
			aff.Sim.RemoteLineFills, rr.Sim.RemoteLineFills)
	}
	if aff.Throughput < 0.95*rr.Throughput {
		t.Errorf("affinity throughput %.0f below round-robin %.0f", aff.Throughput, rr.Throughput)
	}
	// Both runs reclaim everything they retired (the policy moves
	// work, never drops it).
	for name, r := range map[string]ScenarioResult{"affinity": aff, "rr": rr} {
		if r.SchemeStats.Retired != r.SchemeStats.Freed+r.SchemeStats.Pending {
			t.Errorf("%s: retired %d != freed %d + pending %d",
				name, r.SchemeStats.Retired, r.SchemeStats.Freed, r.SchemeStats.Pending)
		}
	}
}

// TestScenarioPinPolicies: the engine pins workers (and churn
// workers) per policy, runs them to completion, and reports topology
// in the result.
func TestScenarioPinPolicies(t *testing.T) {
	for _, pin := range []string{"none", "rr", "split"} {
		spec := workload.Scenario{
			Name: "pin-" + pin, DS: "stack", Scheme: "threadscan",
			Threads: 4, Cores: 4, Nodes: 2, PinPolicy: pin,
			KeyRange: 256, Prefill: 64, Seed: 3,
			Phases: []workload.Phase{{Duration: 400_000,
				Mix: workload.Mix{InsertPct: 30, RemovePct: 30}}},
			Churn: &workload.Churn{Workers: 1, Generations: 1},
		}
		r, err := RunScenario(spec)
		if err != nil {
			t.Fatalf("pin %s: %v", pin, err)
		}
		if r.Nodes != 2 || r.PinPolicy != pin {
			t.Fatalf("pin %s: result topology %d/%q", pin, r.Nodes, r.PinPolicy)
		}
		if r.Ops == 0 || r.ChurnWorkers != 1 {
			t.Fatalf("pin %s: ops %d churned %d", pin, r.Ops, r.ChurnWorkers)
		}
	}
}

// TestWorkerMixRoles: a producer/consumer WorkerMix actually skews
// per-role op streams — with producers-only inserting, the structure
// grows well past what a uniform mix leaves behind.
func TestWorkerMixRoles(t *testing.T) {
	base := workload.Scenario{
		Name: "roles", DS: "stack", Scheme: "leaky",
		Threads: 4, Cores: 4,
		KeyRange: 256, Prefill: 0, Seed: 5,
		Phases: []workload.Phase{{Duration: 400_000,
			Mix: workload.Mix{InsertPct: 10, RemovePct: 10}}},
	}
	uniform, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	roles := base
	roles.WorkerMix = []workload.Mix{
		{InsertPct: 90, RemovePct: 0},
		{InsertPct: 0, RemovePct: 20},
	}
	skewed, err := RunScenario(roles)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.FinalSize <= uniform.FinalSize {
		t.Fatalf("producer-heavy roles left size %d, uniform left %d — WorkerMix had no effect",
			skewed.FinalSize, uniform.FinalSize)
	}
}
