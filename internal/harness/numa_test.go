package harness

import (
	"testing"

	"threadscan/internal/workload"
)

// TestFlatModelMatchesCapturedBaseline: Nodes=1 (every pre-existing
// scenario) must reproduce the captured suite's virtual-cycle results
// bit-identically — the topology refactor's safety contract.  The
// captured cells are the golden manifest's scenario grid
// (testdata/golden/grid.tsv), rewritten by `tsbench golden -update`.
func TestFlatModelMatchesCapturedBaseline(t *testing.T) {
	// Replay a cross-section of the grid: one flat scenario per family
	// against distinct structures and schemes, plus a multi-node row —
	// Nodes > 1 with per-node routing *disabled* must also stay
	// bit-identical, the per-node refactor's safety contract.  The two
	// extra list rows walk the list under snips racing collects and
	// under signals to descheduled walkers.  (`tsbench golden` replays
	// the full grid in CI; this keeps `go test` minutes-free.)  Every
	// run samples its metrics timelines, so the replay also holds the
	// engine's zero-virtual-cost contract.
	replayBaseline(t, [][3]string{
		{"uniform-baseline", "list", "threadscan"},
		{"delete-storm", "list", "threadscan"},
		{"oversubscribed", "list", "epoch"},
		{"delete-storm", "stack", "epoch"},
		{"thread-churn", "queue", "threadscan"},
		{"numa-split", "stack", "threadscan"},
	}, replayMode{run: RunScenario, check: func(t *testing.T, r ScenarioResult) {
		if len(r.Metrics) == 0 {
			t.Error("run carries no metrics series")
		}
	}})
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
