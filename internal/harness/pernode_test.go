package harness

import (
	"testing"

	"threadscan/internal/workload"
)

// Scenario-level checks for per-node retirement routing (the A7
// ablation's claims, pinned down as tests).

// TestPerNodeRoutingEliminatesRemoteSweeps: on numa-split — producers
// pinned to node 0 retiring into consumers pinned to node 1 — per-node
// routing must drive the sweep's remote line fills to exactly zero,
// where the globally hashed pipeline (even with affinity claiming)
// pays them on every cross-socket shard, and it must not give up
// throughput doing so.
func TestPerNodeRoutingEliminatesRemoteSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("per-node ablation skipped in -short")
	}
	run := func(perNode bool) ScenarioResult {
		spec, ok := workload.ByName("numa-split")
		if !ok {
			t.Fatal("numa-split builtin missing")
		}
		spec = spec.Scale(0.5)
		spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 1
		spec.PerNode = perNode
		r, err := RunScenario(spec)
		if err != nil {
			t.Fatalf("perNode=%v: %v", perNode, err)
		}
		return r
	}
	routed := run(true)
	global := run(false)
	if got := routed.Core.SweepRemoteFills; got != 0 {
		t.Errorf("per-node routing left %d sweep-side remote fills, want 0", got)
	}
	if global.Core.SweepRemoteFills == 0 {
		t.Error("global pipeline paid no sweep remote fills — the contrast is vacuous")
	}
	if routed.Throughput < global.Throughput {
		t.Errorf("per-node throughput %.0f below global %.0f", routed.Throughput, global.Throughput)
	}
	// Both nodes ran their own collects, and nothing was lost.
	if len(routed.Core.NodeCollects) != 2 ||
		routed.Core.NodeCollects[0] == 0 || routed.Core.NodeCollects[1] == 0 {
		t.Errorf("collects not per-node: %v", routed.Core.NodeCollects)
	}
	for name, r := range map[string]ScenarioResult{"pernode": routed, "global": global} {
		if r.SchemeStats.Retired != r.SchemeStats.Freed+r.SchemeStats.Pending {
			t.Errorf("%s: retired %d != freed %d + pending %d",
				name, r.SchemeStats.Retired, r.SchemeStats.Freed, r.SchemeStats.Pending)
		}
		if r.LeakedRegistrations != 0 {
			t.Errorf("%s: %d leaked registrations", name, r.LeakedRegistrations)
		}
	}
	if !routed.PerNode || global.PerNode {
		t.Errorf("result PerNode flags wrong: routed=%v global=%v", routed.PerNode, global.PerNode)
	}
}

// TestPerNodeSkewedRetireRebalances: on numa-skewed-retire (node 0
// retires everything) the low steal threshold must produce observable
// cross-node work sharing — stolen sweeps or remote shard claims —
// while all collects originate on the retiring node.
func TestPerNodeSkewedRetireRebalances(t *testing.T) {
	if testing.Short() {
		t.Skip("per-node skew scenario skipped in -short")
	}
	spec, ok := workload.ByName("numa-skewed-retire")
	if !ok {
		t.Fatal("numa-skewed-retire builtin missing")
	}
	spec = spec.Scale(0.5)
	spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 1
	r, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Core
	if c.NodeCollects[0] == 0 {
		t.Fatalf("retiring node ran no collects: %v", c.NodeCollects)
	}
	if c.NodeCollects[1] != 0 {
		t.Errorf("read-only node ran %d collects; only node 0 retires", c.NodeCollects[1])
	}
	if c.StolenSweeps+c.RemoteShardClaims == 0 {
		t.Errorf("skewed retirement produced no cross-node help: stolen=%d remote-claims=%d",
			c.StolenSweeps, c.RemoteShardClaims)
	}
	if r.SchemeStats.Retired != r.SchemeStats.Freed+r.SchemeStats.Pending {
		t.Errorf("retired %d != freed %d + pending %d",
			r.SchemeStats.Retired, r.SchemeStats.Freed, r.SchemeStats.Pending)
	}
}

// TestAblationPerNodeRuns: the A7 sweep produces a row per scenario
// and routing regime with the counters the table renders.
func TestAblationPerNodeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep skipped in -short")
	}
	rows, err := ablation(t, "pernode").Run(AblationParams{
		SweepParams: SweepParams{Duration: 10_000_000, Seed: 1}, Scenarios: []string{"numa-split"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 routing regimes", len(rows))
	}
	byRouting := map[string]ScenarioResult{}
	for _, row := range rows {
		if row.Result.Core == nil {
			t.Fatalf("%v: no core stats", row.Labels)
		}
		byRouting[row.Labels[1]] = row.Result
	}
	if got := byRouting["pernode"].Core.SweepRemoteFills; got != 0 {
		t.Errorf("A7 pernode row reports %d sweep remote fills, want 0", got)
	}
	if byRouting["global/rr"].Core.SweepRemoteFills == 0 {
		t.Error("A7 global/rr row reports no sweep remote fills")
	}
}
