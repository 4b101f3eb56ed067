package harness

import (
	"slices"
	"testing"

	"threadscan/internal/workload"
)

// runAllocPolicy runs numa-split (stack/threadscan) under one allocator
// policy x routing regime at half scale.
func runAllocPolicy(t *testing.T, policy string, perNode bool, seed int64) ScenarioResult {
	t.Helper()
	spec, ok := workload.ByName("numa-split")
	if !ok {
		t.Fatal("numa-split builtin missing")
	}
	spec = spec.Scale(0.5)
	spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", seed
	spec.AllocPolicy = policy
	spec.PerNode = perNode
	r, err := RunScenario(spec)
	if err != nil {
		t.Fatalf("%s/pernode=%v: %v", policy, perNode, err)
	}
	if r.AccountingError != "" {
		t.Fatalf("%s/pernode=%v: %s", policy, perNode, r.AccountingError)
	}
	return r
}

// TestAllocPoolLocalallocClosesAllocLeak is the A8 claim: on
// numa-split, localalloc + the per-node sweep serve every allocation
// from the requester's own node — alloc-side remote hand-outs drop to
// zero — at equal or better throughput than the global pool, which
// leaks locality (and leaks *more* once the per-node sweep recycles
// faster).
func TestAllocPoolLocalallocClosesAllocLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("allocpool ablation skipped in -short")
	}
	globalFlat := runAllocPolicy(t, "global", false, 1)
	globalPN := runAllocPolicy(t, "global", true, 1)
	localPN := runAllocPolicy(t, "localalloc", true, 1)

	// The global pool hands out cross-resident blocks; per-node pools
	// must not, ever.
	if globalFlat.Heap.RemoteAllocs == 0 {
		t.Error("global pool on numa-split produced no remote hand-outs — the leak the ablation demonstrates is gone")
	}
	if localPN.Heap.RemoteAllocs != 0 {
		t.Errorf("localalloc handed out %d cross-resident blocks, want 0", localPN.Heap.RemoteAllocs)
	}
	if localPN.Sim.AllocRemoteFills != 0 {
		t.Errorf("localalloc charged %d alloc-side remote fills, want 0", localPN.Sim.AllocRemoteFills)
	}
	if localPN.Heap.RemoteAllocs >= globalPN.Heap.RemoteAllocs ||
		localPN.Heap.RemoteAllocs >= globalFlat.Heap.RemoteAllocs {
		t.Errorf("localalloc remote allocs %d not below global's (flat %d, pernode %d)",
			localPN.Heap.RemoteAllocs, globalFlat.Heap.RemoteAllocs, globalPN.Heap.RemoteAllocs)
	}

	// The sweep side stays closed (A7's result must survive the pools).
	if localPN.Core.SweepRemoteFills != 0 {
		t.Errorf("per-node sweep paid %d remote fills under localalloc", localPN.Core.SweepRemoteFills)
	}

	// Free routing actually engaged: consumers return producer-resident
	// blocks to node 0's pool.
	if localPN.Heap.HomeFrees == 0 || localPN.Heap.RemoteFrees == 0 {
		t.Errorf("localalloc routed no frees: home %d remote %d",
			localPN.Heap.HomeFrees, localPN.Heap.RemoteFrees)
	}

	// Better throughput than the global-pool configuration, and within
	// noise of global + per-node routing (the batched remote-free
	// flushes are the only added cost).  The second ratio spreads over
	// 0.85-1.22 from seed to seed, so it is stated as a median over
	// seeds 1-10.
	if localPN.Throughput <= globalFlat.Throughput {
		t.Errorf("localalloc+pernode throughput %.0f not above the global pool's %.0f",
			localPN.Throughput, globalFlat.Throughput)
	}
	ratios := []float64{localPN.Throughput / globalPN.Throughput}
	for seed := int64(2); seed <= 10; seed++ {
		local := runAllocPolicy(t, "localalloc", true, seed)
		global := runAllocPolicy(t, "global", true, seed)
		ratios = append(ratios, local.Throughput/global.Throughput)
	}
	slices.Sort(ratios)
	if med := (ratios[4] + ratios[5]) / 2; med < 0.95 {
		t.Errorf("localalloc+pernode / global+pernode throughput: median %.3f over seeds 1-10 (range %.3f-%.3f) fell more than 5%% below parity",
			med, ratios[0], ratios[9])
	}

	// Nothing is lost to the routing: everything retired is freed or
	// still pending, for every regime.
	for name, r := range map[string]ScenarioResult{
		"global": globalFlat, "global+pernode": globalPN, "localalloc+pernode": localPN,
	} {
		st := r.SchemeStats
		if st.Retired != st.Freed+st.Pending {
			t.Errorf("%s: retired %d != freed %d + pending %d", name, st.Retired, st.Freed, st.Pending)
		}
	}
}

// TestMembindMatchesLocalallocUnderBalancedPressure: with both
// regions sized for the workload, membind behaves exactly like
// localalloc (the fallback never fires) — the numactl contrast is a
// safety-margin story, not a steady-state one.
func TestMembindMatchesLocalallocUnderBalancedPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("membind contrast skipped in -short")
	}
	local := runAllocPolicy(t, "localalloc", true, 1)
	bind := runAllocPolicy(t, "membind", true, 1)
	if local.TraceHash != bind.TraceHash || local.Ops != bind.Ops ||
		local.ElapsedCycles != bind.ElapsedCycles {
		t.Errorf("membind diverged from localalloc without region pressure:\n  trace %x/%x ops %d/%d cycles %d/%d",
			bind.TraceHash, local.TraceHash, bind.Ops, local.Ops, bind.ElapsedCycles, local.ElapsedCycles)
	}
}

// TestScenarioChurnOnNodePools: thread churn on a 2-node topology with
// per-node pools — churned workers' cache flushes route through the
// home-attribution path while the run is in flight, and the checked
// heap plus scheme accounting verify nothing is lost or double-freed.
func TestScenarioChurnOnNodePools(t *testing.T) {
	spec, ok := workload.ByName("thread-churn")
	if !ok {
		t.Fatal("thread-churn builtin missing")
	}
	spec = spec.Scale(0.5)
	spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 11
	spec.Nodes = 2
	spec.PinPolicy = "rr"
	spec.AllocPolicy = "localalloc"
	r, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.AccountingError != "" {
		t.Fatal(r.AccountingError)
	}
	if r.ChurnWorkers == 0 {
		t.Fatal("no churn workers ran")
	}
	if r.LeakedRegistrations > 0 {
		t.Fatalf("%d leaked registrations", r.LeakedRegistrations)
	}
	st := r.SchemeStats
	if st.Retired != st.Freed+st.Pending {
		t.Fatalf("retired %d != freed %d + pending %d", st.Retired, st.Freed, st.Pending)
	}
	if r.Heap.HomeFrees == 0 {
		t.Fatal("node pools never saw a home-routed free")
	}
}

// TestAblationAllocPoolRuns: the A8 sweep itself (the table tsbench
// renders) completes across every policy x routing regime.
func TestAblationAllocPoolRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("A8 sweep skipped in -short")
	}
	rows, err := ablation(t, "allocpool").Run(AblationParams{
		SweepParams: SweepParams{Duration: 12_500_000}, Scenarios: []string{"numa-split"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("A8 produced %d rows, want 6", len(rows))
	}
	for _, row := range rows {
		if row.Result.Ops == 0 {
			t.Errorf("%v ran no ops", row.Labels)
		}
	}
}
