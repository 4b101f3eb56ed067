package main

import (
	"fmt"

	"threadscan/internal/workload"
)

// workloadDef is one benchmark workload: a built-in scenario shape, the
// structure it runs on, and the stretch factor that sizes one rep to
// about 1.3 s of host time.  Every workload is a closed loop in
// deadline mode — each simulated worker issues its next op when the
// previous one returns, for a fixed virtual window — on scheme
// threadscan over the checked heap.
type workloadDef struct {
	name    string
	builtin string
	ds      string
	scale   float64
	mix     *workload.Mix // overrides the builtin's single-phase mix when set
}

// workloads is the fixed benchmark set, in presentation order.  Why
// each exists (README.md has the measurements behind these notes):
//
//   - paper-list is the paper's §6/Figure 3 shape; nearly all host time
//     is the simulated memory-access path and it runs only a handful of
//     collects, so collect-pipeline changes should not move it.
//   - retire-storm retires on every successful pop, so the collect
//     pipeline runs back to back and per-op engine overhead shows.  Its
//     mix is 30/30 rather than shifting-window's 25/25: at 25/25 the op
//     median sits exactly on the boundary between 9-cycle peeks and
//     63-cycle pops and flips from seed to seed.
//   - crowded-churn is the Figure 4 regime: scan signals reach
//     descheduled threads while registrations churn, so pauses and the
//     op tail come from the scheduler and the handshake.
//   - numa-local is the only workload on the overlapped per-node collect
//     slots and per-node allocator pools; the flat workloads bypass that
//     code.
var workloads = []workloadDef{
	{name: "paper-list", builtin: "uniform-baseline", ds: "list", scale: 10},
	{name: "retire-storm", builtin: "shifting-window", ds: "stack", scale: 300,
		mix: &workload.Mix{InsertPct: 30, RemovePct: 30}},
	{name: "crowded-churn", builtin: "oversubscribed-churn", ds: "hash", scale: 20},
	{name: "numa-local", builtin: "realloc-local", ds: "hash", scale: 15},
}

// heapWords sizes every arena explicitly.  The harness default reserves
// Leaky's worst case (a 385 MB arena on paper-list); threadscan needs a
// fraction of it, and the explicit size leaves every trace hash as is.
const heapWords = 1 << 22

// subSeeds is how many distinct simulation seeds one benchmark seed
// expands to.  Virtual metrics are medians (or pooled histograms) over
// them, so one unlucky schedule cannot swing a run's result.
const subSeeds = 5

// workloadByName returns the named workload.
func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// scenario returns the workload's spec for benchmark seed seed and
// sub-seed sub, stretched by the workload's scale times factor (1 for
// the benchmark; tests shrink it).
func (w workloadDef) scenario(seed int64, sub int, factor float64) (workload.Scenario, error) {
	base, ok := workload.ByName(w.builtin)
	if !ok {
		return workload.Scenario{}, fmt.Errorf("workload %s: builtin scenario %q missing", w.name, w.builtin)
	}
	spec := base.Scale(w.scale * factor)
	if w.mix != nil {
		spec.Phases[0].Mix = *w.mix
	}
	spec.DS = w.ds
	spec.Scheme = "threadscan"
	spec.HeapWords = heapWords
	// Negative seeds keep benchmark runs disjoint from the positive
	// seeds the captured baseline and the tests use.
	spec.Seed = -(seed*1000 + int64(sub))
	return spec, nil
}
