// Package harness drives the paper's evaluation (§6) and everything
// built on it through one run engine: the scenario engine
// (RunScenario), which executes a declarative workload.Scenario on the
// checked heap, so every figure point, ablation cell and scenario run
// proves that no free was unsound.  On top of the engine sit the
// figure sweeps (RunFig3, RunFig4), the design-choice ablations A1-A10
// (one declaration each in Ablations; `tsbench -ablation`, see the
// README's "tsbench" section) and the memory-footprint sampler.
//
// The paper's methodology is one scenario shape (PaperScenario): a
// sorted-set workload with a 20% update ratio (half inserts, half
// removes, "so about 10% of all operations were node removals"), keys
// uniform over a range twice the steady-state size, structures
// prefilled to half the range.  Time is virtual: every thread runs
// until a fixed virtual wall-clock deadline (a thread's clock advances
// while it waits for a core, exactly like wall time in the paper's
// 10-second runs), and throughput is total completed operations per
// virtual second — so under oversubscription each thread contributes
// proportionally fewer operations, as on the paper's 40-core machine.
package harness

import (
	"fmt"

	"threadscan/internal/core"
	"threadscan/internal/ds"
	"threadscan/internal/obs"
	"threadscan/internal/reclaim"
	"threadscan/internal/simt"
	"threadscan/internal/workload"
)

// defaultBatch is the hazard/epoch/stacktrack/hyaline reclaim batch
// when Scenario.Batch is 0.
const defaultBatch = 1024

// schemeEntry is one registered reclamation scheme family: its name and
// the constructor binding it to a simulator for a scenario.
type schemeEntry struct {
	name string
	// differential marks families compared by the cross-scheme
	// differential suite.  slow-epoch is excluded: it is the epoch
	// family with an injected stall, not a distinct discipline.
	differential bool
	build        func(sim *simt.Sim, s *workload.Scenario, batch int, rec *obs.Recorder) (reclaim.Scheme, *core.ThreadScan)
}

// schemeRegistry is the single source of truth for scheme names.
// BuildScheme, SchemeNames, the differential suite, and the CLI
// -scheme validation all derive from it; adding a family here is the
// only plumbing a new scheme needs.  Order is presentation order.
var schemeRegistry = []schemeEntry{
	{name: "leaky", differential: true,
		build: func(sim *simt.Sim, s *workload.Scenario, batch int, rec *obs.Recorder) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewLeaky(sim), nil
		}},
	{name: "hazard", differential: true,
		build: func(sim *simt.Sim, s *workload.Scenario, batch int, rec *obs.Recorder) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewHazard(sim, reclaim.HazardConfig{
				Slots: ds.SkipListHazardSlots, Batch: batch, Obs: rec}), nil
		}},
	{name: "epoch", differential: true,
		build: func(sim *simt.Sim, s *workload.Scenario, batch int, rec *obs.Recorder) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewEpoch(sim, reclaim.EpochConfig{Batch: batch, Obs: rec}), nil
		}},
	{name: "slow-epoch",
		build: func(sim *simt.Sim, s *workload.Scenario, batch int, rec *obs.Recorder) (reclaim.Scheme, *core.ThreadScan) {
			delay := s.SlowDelay
			if delay == 0 {
				delay = 40_000_000 // the paper's 40ms at 1 GHz
			}
			// The errant thread is the first worker, thread id 0.
			return reclaim.NewEpoch(sim, reclaim.EpochConfig{
				Batch: batch, DelayCycles: delay, DelayVictim: 0, Obs: rec}), nil
		}},
	{name: "threadscan", differential: true,
		build: func(sim *simt.Sim, s *workload.Scenario, batch int, rec *obs.Recorder) (reclaim.Scheme, *core.ThreadScan) {
			buf := s.BufferSize
			if buf == 0 {
				buf = core.DefaultBufferSize
			}
			claim := core.ClaimAffinity
			if s.ClaimPolicy == "rr" {
				claim = core.ClaimRoundRobin
			}
			ts := reclaim.NewThreadScan(sim, core.Config{
				BufferSize: buf, HelpFree: s.HelpFree, Lookup: lookupKinds[s.Lookup],
				Shards: s.Shards, CollectWatermark: s.Watermark, Claim: claim,
				PerNode: s.PerNode, StealThreshold: s.StealThreshold,
				SerializeCollects: s.SerializeCollects, Obs: rec})
			return ts, ts.Core()
		}},
	{name: "stacktrack", differential: true,
		build: func(sim *simt.Sim, s *workload.Scenario, batch int, rec *obs.Recorder) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewStackTrack(sim, reclaim.StackTrackConfig{
				SegmentLen: 16, Batch: batch, Obs: rec}), nil
		}},
	{name: "hyaline", differential: true,
		build: func(sim *simt.Sim, s *workload.Scenario, batch int, rec *obs.Recorder) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewHyaline(sim, reclaim.HyalineConfig{Batch: batch, Obs: rec}), nil
		}},
}

// lookupKinds maps Scenario.Lookup names (validated by Fill) to core's
// TS-Scan membership structures.
var lookupKinds = map[string]core.LookupKind{
	"":       core.LookupBinary,
	"binary": core.LookupBinary,
	"linear": core.LookupLinear,
	"hash":   core.LookupHash,
}

// SchemeNames returns every registered scheme name in registry order.
func SchemeNames() []string {
	names := make([]string, len(schemeRegistry))
	for i, e := range schemeRegistry {
		names[i] = e.name
	}
	return names
}

// DifferentialSchemeNames returns the families the cross-scheme
// differential suite compares (every registered family except scheme
// *configurations* such as slow-epoch).
func DifferentialSchemeNames() []string {
	var names []string
	for _, e := range schemeRegistry {
		if e.differential {
			names = append(names, e.name)
		}
	}
	return names
}

// KnownScheme reports whether name is a registered scheme, letting
// CLIs reject typos at flag-parse time instead of mid-sweep.
func KnownScheme(name string) bool {
	for _, e := range schemeRegistry {
		if e.name == name {
			return true
		}
	}
	return false
}

// BuildScheme constructs the scenario's scheme bound to sim, with rec
// threaded into it, returning the inner ThreadScan core when
// applicable.
func BuildScheme(sim *simt.Sim, s *workload.Scenario, rec *obs.Recorder) (reclaim.Scheme, *core.ThreadScan, error) {
	batch := s.Batch
	if batch == 0 {
		batch = defaultBatch
	}
	for _, e := range schemeRegistry {
		if e.name == s.Scheme {
			sc, tsCore := e.build(sim, s, batch, rec)
			return sc, tsCore, nil
		}
	}
	return nil, nil, fmt.Errorf("harness: unknown scheme %q (known: %v)",
		s.Scheme, SchemeNames())
}
