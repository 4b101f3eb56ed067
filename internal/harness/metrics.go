package harness

import (
	"threadscan/internal/core"
	"threadscan/internal/obs"
	"threadscan/internal/reclaim"
	"threadscan/internal/simt"
)

// Metrics wiring: registers the run's counter surface — scheme, core
// pipeline, scheduler, allocator, and latency histograms — as named
// timelines on the metrics engine, the run's one sampler.  Registration
// is cold-path (before sim.Run); the closures built here are only
// *read* by the engine's ticker, never charge virtual cycles, and
// therefore cannot perturb the schedule
// (TestFootprintCadenceDoesNotPerturbRun holds the receipt).
//
// Series names are part of the exported-metrics contract: CI's smoke
// test, the metrics-diff baselines and Footprint.settle key on them.
// The garbage_nodes gauge records any Freed > Retired excess in *skew.
func registerScenarioMetrics(m *obs.Metrics, sim *simt.Sim, sc reclaim.Scheme, tsCore *core.ThreadScan, rec *obs.Recorder, skew *uint64) {
	// Progress: the cumulative op total across every thread spawned so
	// far, plus its windowed view (ops per window = throughput shape).
	opsNow := func() uint64 {
		var n uint64
		for _, th := range sim.Threads() {
			n += th.Ops()
		}
		return n
	}
	m.Counter("ops", opsNow)
	m.Rate("throughput", opsNow)

	// Scheme garbage accounting — the bounded-footprint axis.
	m.Counter("retired", func() uint64 { return sc.Stats().Retired })
	m.Counter("freed", func() uint64 { return sc.Stats().Freed })
	m.Gauge("garbage_nodes", func() float64 { return float64(garbageNodes(sc.Stats(), skew)) })
	m.Counter("grace_waits", func() uint64 { return sc.Stats().GraceWaits })
	m.Counter("grace_wait_cycles", func() uint64 { return uint64(sc.Stats().GraceWaitCycles) })

	// Scheduler and allocator NUMA traffic.
	m.Counter("remote_line_fills", func() uint64 { return sim.Stats().RemoteLineFills })
	m.Counter("alloc_remote_fills", func() uint64 { return sim.Stats().AllocRemoteFills })
	m.Gauge("live_words", func() float64 { return float64(sim.Heap().Stats().LiveBytes / 8) })
	m.Counter("remote_allocs", func() uint64 { return sim.Heap().Stats().RemoteAllocs })
	m.Counter("remote_frees", func() uint64 { return sim.Heap().Stats().RemoteFrees })

	// ThreadScan pipeline counters (absent for epoch/hazard/leaky...).
	if tsCore != nil {
		m.Counter("collects", func() uint64 { return tsCore.Stats().Collects })
		m.Counter("watermark_collects", func() uint64 { return tsCore.Stats().WatermarkCollects })
		m.Counter("parked_scans", func() uint64 { return tsCore.Stats().ParkedScans })
		m.Counter("steals", func() uint64 {
			st := tsCore.Stats()
			return st.StolenCollects + st.StolenSweeps
		})
		m.Counter("overlapped_collects", func() uint64 { return tsCore.Stats().OverlappedCollects })
		m.Counter("local_shard_claims", func() uint64 { return tsCore.Stats().LocalShardClaims })
		m.Counter("remote_shard_claims", func() uint64 { return tsCore.Stats().RemoteShardClaims })
		m.Counter("sweep_remote_fills", func() uint64 { return tsCore.Stats().SweepRemoteFills })
	}

	// Windowed latency quantiles from the recorder's cumulative per-op
	// histogram: each point digests only that window's observations.
	// Copying the 16 KB histogram is the costliest read here, so both
	// quantiles share one copy per sample, and a window in which no op
	// completed keeps the last one.
	if rec.Enabled() {
		var merged obs.Hist
		opHist := func(h *obs.Hist) {
			if rec.StageCount(obs.StageOp) != merged.Count() {
				merged.Reset()
				rec.MergeStageInto(obs.StageOp, &merged)
			}
			if h.Count() != merged.Count() {
				*h = merged
			}
		}
		m.Quantile("op_p50", 0.50, opHist)
		m.Quantile("op_p99", 0.99, opHist)
	}
}
