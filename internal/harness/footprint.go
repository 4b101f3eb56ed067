package harness

import (
	"threadscan/internal/obs"
	"threadscan/internal/reclaim"
	"threadscan/internal/simt"
)

// Memory-footprint telemetry: the Hyaline-style robustness metric.
// Throughput says how fast a scheme runs; the footprint time series
// says how much retired-but-unreclaimed garbage it lets accumulate
// while running — the axis on which the related work (Hyaline,
// Crystalline) argues reclamation schemes must actually be compared.
// A scheme with great throughput and unbounded peak garbage (Leaky is
// the limit case) fails workloads a bounded scheme survives.

// Footprint is the peaks of the sampled series.  The series itself is
// two metrics-engine series in ScenarioResult.Metrics:
// footprint_garbage_nodes (retired, unreclaimed nodes) and
// footprint_live_words (every live arena word: structure nodes,
// garbage and infrastructure).
type Footprint struct {
	SampleEvery int64 `json:"sample_every_cycles"`
	NodeWords   int   `json:"node_words"` // allocator words per structure node

	PeakLiveWords    uint64 `json:"peak_live_words"`
	PeakRetiredNodes uint64 `json:"peak_retired_nodes"`
	PeakRetiredWords uint64 `json:"peak_retired_words"` // peak unreclaimed garbage

	// ExactPeakRetiredNodes/Words are the scheme-maintained running
	// peak (reclaim.Stats.PeakRetired), updated at every Retire and
	// free rather than on the sampling cadence — the headline
	// robustness metric.  The sampled peaks above can only undercount
	// it: a retire burst fully reclaimed within one SampleEvery window
	// never appears in the series.  Zero for Leaky, whose graveyard is
	// counted in Leaked (and in the sampled series) instead.
	ExactPeakRetiredNodes uint64 `json:"exact_peak_retired_nodes"`
	ExactPeakRetiredWords uint64 `json:"exact_peak_retired_words"`

	// PeakUndercountNodes reconciles the two: how far the sampled peak
	// fell short of the exact one (exact - sampled, clamped at zero) —
	// the aliasing error the sampling cadence introduced on this run.
	PeakUndercountNodes uint64 `json:"peak_undercount_nodes,omitempty"`

	// FinalRetiredNodes is the garbage still held after teardown flush:
	// 0 for every sound reclaiming scheme, the whole graveyard for
	// Leaky.
	FinalRetiredNodes uint64 `json:"final_retired_nodes"`

	// AccountingSkew is the largest Freed-minus-Retired excess any
	// sample observed.  A sound scheme never frees more than was
	// retired, so nonzero skew flags broken scheme accounting; the
	// sampler clamps the garbage estimate at zero instead of letting
	// the uint64 subtraction wrap to ~1.8e19 and poison the peaks.
	AccountingSkew uint64 `json:"accounting_skew,omitempty"`
}

// footprintSampler samples scheme and heap counters on a virtual-time
// cadence from the scheduler's clock-advance hook: host-side reads
// between thread quanta, never concurrent with a simulated thread, so
// every read is consistent and sampling charges no virtual cycles.  It
// is not a simulated thread: it registers with no scheme, holds no
// core and answers no scan signal, so the cadence cannot change the
// run it measures.  Its points go to two PushedSeries in the metrics
// engine.
type footprintSampler struct {
	sim     *simt.Sim
	scheme  reclaim.Scheme
	fp      Footprint
	next    int64 // virtual time of the next sample
	garbSer *obs.PushedSeries
	liveSer *obs.PushedSeries
}

// newFootprintSampler wires a sampler into m's registry, which must be
// an enabled engine.
func newFootprintSampler(sim *simt.Sim, scheme reclaim.Scheme, nodeWords int, every int64, m *obs.Metrics) *footprintSampler {
	return &footprintSampler{
		sim:     sim,
		scheme:  scheme,
		fp:      Footprint{SampleEvery: every, NodeWords: nodeWords},
		garbSer: m.Pushed("footprint_garbage_nodes", obs.SeriesGauge),
		liveSer: m.Pushed("footprint_live_words", obs.SeriesGauge),
	}
}

// tick is the clock-advance hook: it samples once now reaches the next
// sample time, then schedules the one after SampleEvery cycles later.
func (f *footprintSampler) tick(now int64) {
	if now < f.next {
		return
	}
	f.sample(now)
	f.next = now + f.fp.SampleEvery
}

// finish takes the final, post-teardown sample at now and settles the
// end-of-run fields.
func (f *footprintSampler) finish(now int64) {
	f.sample(now)
	f.fp.FinalRetiredNodes = f.garbage()
	if f.fp.ExactPeakRetiredNodes > f.fp.PeakRetiredNodes {
		f.fp.PeakUndercountNodes = f.fp.ExactPeakRetiredNodes - f.fp.PeakRetiredNodes
	}
}

func (f *footprintSampler) garbage() uint64 {
	st := f.scheme.Stats()
	if st.PeakRetired > f.fp.ExactPeakRetiredNodes {
		f.fp.ExactPeakRetiredNodes = st.PeakRetired
		f.fp.ExactPeakRetiredWords = st.PeakRetired * uint64(f.fp.NodeWords)
	}
	if st.Freed > st.Retired {
		// Scheme accounting skew: record it (the run surfaces it as an
		// error) and clamp rather than wrap.
		if skew := st.Freed - st.Retired; skew > f.fp.AccountingSkew {
			f.fp.AccountingSkew = skew
		}
		return 0
	}
	return st.Retired - st.Freed
}

func (f *footprintSampler) sample(at int64) {
	retired := f.garbage()
	live := f.sim.Heap().Stats().LiveBytes / 8
	f.garbSer.Put(at, float64(retired))
	f.liveSer.Put(at, float64(live))
	if live > f.fp.PeakLiveWords {
		f.fp.PeakLiveWords = live
	}
	if retired > f.fp.PeakRetiredNodes {
		f.fp.PeakRetiredNodes = retired
		f.fp.PeakRetiredWords = retired * uint64(f.fp.NodeWords)
	}
}
