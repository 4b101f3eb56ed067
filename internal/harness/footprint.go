package harness

import (
	"threadscan/internal/obs"
	"threadscan/internal/reclaim"
)

// Memory-footprint telemetry: the Hyaline-style robustness metric.
// Throughput says how fast a scheme runs; the footprint time series
// says how much retired-but-unreclaimed garbage it lets accumulate
// while running — the axis on which the related work (Hyaline,
// Crystalline) argues reclamation schemes must actually be compared.
// A scheme with great throughput and unbounded peak garbage (Leaky is
// the limit case) fails workloads a bounded scheme survives.

// Footprint is the peaks of the sampled series.  The series itself is
// two metrics-engine gauges in ScenarioResult.Metrics: garbage_nodes
// (retired, unreclaimed nodes) and live_words (every live arena word:
// structure nodes, garbage and infrastructure).
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
	// garbage_nodes gauge clamps at zero instead of letting the uint64
	// subtraction wrap to ~1.8e19 and poison the peaks.
	AccountingSkew uint64 `json:"accounting_skew,omitempty"`
}

// garbageNodes is the garbage_nodes gauge: retired, unreclaimed nodes.
// A scheme reporting more frees than retires reads as zero garbage, and
// the excess raises *skew instead (the run surfaces it as an error).
func garbageNodes(st reclaim.Stats, skew *uint64) uint64 {
	if st.Freed > st.Retired {
		*skew = max(*skew, st.Freed-st.Retired)
		return 0
	}
	return st.Retired - st.Freed
}

// settle reads the peaks off the engine's exported garbage_nodes and
// live_words series, after its final post-teardown row, and the exact
// peak off the scheme's running maximum.
func (fp *Footprint) settle(series []obs.Series, st reclaim.Stats) {
	for _, s := range series {
		switch s.Name {
		case "garbage_nodes":
			fp.PeakRetiredNodes = uint64(seriesMax(s))
			if n := len(s.Points); n > 0 {
				fp.FinalRetiredNodes = uint64(s.Points[n-1].V)
			}
		case "live_words":
			fp.PeakLiveWords = uint64(seriesMax(s))
		}
	}
	nw := uint64(fp.NodeWords)
	fp.PeakRetiredWords = fp.PeakRetiredNodes * nw
	fp.ExactPeakRetiredNodes = st.PeakRetired
	fp.ExactPeakRetiredWords = st.PeakRetired * nw
	if fp.ExactPeakRetiredNodes > fp.PeakRetiredNodes {
		fp.PeakUndercountNodes = fp.ExactPeakRetiredNodes - fp.PeakRetiredNodes
	}
}

func seriesMax(s obs.Series) float64 {
	var mx float64
	for _, p := range s.Points {
		mx = max(mx, p.V)
	}
	return mx
}
