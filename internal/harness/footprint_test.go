package harness

import (
	"testing"

	"threadscan/internal/obs"
	"threadscan/internal/reclaim"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
	"threadscan/internal/workload"
)

// skewScheme is a stub whose accounting is broken in the way the
// sampler must survive: it reports more nodes freed than retired.
type skewScheme struct {
	retired, freed uint64
}

func (s *skewScheme) Name() string                        { return "skew-stub" }
func (s *skewScheme) Discipline() reclaim.Discipline      { return reclaim.DisciplineNone }
func (s *skewScheme) BeginOp(*simt.Thread)                {}
func (s *skewScheme) EndOp(*simt.Thread)                  {}
func (s *skewScheme) Protect(*simt.Thread, int, int) bool { return false }
func (s *skewScheme) Retire(_ *simt.Thread, _ uint64)     { s.retired++ }
func (s *skewScheme) Flush(*simt.Thread) int              { return 0 }
func (s *skewScheme) Stats() reclaim.Stats {
	return reclaim.Stats{Retired: s.retired, Freed: s.freed}
}

// TestFootprintGarbageClampsUnderflow: a scheme whose Freed outruns its
// Retired must read as zero garbage, not wrap the uint64 subtraction to
// ~1.8e19 and poison PeakRetiredNodes; the skew is recorded instead.
func TestFootprintGarbageClampsUnderflow(t *testing.T) {
	var skew uint64
	st := reclaim.Stats{Retired: 10, Freed: 17}
	if g := garbageNodes(st, &skew); g != 0 {
		t.Fatalf("garbage = %d, want 0 (clamped)", g)
	}
	if skew != 7 {
		t.Fatalf("skew = %d, want 7", skew)
	}
	// The skew high-water mark tracks the worst observation.
	st.Freed = 13
	if garbageNodes(st, &skew) != 0 || skew != 7 {
		t.Fatalf("skew high-water mark regressed: %d", skew)
	}
	st.Freed = 9
	if g := garbageNodes(st, &skew); g != 1 {
		t.Fatalf("garbage = %d, want 1 once accounting recovers", g)
	}
}

// TestFootprintSamplerSurvivesSkewedScheme drives the metrics engine's
// clock hook against the skewed stub end to end: peaks stay sane and
// the final sample reports zero, not an absurd phantom graveyard.
func TestFootprintSamplerSurvivesSkewedScheme(t *testing.T) {
	sim := simt.New(simt.Config{Cores: 1, Heap: simmem.Config{Words: 1 << 16}})
	stub := &skewScheme{retired: 3, freed: 5}
	fp := Footprint{SampleEvery: 10_000, NodeWords: 8}
	met := obs.NewMetrics(fp.SampleEvery)
	registerScenarioMetrics(met, sim, stub, nil, nil, &fp.AccountingSkew)
	for now := int64(0); now < 100_000; now += 3_000 {
		met.Tick(now)
	}
	met.Finish(100_000)
	series := met.Series()
	fp.settle(series, stub.Stats())
	// Ticks every 3k cycles cross the boundaries 10k, 20k, ..., 90k,
	// and Finish adds the final row at 100k.
	if n := len(findSeries(t, series, "garbage_nodes").Points); n != 10 {
		t.Fatalf("%d samples, want 10", n)
	}
	if fp.PeakRetiredNodes != 0 || fp.FinalRetiredNodes != 0 {
		t.Fatalf("skew leaked into peaks: %+v", fp)
	}
	if fp.AccountingSkew != 2 {
		t.Fatalf("AccountingSkew = %d, want 2", fp.AccountingSkew)
	}
}

// TestFootprintCadenceDoesNotPerturbRun: sampling is off the simulated
// machine, so two runs that differ only in SampleEvery — the cadence of
// every polled series — execute the same schedule.  Only the number of
// points may differ.
func TestFootprintCadenceDoesNotPerturbRun(t *testing.T) {
	for _, name := range []string{"uniform-baseline", "oversubscribed-churn", "realloc-local"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]ScenarioResult
			for i, every := range []int64{10_000, 1_000_000} {
				spec, ok := workload.ByName(name)
				if !ok {
					t.Fatalf("%s builtin missing", name)
				}
				spec.DS, spec.Scheme, spec.Seed = "hash", "threadscan", 1
				spec.SampleEvery = every
				r, err := RunScenario(spec)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = r
			}
			fine, coarse := runs[0], runs[1]
			if fine.Ops != coarse.Ops || fine.ElapsedCycles != coarse.ElapsedCycles || fine.TraceHash != coarse.TraceHash {
				t.Errorf("cadence changed the run: ops %d/%d, cycles %d/%d, trace %x/%x",
					fine.Ops, coarse.Ops, fine.ElapsedCycles, coarse.ElapsedCycles, fine.TraceHash, coarse.TraceHash)
			}
			nFine := len(findSeries(t, fine.Metrics, "garbage_nodes").Points)
			nCoarse := len(findSeries(t, coarse.Metrics, "garbage_nodes").Points)
			if nFine <= nCoarse {
				t.Errorf("10k-cycle cadence took %d samples, 1M-cycle %d", nFine, nCoarse)
			}
		})
	}
}
