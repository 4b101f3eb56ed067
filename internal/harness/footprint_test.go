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
	stub := &skewScheme{retired: 10, freed: 17}
	f := newFootprintSampler(nil, stub, 8, 1000, obs.NewMetrics(0))
	if g := f.garbage(); g != 0 {
		t.Fatalf("garbage = %d, want 0 (clamped)", g)
	}
	if f.fp.AccountingSkew != 7 {
		t.Fatalf("AccountingSkew = %d, want 7", f.fp.AccountingSkew)
	}
	// The skew high-water mark tracks the worst observation.
	stub.freed = 13
	if f.garbage() != 0 || f.fp.AccountingSkew != 7 {
		t.Fatalf("skew high-water mark regressed: %+v", f.fp)
	}
	stub.freed = 9
	if g := f.garbage(); g != 1 {
		t.Fatalf("garbage = %d, want 1 once accounting recovers", g)
	}
}

// TestFootprintSamplerSurvivesSkewedScheme drives the sampler's clock
// hook against the skewed stub end to end: peaks stay sane and the
// final sample reports zero, not an absurd phantom graveyard.
func TestFootprintSamplerSurvivesSkewedScheme(t *testing.T) {
	sim := simt.New(simt.Config{Cores: 1, Heap: simmem.Config{Words: 1 << 16}})
	stub := &skewScheme{retired: 3, freed: 5}
	f := newFootprintSampler(sim, stub, 8, 10_000, obs.NewMetrics(0))
	for now := int64(0); now < 100_000; now += 3_000 {
		f.tick(now)
	}
	f.finish(100_000)
	// Ticks every 3k cycles sample at 0, 12k, 24k, ..., 96k (each at
	// least 10k after the last), and finish adds the final sample.
	if n := len(f.garbSer.Points()); n != 10 {
		t.Fatalf("%d samples, want 10", n)
	}
	if f.fp.PeakRetiredNodes != 0 || f.fp.FinalRetiredNodes != 0 {
		t.Fatalf("skew leaked into peaks: %+v", f.fp)
	}
	if f.fp.AccountingSkew != 2 {
		t.Fatalf("AccountingSkew = %d, want 2", f.fp.AccountingSkew)
	}
}

// TestFootprintCadenceDoesNotPerturbRun: sampling is off the simulated
// machine, so two runs that differ only in SampleEvery execute the same
// schedule.  Only the number of footprint points may differ.
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
			nFine := len(findSeries(t, fine.Metrics, "footprint_garbage_nodes").Points)
			nCoarse := len(findSeries(t, coarse.Metrics, "footprint_garbage_nodes").Points)
			if nFine <= nCoarse {
				t.Errorf("10k-cycle cadence took %d samples, 1M-cycle %d", nFine, nCoarse)
			}
		})
	}
}
