package lint_test

import (
	"testing"

	"threadscan/internal/lint"
	"threadscan/internal/lint/analysistest"
)

func simdetConfig() *lint.Config {
	return &lint.Config{
		SimPackages:       []string{"simdet", "simdetsched"},
		SchedulerPackages: []string{"simdetsched"},
		WallclockFuncs:    []string{"simdet.wallNow"},
	}
}

func TestSimdeterminism(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.Simdeterminism(simdetConfig()), "simdet")
	analysistest.MustContain(t, diags, "wall time breaks deterministic replay")
	analysistest.MustContain(t, diags, "map order is randomized")
}

// TestSimdeterminismScheduler checks the scheduler carve-out: the
// scheduler package may use goroutines/coroutines/channels/sync, but
// wall clocks stay banned.
func TestSimdeterminismScheduler(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Simdeterminism(simdetConfig()), "simdetsched")
}

// TestSimdeterminismScoping checks that packages outside SimPackages
// are not diagnosed at all (simdetout calls time.Now with no wants).
func TestSimdeterminismScoping(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.Simdeterminism(simdetConfig()), "simdetout")
	if len(diags) != 0 {
		t.Errorf("expected no diagnostics outside SimPackages, got %d: %v", len(diags), diags)
	}
}
