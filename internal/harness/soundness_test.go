package harness

import (
	"fmt"
	"testing"

	"threadscan/internal/workload"
)

// TestInteriorPointerReprosRunClean replays runs that freed a list
// predecessor while a worker held only rPrev = &pred.next, the interior
// pointer a Harris walk keeps.  An exact-match scan missed it, and the
// checked heap caught the predecessor's use after free at the snip CAS.
// Resolving scanned words to block bases keeps it alive.  The first
// three failed while the footprint sampler was a simulated thread;
// seed -54003 fails on today's schedule with the exact-match scan.
func TestInteriorPointerReprosRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("interior-pointer repros skipped in -short")
	}
	for _, tc := range []struct {
		name      string
		seed      int64
		heapWords int
		opsPer    int
	}{
		{"seed-27003", -27003, 1 << 22, 0},
		{"seed-52000", -52000, 1 << 22, 0},
		{"seed-1000-ops", -1000, 0, 118781},
		{"seed-54003", -54003, 1 << 22, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, ok := workload.ByName("oversubscribed-churn")
			if !ok {
				t.Fatal("oversubscribed-churn builtin missing")
			}
			spec = spec.Scale(20)
			spec.DS, spec.Scheme, spec.Seed = "hash", "threadscan", tc.seed
			spec.HeapWords, spec.OpsPerWorker = tc.heapWords, tc.opsPer
			r, err := RunScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.AccountingError != "" || r.Footprint.FinalRetiredNodes != 0 {
				t.Fatalf("accounting %q, %d retired nodes left", r.AccountingError, r.Footprint.FinalRetiredNodes)
			}
		})
	}
}

// TestSkipListHazardReprosRunClean replays the hazard-pointer skip-list
// runs in which a traversal stood on a removed predecessor, whose frozen
// next[level] still named a node that had since been retired and freed.
// Validating only pred.next[level] == curr passed; the checked heap
// caught the read of curr's key or the walk reached a poisoned link.
// Validation now also requires pred unmarked.  Seeds 32 and 40 failed
// while the footprint sampler was a simulated thread; seeds 1 and 9
// fail on today's schedule without the check.
func TestSkipListHazardReprosRunClean(t *testing.T) {
	for _, seed := range []int64{1, 9, 32, 40} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			spec, ok := workload.ByName("shifting-window")
			if !ok {
				t.Fatal("shifting-window builtin missing")
			}
			spec.DS, spec.Scheme, spec.Seed = "skiplist", "hazard", seed
			r, err := RunScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.AccountingError != "" || r.Footprint.FinalRetiredNodes != 0 {
				t.Fatalf("accounting %q, %d retired nodes left", r.AccountingError, r.Footprint.FinalRetiredNodes)
			}
		})
	}
}
