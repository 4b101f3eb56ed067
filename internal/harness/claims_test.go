package harness

import (
	"sync"
	"testing"
)

// TestPaperClaims asserts the qualitative results of the paper's
// evaluation (§6, Figures 3 and 4) as orderings and ratio bands on
// quick-scale points at seed 1 — never exact values, so the claims
// survive any change that keeps the paper's story.  Each band is wide
// enough for a draw-order change and narrow enough that the claim
// would fail if the mechanism behind it stopped working:
//
//   - Figure 3 (list): ThreadScan tracks leaky memory at 1, 8 and 16
//     threads; hazard pointers run at a fraction of ThreadScan (a fence
//     per traversal step); the slow-epoch errant thread drags epoch
//     down but not to hazard's level; and 16 threads on 8 cores
//     plateau at the 8-thread rate.
//   - Figure 4 (hash, 40 threads on 8 cores): ThreadScan stays level
//     with epoch under oversubscription.
//
// The list points run the full 20 virtual ms: the quick-scale slow-
// epoch delay is 8 ms, and at shorter windows (or at 16 threads) the
// errant thread never reaches a cleanup, so slow-epoch would equal
// epoch and the ordering would prove nothing.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-claims sweep skipped in -short")
	}
	type point struct {
		ds, scheme string
		threads    int
		duration   int64
	}
	list := func(scheme string, threads int) point { return point{"list", scheme, threads, 20_000_000} }
	hash := func(scheme string, threads int) point { return point{"hash", scheme, threads, 10_000_000} }
	points := []point{
		list("leaky", 1), list("threadscan", 1),
		list("leaky", 8), list("threadscan", 8), list("hazard", 8),
		list("epoch", 8), list("slow-epoch", 8),
		list("leaky", 16), list("threadscan", 16),
		hash("epoch", 40), hash("threadscan", 40),
	}
	tput := make(map[point]float64, len(points))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, pt := range points {
		wg.Add(1)
		go func(pt point) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			v, err := paperPointThroughput(pt.ds, pt.scheme, pt.threads, pt.duration)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Errorf("%s/%s/%d: %v", pt.ds, pt.scheme, pt.threads, err)
				return
			}
			tput[pt] = v
		}(pt)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	band := func(claim string, num, den point, lo, hi float64) {
		t.Helper()
		r := tput[num] / tput[den]
		t.Logf("%s: %.3f (%.0f / %.0f)", claim, r, tput[num], tput[den])
		if r < lo || r > hi {
			t.Errorf("%s: ratio %.3f outside [%.2f, %.2f]", claim, r, lo, hi)
		}
	}
	for _, n := range []int{1, 8, 16} {
		band("fig3 list threadscan/leaky", list("threadscan", n), list("leaky", n), 0.95, 1.05)
	}
	band("fig3 list hazard/threadscan", list("hazard", 8), list("threadscan", 8), 0.10, 0.25)
	band("fig3 list slow-epoch/epoch", list("slow-epoch", 8), list("epoch", 8), 0.60, 0.95)
	band("fig3 list slow-epoch/hazard", list("slow-epoch", 8), list("hazard", 8), 2, 1e9)
	band("fig3 list threadscan plateau 16/8", list("threadscan", 16), list("threadscan", 8), 0.90, 1.10)
	band("fig4 hash threadscan/epoch", hash("threadscan", 40), hash("epoch", 40), 0.90, 1.20)
}

// paperPointThroughput runs one quick-scale paper point — the §6
// workload for ds on 8 cores at seed 1 — and returns its throughput.
func paperPointThroughput(ds, scheme string, threads int, duration int64) (float64, error) {
	p := SweepParams{Scale: ScaleQuick, Cores: 8, Duration: duration, Seed: 1, CacheSim: true}
	r, err := RunScenario(paperPoint(ds, scheme, p, threads))
	return r.Throughput, err
}
