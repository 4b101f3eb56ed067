package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestRobustBoundedGarbageContrast is the robustness regression the
// hyaline family exists to win: on the stalled-scanner adversary (one
// reader descheduled mid-operation — deaf to signals — under heavy
// churn and thread turnover), epoch's grace periods and ThreadScan's
// scan barrier both inherit the stall, so their exact peak retired
// garbage grows with the stall length.  Hyaline frees every batch the
// victim never entered underneath it, so its peak is independent of how
// long the victim sleeps.
//
// The harness is deterministic, so the peaks are exact replays; the
// ratios below carry slack only to survive future tuning of the
// scenario, not run-to-run noise.
func TestRobustBoundedGarbageContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme stall sweep")
	}
	stalls := []int64{1_000_000, 6_000_000}
	a := ablation(t, "robust")
	rows, err := a.Run(AblationParams{SweepParams: SweepParams{Seed: 1},
		Scenarios: []string{"stalled-scanner"}, Values: stalls})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*len(stalls) {
		t.Fatalf("rows: %d", len(rows))
	}
	// peak[scheme][stall index], in row order (stalls ascending per scheme).
	peaks := map[string][]uint64{}
	for _, r := range rows {
		p := r.Result.Footprint.ExactPeakRetiredWords
		if p == 0 {
			t.Fatalf("%v: zero exact peak", r.Labels)
		}
		peaks[r.Labels[0]] = append(peaks[r.Labels[0]], p)
	}
	for _, scheme := range []string{"epoch", "threadscan"} {
		p := peaks[scheme]
		short, long := float64(p[0]), float64(p[len(p)-1])
		if long < short*1.2 {
			t.Errorf("%s: peak retired words did not grow with the stall: %.0f @ %d -> %.0f @ %d",
				scheme, short, stalls[0], long, stalls[len(stalls)-1])
		}
	}
	hy := peaks["hyaline"]
	short, long := float64(hy[0]), float64(hy[len(hy)-1])
	if long > short*1.15 {
		t.Errorf("hyaline: peak retired words grew with the stall: %.0f @ %d -> %.0f @ %d",
			short, stalls[0], long, stalls[len(stalls)-1])
	}
	// The robust scheme's peak must also sit below the growers' stalled
	// peaks — bounded in absolute terms, not just flat.
	for _, scheme := range []string{"epoch", "threadscan"} {
		if grew := peaks[scheme][len(stalls)-1]; float64(grew) < long {
			t.Errorf("hyaline peak %0.f not below %s's stalled peak %d", long, scheme, grew)
		}
	}
	var buf bytes.Buffer
	if err := WriteAblationTable(&buf, a, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stall_cycles", "exact_peak_words", "hyaline", "epoch", "threadscan"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("robust table missing %q:\n%s", want, buf.String())
		}
	}
}
