package harness

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"threadscan/internal/workload"
)

// replayMode is one way of running a captured grid cell: a subtest
// name suffix ("" for none), the run itself, and optional extra checks
// on its result.
type replayMode struct {
	name  string
	run   func(spec workload.Scenario) (ScenarioResult, error)
	check func(t *testing.T, r ScenarioResult)
}

// goldenGrid is the scenario-grid section of the golden manifest,
// written by `tsbench golden -update` (seed 1, scale 1).
const goldenGrid = "testdata/golden/grid.tsv"

// replayBaseline replays the named (scenario, ds, scheme) cells of the
// golden manifest's scenario grid once per mode, each as a parallel
// subtest, and demands bit-identical ops, elapsed cycles, trace hash
// and final size.
func replayBaseline(t *testing.T, rows [][3]string, modes ...replayMode) {
	t.Helper()
	if testing.Short() {
		t.Skip("baseline replay skipped in -short")
	}
	raw, err := os.ReadFile(goldenGrid)
	if err != nil {
		t.Fatalf("golden manifest: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	col := map[string]int{}
	for i, name := range strings.Split(lines[0], "\t") {
		col[name] = i
	}
	want := make(map[[3]string]bool, len(rows))
	for _, r := range rows {
		want[r] = true
	}
	replayed := 0
	for _, line := range lines[1:] {
		f := strings.Split(line, "\t")
		cell := [3]string{f[col["scenario"]], f[col["ds"]], f[col["scheme"]]}
		if !want[cell] {
			continue
		}
		replayed++
		ops, err1 := strconv.ParseUint(f[col["ops"]], 10, 64)
		cycles, err2 := strconv.ParseInt(f[col["elapsed_cycles"]], 10, 64)
		trace, err3 := strconv.ParseUint(f[col["trace_hash"]], 16, 64)
		final, err4 := strconv.Atoi(f[col["final_size"]])
		for _, err := range []error{err1, err2, err3, err4} {
			if err != nil {
				t.Fatalf("%s: %v", goldenGrid, err)
			}
		}
		for _, m := range modes {
			name := strings.Join(cell[:], "/")
			if m.name != "" {
				name += "/" + m.name
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				spec, ok := workload.ByName(cell[0])
				if !ok {
					t.Fatalf("manifest names unknown scenario %q", cell[0])
				}
				spec.DS, spec.Scheme, spec.Seed = cell[1], cell[2], 1
				r, err := m.run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if r.Ops != ops || r.ElapsedCycles != cycles || r.TraceHash != trace || r.FinalSize != final {
					t.Errorf("diverged from the golden manifest:\n  ops %d != %d\n  cycles %d != %d\n  trace %x != %x\n  final %d != %d",
						r.Ops, ops, r.ElapsedCycles, cycles, r.TraceHash, trace, r.FinalSize, final)
				}
				if m.check != nil {
					m.check(t, r)
				}
			})
		}
	}
	if replayed != len(want) {
		t.Fatalf("replayed %d of %d grid cells; rerun `tsbench golden`?", replayed, len(want))
	}
}
