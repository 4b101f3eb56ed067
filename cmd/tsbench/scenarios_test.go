package main

import (
	"os"
	"strings"
	"testing"

	"threadscan/internal/workload"
)

// builtinByName returns the named builtin as a one-element spec slice.
func builtinByName(t *testing.T, name string) []workload.Scenario {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("%s builtin missing", name)
	}
	return []workload.Scenario{s}
}

// validateTopologyFlags must catch bad topology requests at flag-parse
// time — before any scenario runs — instead of silently clamping to a
// different machine (the old behavior) or panicking mid-grid.
func TestValidateTopologyFlags(t *testing.T) {
	builtins := workload.Builtins()
	split, ok := workload.ByName("numa-split")
	if !ok {
		t.Fatal("numa-split builtin missing")
	}
	flat, ok := workload.ByName("uniform-baseline")
	if !ok {
		t.Fatal("uniform-baseline builtin missing")
	}

	cases := []struct {
		name     string
		specs    []workload.Scenario
		nodes    int
		pin      string
		claim    string
		perNode  bool
		shards   int
		wmark    int
		steal    int
		allocPol string
		wantErr  string // substring; "" = must pass
	}{
		{name: "defaults pass", specs: builtins},
		{name: "nodes within cores", specs: builtins, nodes: 2, pin: "rr"},
		{name: "nodes over cores rejected", specs: []workload.Scenario{split}, nodes: 64,
			wantErr: "more nodes than cores"},
		{name: "nodes over smallest scenario rejected", specs: builtins, nodes: 7,
			wantErr: "more nodes than cores"}, // thread-churn runs on 6 cores
		{name: "negative nodes rejected", specs: builtins, nodes: -1,
			wantErr: "cannot be negative"},
		{name: "bad pin rejected", specs: builtins, pin: "sideways",
			wantErr: "-pin"},
		{name: "bad claim rejected", specs: builtins, claim: "greedy",
			wantErr: "-claim"},
		{name: "negative steal rejected", specs: builtins, steal: -8,
			wantErr: "-steal"},
		{name: "negative shards rejected", specs: builtins, shards: -3,
			wantErr: "-shards"},
		{name: "negative watermark rejected", specs: builtins, wmark: -7,
			wantErr: "-watermark"},
		{name: "pernode on flat scenario rejected", specs: []workload.Scenario{flat}, perNode: true,
			wantErr: "multi-node"},
		{name: "pernode flattened by -nodes 1 rejected", specs: []workload.Scenario{split}, nodes: 1, perNode: true,
			wantErr: "multi-node"},
		{name: "pernode with nodes passes", specs: []workload.Scenario{flat}, nodes: 2, perNode: true},
		{name: "pernode on numa scenario passes", specs: []workload.Scenario{split}, perNode: true},
		{name: "pernode beyond tag bits rejected", specs: []workload.Scenario{split}, nodes: 9, perNode: true,
			wantErr: "at most 8 nodes"},
		{name: "unknown alloc policy rejected", specs: builtins, allocPol: "firsttouch",
			wantErr: "allocation policy"},
		{name: "alloc policy on flat scenario rejected", specs: []workload.Scenario{flat}, allocPol: "localalloc",
			wantErr: "multi-node"},
		{name: "alloc policy flattened by -nodes 1 rejected", specs: []workload.Scenario{split}, nodes: 1, allocPol: "membind",
			wantErr: "multi-node"},
		{name: "global alloc policy on flat scenario passes", specs: []workload.Scenario{flat}, allocPol: "global"},
		{name: "builtin alloc policy flattened by -nodes 1 rejected", specs: builtinByName(t, "membind-contrast"), nodes: 1,
			wantErr: "multi-node"},
		{name: "builtin alloc policy with its own topology passes", specs: builtinByName(t, "membind-contrast")},
		{name: "alloc policy with nodes passes", specs: []workload.Scenario{flat}, nodes: 2, allocPol: "interleave"},
		{name: "alloc policy on numa scenario passes", specs: []workload.Scenario{split}, allocPol: "localalloc"},
	}
	for _, tc := range cases {
		err := validateTopologyFlags(tc.specs, tc.nodes, tc.pin, tc.claim, tc.perNode, tc.shards, tc.wmark, tc.steal, tc.allocPol)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error containing %q, got nil", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// resolveScenarios must name-check every -scenario entry at parse time
// instead of failing mid-grid.
func TestResolveScenarios(t *testing.T) {
	all, err := resolveScenarios("")
	if err != nil || len(all) != len(workload.Builtins()) {
		t.Fatalf("empty selector: %d specs, err %v (want the full builtin suite)", len(all), err)
	}
	two, err := resolveScenarios("numa-split, delete-storm")
	if err != nil || len(two) != 2 || two[0].Name != "numa-split" || two[1].Name != "delete-storm" {
		t.Fatalf("two-name selector: %+v, err %v", two, err)
	}
	if _, err := resolveScenarios("numa-split,nope"); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown name: err %v, want unknown-scenario usage error", err)
	}
}

// The -trace output must surface an unwritable path as a usage error
// at parse time, before minutes of simulation run for nothing.
func TestCreateTraceFile(t *testing.T) {
	if _, err := createOutFile("-trace", "/no/such/dir/trace.json"); err == nil ||
		!strings.Contains(err.Error(), "-trace") {
		t.Fatalf("unwritable path: err %v, want -trace usage error", err)
	}
	path := t.TempDir() + "/trace.json"
	f, err := createOutFile("-trace", path)
	if err != nil {
		t.Fatalf("writable path: %v", err)
	}
	f.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file not created: %v", err)
	}
}
