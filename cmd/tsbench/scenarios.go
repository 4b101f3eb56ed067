package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"threadscan/internal/core"
	"threadscan/internal/harness"
	"threadscan/internal/obs"
	"threadscan/internal/simmem"
	"threadscan/internal/workload"
)

// runScenarios is the `tsbench scenarios` subcommand: run the
// declarative workload suite (or a filtered slice of it) across a grid
// of structures and schemes, and report throughput next to the
// Hyaline-style robustness metric (peak retired-but-unreclaimed words)
// as JSON.
func runScenarios(args []string) {
	fs := flag.NewFlagSet("scenarios", flag.ExitOnError)
	var (
		list     = fs.Bool("list", false, "list built-in scenarios and exit")
		names    = fs.String("scenario", "", "comma-separated scenario names (default: all built-ins)")
		dss      = fs.String("ds", "list,stack,queue", "comma-separated structures to cross")
		schemes  = fs.String("schemes", "leaky,epoch,threadscan", "comma-separated schemes to cross")
		seed     = fs.Int64("seed", 1, "simulation seed")
		scale    = fs.Float64("scale", 1, "stretch factor for all scenario durations")
		shards   = fs.Int("shards", 0, "threadscan collect shards K (0 = scenario default / serial)")
		wmark    = fs.Int("watermark", 0, "threadscan global collect watermark (0 = scenario default / off)")
		helpFree = fs.Bool("helpfree", false, "enable threadscan's scanner-assisted sweep (help protocol)")
		nodes    = fs.Int("nodes", 0, "NUMA nodes to group the cores into (0 = scenario default / flat)")
		pin      = fs.String("pin", "", `worker pinning policy: "none", "rr", or "split" ("" = scenario default)`)
		claim    = fs.String("claim", "", `threadscan shard-claim order: "affinity" or "rr" ("" = scenario default)`)
		perNode  = fs.Bool("pernode", false, "enable threadscan per-node retirement routing + node-local reclaimers")
		steal    = fs.Int("steal", 0, "threadscan per-node steal threshold in addresses (0 = default)")
		allocPol = fs.String("allocpolicy", "", `allocator NUMA policy: "global", "localalloc", "membind", or "interleave" ("" = scenario default)`)
		jsonPath = fs.String("json", "-", `JSON output: "-" for stdout, else a file path`)
		samples  = fs.Bool("samples", false, "include every run's metrics timelines in the JSON")
		quietTbl = fs.Bool("no-table", false, "suppress the human-readable table on stderr")
		trace    = fs.String("trace", "", "write a Chrome trace-event JSON of every run to this file (open in chrome://tracing or Perfetto)")
		profile  = fs.Bool("profile", false, "print a per-stage cycle-attribution profile for every run on stderr")
		metrics  = fs.String("metrics", "", "write per-series virtual-time timelines for every grid cell as JSON to this file (read back with `tsbench timeline` / `tsbench metrics-diff`)")
		metCSV   = fs.String("metrics-csv", "", "also write the timelines in long CSV format (one row per point)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tsbench scenarios [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, s := range workload.Builtins() {
			fmt.Fprintf(tw, "%s\t%s\n", s.Name, s.Desc)
		}
		tw.Flush()
		return
	}

	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "tsbench scenarios:", err)
		fs.Usage()
		os.Exit(2)
	}

	// An unknown scenario name is a usage error at parse time — for
	// -profile and -trace especially, failing mid-grid after minutes of
	// simulation would waste the whole run.
	specs, err := resolveScenarios(*names)
	if err != nil {
		usageErr(err)
	}

	// Unknown scheme names fail the same way, before the grid runs.
	for _, scheme := range splitList(*schemes) {
		if !harness.KnownScheme(scheme) {
			usageErr(fmt.Errorf("unknown scheme %q (known: %s)",
				scheme, strings.Join(harness.SchemeNames(), ", ")))
		}
	}

	// Validate the topology flags against every selected scenario up
	// front: a -nodes that exceeds a scenario's core count (or a bad
	// policy string) is a usage error at parse time, not a mid-grid
	// failure — and never a silent clamp that reports results for a
	// different machine than the one asked for.
	if err := validateTopologyFlags(specs, *nodes, *pin, *claim, *perNode, *shards, *wmark, *steal, *allocPol); err != nil {
		usageErr(err)
	}

	// The output files open before anything runs for the same reason:
	// an unwritable path must fail as a usage error, not after the grid.
	traceFile, err := createOutFile("-trace", *trace)
	if err != nil {
		usageErr(err)
	}
	collectMetrics := *metrics != "" || *metCSV != ""
	metricsFile, err := createOutFile("-metrics", *metrics)
	if err != nil {
		usageErr(err)
	}
	metCSVFile, err := createOutFile("-metrics-csv", *metCSV)
	if err != nil {
		usageErr(err)
	}

	var results []harness.ScenarioResult
	var traceRuns []obs.TraceRun
	var metricCells []obs.MetricsCell
	for _, spec := range gridCells(specs, splitList(*dss), splitList(*schemes), *scale, *seed) {
		if *shards > 0 {
			spec.Shards = *shards
		}
		if *wmark > 0 {
			spec.Watermark = *wmark
		}
		if *helpFree {
			spec.HelpFree = true
		}
		if *nodes > 0 {
			spec.Nodes = *nodes
		}
		if *pin != "" {
			spec.PinPolicy = *pin
		}
		if *claim != "" {
			spec.ClaimPolicy = *claim
		}
		if *perNode {
			spec.PerNode = true
		}
		if *steal > 0 {
			spec.StealThreshold = *steal
		}
		if *allocPol != "" {
			spec.AllocPolicy = *allocPol
		}
		rec := obs.NewRecorder()
		if traceFile != nil {
			rec = obs.NewTraceRecorder()
		}
		r, err := harness.RunScenarioRecorded(spec, rec)
		if err != nil {
			fatal(err)
		}
		label := fmt.Sprintf("%s %s/%s", r.Name, r.DS, r.Scheme)
		if traceFile != nil {
			var ws []obs.Window
			for _, pw := range r.Scenario.PhaseWindows() {
				ws = append(ws, obs.Window{
					Name:  pw.Name,
					Start: r.MeasuredStart + pw.Start,
					End:   r.MeasuredStart + pw.End,
				})
			}
			traceRuns = append(traceRuns, obs.TraceRun{Label: label, Rec: rec, Windows: ws})
		}
		if *profile {
			if err := obs.WriteProfile(os.Stderr, label, rec); err != nil {
				fatal(err)
			}
		}
		if r.AccountingError != "" {
			fmt.Fprintf(os.Stderr, "! %s %s/%s: %s\n", r.Name, r.DS, r.Scheme, r.AccountingError)
		}
		if collectMetrics {
			metricCells = append(metricCells, obs.MetricsCell{
				Scenario: r.Name, DS: r.DS, Scheme: r.Scheme, Series: r.Metrics,
			})
		}
		if !*samples {
			// Timelines live in the metrics files; keep the results
			// JSON the same shape with and without -metrics.
			r.Metrics = nil
		}
		results = append(results, r)
		line := fmt.Sprintf("· %-20s %-8s %-10s %8.0f ops/vsec  peak-garbage %d words",
			r.Name, r.DS, r.Scheme, r.Throughput, r.Footprint.PeakRetiredWords)
		if r.Core != nil {
			line += fmt.Sprintf("  collect %d cyc", r.Core.CollectCycles)
		}
		fmt.Fprintln(os.Stderr, line)
	}

	if traceFile != nil {
		if err := obs.WriteChromeTrace(traceFile, traceRuns); err != nil {
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
	}

	if metricsFile != nil {
		if err := obs.WriteMetricsJSON(metricsFile, metricCells); err != nil {
			fatal(err)
		}
		if err := metricsFile.Close(); err != nil {
			fatal(err)
		}
	}
	if metCSVFile != nil {
		if err := obs.WriteMetricsCSV(metCSVFile, metricCells); err != nil {
			fatal(err)
		}
		if err := metCSVFile.Close(); err != nil {
			fatal(err)
		}
	}

	if !*quietTbl {
		writeScenarioTable(os.Stderr, results)
	}

	out := os.Stdout
	if *jsonPath != "-" && *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fatal(err)
	}
}

// gridCells expands a scenario grid into its cells, every scenario ×
// structure × scheme in that nesting order, scaled and seeded.  It is
// the one grid loop behind `tsbench scenarios`, `golden` and
// `harness-bench`.
func gridCells(specs []workload.Scenario, structures, schemes []string, scale float64, seed int64) []workload.Scenario {
	var cells []workload.Scenario
	for _, base := range specs {
		for _, ds := range structures {
			for _, scheme := range schemes {
				spec := base.Scale(scale)
				spec.DS, spec.Scheme, spec.Seed = ds, scheme, seed
				cells = append(cells, spec)
			}
		}
	}
	return cells
}

// resolveScenarios maps the -scenario flag to scenario specs (all
// built-ins when empty).  An unknown name is a usage error.
func resolveScenarios(names string) ([]workload.Scenario, error) {
	if names == "" {
		return workload.Builtins(), nil
	}
	var specs []workload.Scenario
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		s, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (try -list)", n)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// createOutFile opens an optional output path up front (nil when the
// flag is unset), wrapping any failure in the flag's name so the caller
// can report it as a usage error.
func createOutFile(flagName, path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	return f, nil
}

// validateTopologyFlags checks the scenarios subcommand's topology
// flags against every selected scenario before anything runs.  The
// workload layer clamps Nodes to the core count for programmatic
// callers; at the CLI that clamp would silently benchmark a different
// machine than the user asked for, so here it is a usage error.
func validateTopologyFlags(specs []workload.Scenario, nodes int, pin, claim string, perNode bool, shards, wmark, steal int, allocPol string) error {
	switch pin {
	case "", "none", "rr", "split":
	default:
		return fmt.Errorf(`unknown -pin policy %q (want "none", "rr", or "split")`, pin)
	}
	switch claim {
	case "", "affinity", "rr":
	default:
		return fmt.Errorf(`unknown -claim order %q (want "affinity" or "rr")`, claim)
	}
	pol, err := simmem.ParsePolicy(allocPol)
	if err != nil {
		return fmt.Errorf("-allocpolicy: %w", err)
	}
	if nodes < 0 {
		return fmt.Errorf("-nodes %d: node count cannot be negative", nodes)
	}
	if shards < 0 {
		return fmt.Errorf("-shards %d: shard count cannot be negative", shards)
	}
	if wmark < 0 {
		return fmt.Errorf("-watermark %d: collect watermark cannot be negative", wmark)
	}
	if steal < 0 {
		return fmt.Errorf("-steal %d: steal threshold cannot be negative", steal)
	}
	if perNode && nodes > core.MaxRoutedNodes {
		return fmt.Errorf("-pernode supports at most %d nodes (the node tag rides in the ring entry's low bits), got -nodes %d",
			core.MaxRoutedNodes, nodes)
	}
	for i := range specs {
		sc := specs[i]
		if err := sc.Fill(); err != nil {
			return err
		}
		cores := sc.Cores
		if nodes > cores {
			return fmt.Errorf("scenario %q runs on %d cores; -nodes %d cannot split them into more nodes than cores",
				sc.Name, cores, nodes)
		}
		// The flag overrides the scenario's topology, so judge -pernode
		// against the *effective* node count of the run.
		effNodes := sc.Nodes
		if nodes > 0 {
			effNodes = nodes
		}
		if perNode && effNodes <= 1 {
			return fmt.Errorf("scenario %q would run flat (%d node): -pernode needs a multi-node topology (raise -nodes)",
				sc.Name, effNodes)
		}
		// A per-node allocation policy on a flat run would silently
		// benchmark the single global pool under the policy's name —
		// judge the *effective* policy of the run (flag override, else
		// the scenario's own knob), exactly like -pernode above.
		effPolicy := pol
		if allocPol == "" {
			effPolicy, _ = simmem.ParsePolicy(sc.AllocPolicy) // Fill validated it
		}
		if effPolicy != simmem.PolicyGlobal && effNodes <= 1 {
			return fmt.Errorf("scenario %q would run flat (%d node): allocation policy %s needs a multi-node topology (raise -nodes)",
				sc.Name, effNodes, effPolicy)
		}
	}
	return nil
}

// writeScenarioTable renders the grid: throughput and peak unreclaimed
// garbage per scenario x structure x scheme, with the full collect-
// pipeline counter set — the same counters the JSON path carries, so
// neither output is the poor relation.
func writeScenarioTable(w io.Writer, results []harness.ScenarioResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tds\tscheme\tthr/cores\tnodes\talloc\tops\tops/vsec\tpeak-garbage-nodes\tpeak-garbage-words\tfinal-garbage\tchurned\tcollect-cyc\tparked-scans\tdbl-retires\thelp-sorted\thelp-swept\tlocal-claims\tremote-claims\tremote-fills\tsweep-remote\tstolen\tovl\tremote-allocs\thome-frees\tremote-frees")
	for _, r := range results {
		var collectCyc int64
		var parkedScans, dblRetires, helpSorted, helpSwept, localClaims, remoteClaims uint64
		var sweepRemote, stolen, overlapped uint64
		if r.Core != nil {
			collectCyc = r.Core.CollectCycles
			parkedScans = r.Core.ParkedScans
			dblRetires = r.Core.DoubleRetires
			helpSorted = r.Core.HelpSortedShards
			helpSwept = r.Core.HelpSweptShards
			localClaims = r.Core.LocalShardClaims
			remoteClaims = r.Core.RemoteShardClaims
			sweepRemote = r.Core.SweepRemoteFills
			stolen = r.Core.StolenCollects + r.Core.StolenSweeps
			overlapped = r.Core.OverlappedCollects
		}
		nodes := r.Nodes
		if nodes == 0 {
			nodes = 1
		}
		alloc := r.AllocPolicy
		if alloc == "" {
			alloc = "global"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%d\t%s\t%d\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Name, r.DS, r.Scheme, r.Threads, r.Cores, nodes, alloc, r.Ops, r.Throughput,
			r.Footprint.PeakRetiredNodes, r.Footprint.PeakRetiredWords,
			r.Footprint.FinalRetiredNodes, r.ChurnWorkers, collectCyc, parkedScans, dblRetires,
			helpSorted, helpSwept, localClaims, remoteClaims, r.Sim.RemoteLineFills,
			sweepRemote, stolen, overlapped, r.Heap.RemoteAllocs, r.Heap.HomeFrees, r.Heap.RemoteFrees)
	}
	tw.Flush()
}
