// Command tsbench regenerates the paper's evaluation — both figure
// families (Figure 3: throughput scaling; Figure 4: oversubscription)
// and the design-choice ablations selected by -ablation (A1 buffer
// size, A2 scan cost, A3 scan lookup, A4 errant thread, A5 sharded
// collect, through A10 bounded garbage under preemption) — and
// runs the declarative scenario suite (skew, delete storms, thread
// churn, oversubscription) with memory-footprint telemetry.  `tsbench
// golden` replays all of it against one checked-in manifest.
//
// Examples:
//
//	tsbench -fig 3 -ds list                 # one Figure 3 panel, quick scale
//	tsbench -fig 4 -ds all -csv fig4.csv    # all Figure 4 panels + CSV
//	tsbench -fig 3 -ds hash -scale paper    # paper-exact workload (slow!)
//	tsbench -ablation stall                 # A4: errant-thread contrast
//	tsbench -ablation robust                # A10: bounded garbage under preemption
//	tsbench -single -ds skiplist -scheme threadscan -threads 16 -cores 8
//
//	tsbench scenarios -list                 # name every built-in scenario
//	tsbench scenarios                       # full suite as JSON on stdout
//	tsbench scenarios -scenario delete-storm,thread-churn -ds stack,queue
//	tsbench scenarios -json suite.json -samples   # with footprint series
//
//	tsbench scenarios -metrics m.json       # per-series virtual-time timelines
//	tsbench timeline m.json                 # sparkline/table report of a metrics file
//	tsbench metrics-diff old.json new.json  # flag steady-state drift between runs
//
//	tsbench harness-bench                   # append a wall-clock trajectory row
//	tsbench harness-bench -check            # and fail on >2x regression
//
//	tsbench golden                          # replay every pinned virtual output
//	tsbench golden -update                  # list the moved rows, rewrite the manifest
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"threadscan/internal/harness"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scenarios" {
		runScenarios(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "harness-bench" {
		runHarnessBench(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "golden" {
		runGolden(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "timeline" {
		runTimeline(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "metrics-diff" {
		runMetricsDiff(os.Args[2:])
		return
	}
	var (
		figNum   = flag.Int("fig", 0, "figure to reproduce: 3 or 4")
		ablation = flag.String("ablation", "", "ablation to run: "+strings.Join(harness.AblationNames(), " | "))
		single   = flag.Bool("single", false, "run the paper scenario once and dump its stats")
		dsName   = flag.String("ds", "all", "data structure: list | hash | skiplist | all")
		scheme   = flag.String("scheme", "threadscan", "scheme for -single")
		scale    = flag.String("scale", "quick", "workload scale: quick | paper")
		threads  = flag.String("threads", "", "comma-separated thread counts (sweeps) or count (-single)")
		cores    = flag.Int("cores", 0, "virtual cores (0 = per-scale default)")
		duration = flag.Float64("duration-ms", 50, "measured window per point, in virtual milliseconds")
		quantum  = flag.Float64("quantum-us", 0, "scheduler timeslice in virtual microseconds (0 = 125, or 1000 for the paper scenario at -scale paper)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		cacheSim = flag.Bool("cache", true, "enable the per-core cache model")
		csvPath  = flag.String("csv", "", "also write figure results as CSV to this file")
		buffer   = flag.Int("buffer", 0, "per-thread delete buffer for -single (0 = the scale's default)")
		batch    = flag.Int("batch", 0, "reclaim batch for -single (0 = the scale's default)")
		ablScen  = flag.String("ablation-scenario", "", "comma-separated subject scenario(s) for -ablation shards/numa/pernode/allocpool/overlap/robust")
		shardKs  = flag.String("shard-counts", "", "comma-separated K values for -ablation shards (default 1,2,4,8,16)")
		trace    = flag.String("trace", "", "tracing is a scenarios feature; see: tsbench scenarios -trace out.json")
	)
	flag.Parse()

	if err := validateRootTrace(*trace, *ablation); err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		flag.Usage()
		os.Exit(2)
	}

	// An unknown scheme is a usage error at parse time, not a failure
	// after the run starts — same policy as scenario and topology names.
	if !harness.KnownScheme(*scheme) {
		fmt.Fprintf(os.Stderr, "tsbench: unknown scheme %q (known: %s)\n",
			*scheme, strings.Join(harness.SchemeNames(), ", "))
		flag.Usage()
		os.Exit(2)
	}

	params := harness.SweepParams{
		Scale:    parseScale(*scale),
		Cores:    *cores,
		Duration: int64(*duration * 1e6),
		Quantum:  int64(*quantum * 1e3),
		Seed:     *seed,
		CacheSim: *cacheSim,
	}
	if *threads != "" && !*single {
		params.ThreadCounts = parseInts(*threads, "thread count")
	}

	switch {
	case *single:
		runSingle(*dsName, *scheme, *threads, params, *buffer, *batch)
	case *ablation != "":
		ap := harness.AblationParams{SweepParams: params, Scenarios: splitList(*ablScen)}
		if *shardKs != "" && *ablation == "shards" {
			for _, k := range parseInts(*shardKs, "shard count") {
				ap.Values = append(ap.Values, int64(k))
			}
		}
		runAblation(*ablation, ap)
	case *figNum == 3 || *figNum == 4:
		runFigure(*figNum, *dsName, params, *csvPath)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tsbench:", err)
	os.Exit(1)
}

// validateRootTrace rejects -trace on the root command: traces come
// from the scenario engine, and silently ignoring the flag on a figure
// or ablation run would look like an empty-trace bug.  A usage error at
// parse time, matching the topology-flag validation style.
func validateRootTrace(trace, ablation string) error {
	if trace == "" {
		return nil
	}
	if ablation != "" {
		return fmt.Errorf("-trace cannot be combined with -ablation: tracing is a scenarios feature (tsbench scenarios -trace %s)", trace)
	}
	return fmt.Errorf("-trace applies to the scenarios subcommand: tsbench scenarios -trace %s", trace)
}

func parseScale(s string) harness.Scale {
	switch s {
	case "quick":
		return harness.ScaleQuick
	case "paper":
		return harness.ScalePaper
	default:
		fatal(fmt.Errorf("unknown scale %q", s))
		return 0
	}
}

func parseInts(s, what string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad %s %q", what, part))
		}
		out = append(out, n)
	}
	return out
}

// splitList parses a comma-separated flag value into trimmed names
// (empty slice for an empty value).
func splitList(s string) []string {
	var out []string
	if s != "" {
		for _, part := range strings.Split(s, ",") {
			out = append(out, strings.TrimSpace(part))
		}
	}
	return out
}

func dsNames(s string) []string {
	if s == "all" {
		return []string{"list", "hash", "skiplist"}
	}
	if s == "skip" {
		return []string{"skiplist"}
	}
	return []string{s}
}

func runFigure(fig int, dsArg string, params harness.SweepParams, csvPath string) {
	var csvFile *os.File
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		csvFile = f
	}
	for _, name := range dsNames(dsArg) {
		var (
			figure harness.Figure
			err    error
		)
		if fig == 3 {
			figure, err = harness.RunFig3(name, params)
		} else {
			figure, err = harness.RunFig4(name, params)
		}
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteTable(os.Stdout, figure); err != nil {
			fatal(err)
		}
		fmt.Println()
		if csvFile != nil {
			if err := harness.WriteCSV(csvFile, figure); err != nil {
				fatal(err)
			}
		}
	}
}

func runAblation(kind string, params harness.AblationParams) {
	a, ok := harness.AblationByName(kind)
	if !ok {
		fatal(fmt.Errorf("unknown ablation %q (known: %s)", kind, strings.Join(harness.AblationNames(), ", ")))
	}
	rows, err := a.Run(params)
	if err != nil {
		fatal(err)
	}
	if err := harness.WriteAblationTable(os.Stdout, a, rows); err != nil {
		fatal(err)
	}
}

// runSingle runs the paper scenario once per structure and dumps its
// stats.
func runSingle(dsArg, scheme, threadsArg string, params harness.SweepParams, buffer, batch int) {
	n := 4
	if threadsArg != "" {
		n = parseInts(threadsArg, "thread count")[0]
	}
	for _, name := range dsNames(dsArg) {
		spec := harness.PaperScenario(name, params)
		spec.Scheme, spec.Threads, spec.Cores = scheme, n, params.Cores
		if buffer > 0 {
			spec.BufferSize = buffer
		}
		if batch > 0 {
			spec.Batch = batch
		}
		r, err := harness.RunScenario(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s/%s threads=%d cores=%d\n", name, scheme, n, r.Cores)
		fmt.Printf("  ops            %d\n", r.Ops)
		fmt.Printf("  elapsed        %.3f virtual ms (wall %v)\n", r.VirtualSeconds*1e3, r.WallTime)
		fmt.Printf("  throughput     %.0f ops/vsec\n", r.Throughput)
		fmt.Printf("  final size     %d\n", r.FinalSize)
		fmt.Printf("  scheme stats   %+v\n", r.SchemeStats)
		if r.Core != nil {
			fmt.Printf("  threadscan     %+v\n", *r.Core)
		}
		fmt.Printf("  sim stats      %+v\n", r.Sim)
		fmt.Printf("  heap           allocs=%d frees=%d live=%d\n",
			r.Heap.Allocs, r.Heap.Frees, r.Heap.LiveBlocks)
	}
}
