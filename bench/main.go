// Command bench is the repository's benchmark.  It runs one of four
// fixed threadscan workloads through harness.RunScenarioRecorded for a
// fixed host-time budget, checks every run for soundness and
// determinism, and prints each metric by name with its unit, then one
// JSON summary line.
//
// Metrics live on two clocks.  Virtual metrics are simulated cycles,
// exact per seed; host metrics are real time on the machine running the
// benchmark.  With -trace 0 the program reports the end-to-end metrics;
// with -trace 1 it reports per-layer metrics instead: counters read
// from the result structs, timed calls into each layer's public
// functions, and each layer's share of host CPU from a profiled, span-
// recording pass.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload paper-list --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"threadscan/internal/obs"
)

func main() {
	// The simulator runs one simulated thread at a time, so a second P
	// only adds cross-CPU goroutine handoffs at every dispatch.  On a
	// 2-vCPU VM, runs with one P were 8-17% faster and their
	// host_ns_per_op spread half as wide (README.md, "Noise").
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // printed next to the value, not in the JSON summary
}

// summary is the JSON line that ends the output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-list, retire-storm, crowded-churn or numa-local")
	seed := fs.Int64("seed", 1, "benchmark seed; the simulation inputs are a function of it")
	seconds := fs.Int("seconds", 20, "host seconds to spend on measured reps")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced pass")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write a CPU profile and a Chrome trace of the workload here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	s := newSession(w, *seed, 1)
	budget := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "workload %s  seed %d  GOMAXPROCS %d  %s %s/%s\n",
		w.name, *seed, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	var metrics []metric
	if *trace == 0 {
		metrics = measureEndToEnd(s, budget)
	} else {
		metrics, err = measureLayers(s, budget, *traceDir)
		if err != nil {
			s.fail("%v", err)
		}
	}
	return report(stdout, s, metrics)
}

// measureEndToEnd runs untraced reps round-robin over the sub-seeds
// for the budget, every sub-seed at least twice, with two set-up runs
// before each rep so the set-up median samples the whole run rather
// than one moment of it.
func measureEndToEnd(s *session, budget time.Duration) []metric {
	runFor(time.Now().Add(budget), 2, func(sub int) {
		s.timeSetup()
		s.timeSetup()
		s.run(sub, obs.NewRecorder())
	})
	return endToEndMetrics(s.firstReps(), s.reps, s.setups)
}

// endToEndMetrics computes the end-to-end metrics: virtual ones over
// virt (one rep per sub-seed), host ones over every rep in all.
func endToEndMetrics(virt, all []rep, setup []float64) []metric {
	ops := obs.NewHist()
	for _, r := range virt {
		ops.Merge(r.rec.StageHist(obs.StageOp))
	}
	q := func(p float64) float64 { return float64(ops.Quantile(p)) }
	samples := fmt.Sprintf("virtual, %d op samples pooled over %d sub-seeds", ops.Count(), len(virt))
	nsOp := each(all, rep.nsPerOp)
	return []metric{
		{"vthroughput_mops", "Mops/vs", median(each(virt, func(r rep) float64 { return r.res.Throughput / 1e6 })),
			"virtual, median over sub-seeds"},
		{"vop_p50_cycles", "cycles", q(0.50), samples},
		{"vop_p99_cycles", "cycles", q(0.99), samples},
		{"vop_p999_cycles", "cycles", q(0.999), samples},
		{"vmax_pause_cycles", "cycles", median(each(virt, func(r rep) float64 { return float64(r.res.Latency.MaxPauseCycles) })),
			"virtual, median over sub-seeds"},
		{"vpeak_garbage_kwords", "kwords", median(each(virt, func(r rep) float64 { return float64(r.res.Footprint.ExactPeakRetiredWords) / 1000 })),
			"virtual, median over sub-seeds"},
		// The fastest rep, not the median: interference from other
		// tenants only ever adds host time and comes in bursts, so across
		// ten seeds run medians spread 11-19% and fastest reps 4-12%
		// (README.md, "Noise").
		{"host_ns_per_op", "ns", quantile(nsOp, 0),
			fmt.Sprintf("host, fastest of %d reps; quartiles %.1f / %.1f / %.1f",
				len(all), quantile(nsOp, 0.25), median(nsOp), quantile(nsOp, 0.75))},
		{"host_alloc_mb", "MB", median(each(all, func(r rep) float64 { return float64(r.alloc) / 1e6 })),
			fmt.Sprintf("host, median of %d reps", len(all))},
		{"setup_s", "s", median(setup),
			fmt.Sprintf("host, median of %d one-op runs", len(setup))},
	}
}

// measureLayers runs untraced reps for half the budget, then traced
// reps — span recording on and a CPU profile running — for the rest,
// then the layer microbenchmarks.
func measureLayers(s *session, budget time.Duration, traceDir string) ([]metric, error) {
	start := time.Now()
	runFor(start.Add(budget/2), 1, func(sub int) { s.run(sub, obs.NewRecorder()) })

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	runFor(start.Add(budget), 1, func(sub int) { s.run(sub, obs.NewTraceRecorder()) })
	pprof.StopCPUProfile()

	shares, samples, err := layerShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if traceDir != "" {
		if err := writeTraceArtifacts(traceDir, s, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	metrics := layerMetrics(s.firstReps(), s.reps, s.traced)
	metrics = append(metrics, shareMetrics(shares, samples)...)
	return append(metrics, microMetrics()...), nil
}

// shareMetrics reports each layer's share of the traced pass's CPU
// samples.
func shareMetrics(shares map[string]float64, samples int64) []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{l + ".host_self_frac", "fraction", shares[l],
			fmt.Sprintf("host, %d CPU samples of the traced pass", samples)})
	}
	return out
}

// layerMetrics computes the per-layer metrics read from results, each
// a median over the sub-seeds' first untraced reps, plus the host cost
// of the whole engine call and of tracing, from the fastest reps.
func layerMetrics(virt, plain, traced []rep) []metric {
	v := func(name, unit string, f func(rep) float64) metric {
		return metric{name, unit, median(each(virt, f)), "virtual, median over sub-seeds"}
	}
	stage := func(r rep, name string) obs.StageLatency {
		for _, st := range r.res.Latency.Stages {
			if st.Stage == name {
				return st
			}
		}
		return obs.StageLatency{}
	}
	total := func(name string) func(rep) float64 {
		return func(r rep) float64 { return float64(stage(r, name).TotalCycles) }
	}
	p99 := func(name string) func(rep) float64 {
		return func(r rep) float64 { return float64(stage(r, name).P99) }
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	fastest := func(reps []rep, f func(rep) float64) float64 { return quantile(each(reps, f), 0) }
	traceOverhead := ratio(fastest(traced, rep.nsPerOp), fastest(plain, rep.nsPerOp)) - 1
	return []metric{
		v("simt.dispatches", "count", func(r rep) float64 { return float64(r.res.Sim.Dispatches) }),
		v("simt.context_switches", "count", func(r rep) float64 { return float64(r.res.Sim.ContextSwitches) }),
		v("simt.wakeups", "count", func(r rep) float64 { return float64(r.res.Sim.Wakeups) }),
		v("simt.signals_sent", "count", func(r rep) float64 { return float64(r.res.Sim.SignalsSent) }),
		v("simt.signals_delivered", "count", func(r rep) float64 { return float64(r.res.Sim.SignalsDelivered) }),
		v("simt.signal_vcycles", "cycles", total("signal")),
		v("simt.local_line_fills", "count", func(r rep) float64 { return float64(r.res.Sim.LocalLineFills) }),
		v("simt.remote_line_fills", "count", func(r rep) float64 { return float64(r.res.Sim.RemoteLineFills) }),
		v("simmem.allocs", "count", func(r rep) float64 { return float64(r.res.Heap.Allocs) }),
		v("simmem.frees", "count", func(r rep) float64 { return float64(r.res.Heap.Frees) }),
		v("simmem.cache_hit_frac", "fraction", func(r rep) float64 {
			return ratio(float64(r.res.Heap.CacheHits), float64(r.res.Heap.CacheHits+r.res.Heap.CacheMisses))
		}),
		v("simmem.remote_frees", "count", func(r rep) float64 { return float64(r.res.Heap.RemoteFrees) }),
		v("simmem.alloc_vcycles", "cycles", total("alloc")),
		v("simmem.alloc_p99_vcycles", "cycles", p99("alloc")),
		v("core.collects", "count", func(r rep) float64 { return float64(r.res.Core.Collects) }),
		v("core.collect_vcycles", "cycles", total("collect")),
		v("core.collect_p99_vcycles", "cycles", p99("collect")),
		v("core.scan_vcycles", "cycles", total("scan")),
		v("core.handshake_wait_vcycles", "cycles", total("handshake-wait")),
		v("core.handshake_wait_p99_vcycles", "cycles", p99("handshake-wait")),
		v("core.sort_vcycles", "cycles", total("sort")),
		v("core.sweep_vcycles", "cycles", total("sweep")),
		v("core.free_vcycles", "cycles", total("free")),
		v("core.scanned_words_per_collect", "words", func(r rep) float64 {
			return ratio(float64(r.res.Core.ScannedWords), float64(r.res.Core.Collects))
		}),
		v("core.overlapped_collects", "count", func(r rep) float64 { return float64(r.res.Core.OverlappedCollects) }),
		v("core.stolen_collects", "count", func(r rep) float64 { return float64(r.res.Core.StolenCollects) }),
		// Useful work per node a collect examined: freed (by the
		// reclaimer or, under HelpFree, by scanners) against re-buffered.
		v("core.reclaim_yield", "fraction", func(r rep) float64 {
			freed := float64(r.res.Core.Reclaimed + r.res.Core.HelpFreed)
			return ratio(freed, freed+float64(r.res.Core.Remarked))
		}),
		v("reclaim.retired", "count", func(r rep) float64 { return float64(r.res.SchemeStats.Retired) }),
		v("reclaim.freed", "count", func(r rep) float64 { return float64(r.res.SchemeStats.Freed) }),
		v("reclaim.retire_vcycles", "cycles", total("retire")),
		v("reclaim.retire_p99_vcycles", "cycles", p99("retire")),
		v("ds.ops", "count", func(r rep) float64 { return float64(r.res.Ops) }),
		{"harness.run_host_s", "s", fastest(plain, func(r rep) float64 { return r.wall.Seconds() }),
			fmt.Sprintf("host, fastest of %d untraced reps", len(plain))},
		{"trace_overhead_frac", "fraction", traceOverhead,
			fmt.Sprintf("host, fastest of %d traced against fastest of %d untraced reps", len(traced), len(plain))},
	}
}

// microRuns is how many times each primitive is timed.
const microRuns = 5

// microMetrics times every layer primitive microRuns times with a short
// benchtime and reports the medians.
func microMetrics() []metric {
	testing.Init()
	if err := flag.Set("test.benchtime", "50ms"); err != nil {
		panic(err) // testing.Init registers the flag
	}
	var out []metric
	for _, m := range micros {
		var per []float64
		for i := 0; i < microRuns; i++ {
			per = append(per, nsPerOp(testing.Benchmark(m.bench))*m.perNs)
		}
		out = append(out, metric{m.name, m.unit, median(per),
			fmt.Sprintf("host, median of %d testing.Benchmark runs", microRuns)})
	}
	return out
}

// writeTraceArtifacts writes the traced pass's CPU profile and the
// Chrome trace of its first rep into dir.
func writeTraceArtifacts(dir string, s *session, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, s.w.name+".cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	if len(s.traced) == 0 {
		return nil
	}
	r := s.traced[0]
	var ws []obs.Window
	for _, pw := range r.res.Scenario.PhaseWindows() {
		ws = append(ws, obs.Window{Name: pw.Name, Start: r.res.MeasuredStart + pw.Start, End: r.res.MeasuredStart + pw.End})
	}
	f, err := os.Create(filepath.Join(dir, s.w.name+".trace.json"))
	if err != nil {
		return err
	}
	label := fmt.Sprintf("%s seed %d sub-seed %d", s.w.name, s.seed, r.sub)
	if err := obs.WriteChromeTrace(f, []obs.TraceRun{{Label: label, Rec: r.rec, Windows: ws}}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every metric, the gate's verdict, and the JSON summary
// line, and returns the exit code: 1 when any run failed the gate.
func report(stdout io.Writer, s *session, metrics []metric) int {
	for _, m := range metrics {
		fmt.Fprintf(stdout, "  %-34s %16.6f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	frac := 0.0
	if s.tried > 0 {
		frac = float64(s.failed) / float64(s.tried)
	}
	fmt.Fprintf(stdout, "  %-34s %16.6f %-9s %d of %d runs failed the gate\n", "fail_frac", frac, "fraction", s.failed, s.tried)
	for _, why := range s.reasons {
		fmt.Fprintln(stdout, "  FAIL:", why)
	}
	sum := summary{
		Correct:   s.failed == 0 && s.tried > 0,
		Attempted: s.tried,
		Failed:    s.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range metrics {
		sum.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stdout, "  FAIL: encoding summary:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}
