// Package threadscan is a Go reproduction of "ThreadScan: Automatic and
// Scalable Memory Reclamation" (Alistarh, Leiserson, Matveev, Shavit —
// SPAA 2015): concurrent memory reclamation that discovers live
// references automatically, by interrupting threads with signals and
// scanning their stacks and registers, instead of asking the programmer
// to track accesses (hazard pointers) or bracket operations (epochs).
//
// Because the mechanism is inseparable from an unmanaged runtime — real
// ThreadScan hooks pthreads and POSIX signals and scans machine stacks,
// none of which safe Go exposes — this library reproduces the system on
// a deterministic simulated substrate:
//
//   - a discrete-event thread scheduler with virtual cores, quanta,
//     signals, and a cycle-accurate virtual clock (internal/simt);
//   - a word-addressable checked heap with a TCMalloc-style allocator,
//     where any unsound free becomes a detected access violation
//     (internal/simmem);
//   - the ThreadScan protocol itself (internal/core), every baseline
//     the paper evaluates (internal/reclaim), and the paper's three
//     benchmark data structures (internal/ds);
//   - the evaluation harness that regenerates the paper's figures
//     (internal/harness).
//
// This package is the public facade: thin constructors and type
// aliases over those internals.  See README.md for a tour and for why
// the system runs on a simulated substrate (its introduction and
// "Determinism" section), and bench/README.md for measured results.
//
// # Quick start
//
//	sim := threadscan.NewSimulation(threadscan.SimConfig{Cores: 4})
//	ts := threadscan.New(sim, threadscan.Config{})
//	list := threadscan.NewList(sim, ts, 0)
//	for i := 0; i < 4; i++ {
//		sim.Spawn("worker", func(th *threadscan.Thread) {
//			list.Insert(th, 42)
//			list.Remove(th, 42) // unlinked nodes are retired to ThreadScan
//		})
//	}
//	if err := sim.Run(); err != nil { ... }
package threadscan

import (
	"io"

	"threadscan/internal/core"
	"threadscan/internal/ds"
	"threadscan/internal/harness"
	"threadscan/internal/obs"
	"threadscan/internal/reclaim"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
	"threadscan/internal/workload"
)

// Simulation substrate.
type (
	// Sim is a deterministic simulation instance: heap, threads,
	// scheduler.
	Sim = simt.Sim
	// Thread is a simulated thread: register file, word stack, virtual
	// clock.
	Thread = simt.Thread
	// SimConfig configures a simulation (cores, quantum, seed, heap...).
	SimConfig = simt.Config
	// CostModel assigns virtual-cycle costs to primitives.
	CostModel = simt.CostModel
	// HeapConfig configures the simulated heap.
	HeapConfig = simmem.Config
	// Violation is a detected memory-safety violation (the checked
	// heap's verdict on an unsound reclamation scheme).
	Violation = simmem.Violation
)

// NewSimulation creates a simulation from cfg.
func NewSimulation(cfg SimConfig) *Sim { return simt.New(cfg) }

// DefaultCosts returns the calibrated cycle-cost model.
func DefaultCosts() CostModel { return simt.DefaultCosts() }

// The ThreadScan protocol (the paper's contribution).
type (
	// Config parameterizes a ThreadScan domain: delete buffer size,
	// scan lookup structure, and the sharded collect pipeline's knobs —
	// Shards (K address-sharded master sub-buffers that scanners help
	// sort), CollectWatermark (adaptive global collect trigger), and
	// HelpFree (the §7 scanner-assisted sweep).
	Config = core.Config
	// ThreadScan is a reclamation domain: per-thread delete buffers and
	// the signal-and-scan collect protocol.
	ThreadScan = reclaim.ThreadScan
	// Stats are ThreadScan protocol counters.
	Stats = core.Stats
	// LookupKind selects the TS-Scan membership structure.
	LookupKind = core.LookupKind
)

// TS-Scan lookup structures (ablation A3; the paper uses LookupBinary).
const (
	LookupBinary = core.LookupBinary
	LookupLinear = core.LookupLinear
	LookupHash   = core.LookupHash
)

// New creates a ThreadScan reclamation domain bound to sim.  It must be
// called before sim.Run (it installs thread start/exit hooks and the
// scan signal handler).  The returned value implements Scheme; the
// paper's free() is its Retire method, and the §4.3 heap-block
// extension is available via Core().AddHeapBlock.
func New(sim *Sim, cfg Config) *ThreadScan { return reclaim.NewThreadScan(sim, cfg) }

// Baseline reclamation schemes (the paper's §6 comparators).
type (
	// Scheme is the common reclamation interface (BeginOp/EndOp,
	// Protect, Retire, Flush).
	Scheme = reclaim.Scheme
	// SchemeStats are generic scheme counters.
	SchemeStats = reclaim.Stats
	// HazardConfig parameterizes hazard pointers.
	HazardConfig = reclaim.HazardConfig
	// EpochConfig parameterizes epoch-based reclamation (and its Slow
	// Epoch variant via DelayCycles).
	EpochConfig = reclaim.EpochConfig
	// StackTrackConfig parameterizes the StackTrack-style baseline.
	StackTrackConfig = reclaim.StackTrackConfig
)

// NewLeaky returns the no-reclamation baseline.
func NewLeaky(sim *Sim) Scheme { return reclaim.NewLeaky(sim) }

// NewHazard returns a hazard-pointer domain (Michael [37]).
func NewHazard(sim *Sim, cfg HazardConfig) Scheme { return reclaim.NewHazard(sim, cfg) }

// NewEpoch returns an epoch-based domain (Harris [20], McKenney [36]).
func NewEpoch(sim *Sim, cfg EpochConfig) Scheme { return reclaim.NewEpoch(sim, cfg) }

// NewSlowEpoch returns the paper's Slow Epoch variant: epoch-based
// reclamation with an errant thread that busy-waits delayCycles during
// its cleanup phase.
func NewSlowEpoch(sim *Sim, batch int, delayCycles int64) Scheme {
	return reclaim.NewSlowEpoch(sim, batch, delayCycles)
}

// NewStackTrack returns the StackTrack-style published-live-set
// baseline, an extension beyond the paper's baselines: threads publish
// shadow copies of their registers and stack that reclaimers scan
// instead of signalling (see internal/reclaim/stacktrack.go).
func NewStackTrack(sim *Sim, cfg StackTrackConfig) Scheme { return reclaim.NewStackTrack(sim, cfg) }

// Benchmark data structures (the paper's §6 workloads, plus the
// LIFO/FIFO structures the scenario suite adds).
type (
	// Set is the common concurrent-set interface.
	Set = ds.Set
	// List is Harris' lock-free linked list.
	List = ds.List
	// HashTable is the lock-free hash table (buckets of Harris lists).
	HashTable = ds.HashTable
	// SkipList is the lock-based lazy skip list.
	SkipList = ds.SkipList
	// Stack is the Treiber lock-free stack (LIFO retirement pattern).
	Stack = ds.Stack
	// Queue is the Michael–Scott lock-free queue (FIFO retirement
	// pattern).
	Queue = ds.Queue
)

// Key bounds usable by the data structures (extremes are sentinels).
const (
	MinKey = ds.MinKey
	MaxKey = ds.MaxKey
)

// SkipListHazardSlots is the hazard-slot count a Hazard domain needs to
// run the skip list.
const SkipListHazardSlots = ds.SkipListHazardSlots

// NewList creates an empty Harris list.  nodeBytes of 0 selects the
// paper's 172-byte padded nodes.
func NewList(sim *Sim, scheme Scheme, nodeBytes int) *List {
	return ds.NewList(sim, scheme, nodeBytes)
}

// NewHashTable creates a hash table with nBuckets buckets of Harris
// lists.
func NewHashTable(sim *Sim, scheme Scheme, nBuckets, nodeBytes int) *HashTable {
	return ds.NewHashTable(sim, scheme, nBuckets, nodeBytes)
}

// NewSkipList creates a lock-based lazy skip list.
func NewSkipList(sim *Sim, scheme Scheme) *SkipList {
	return ds.NewSkipList(sim, scheme)
}

// NewStack creates an empty Treiber stack.  nodeBytes of 0 selects
// cache-line-sized (64-byte) nodes.
func NewStack(sim *Sim, scheme Scheme, nodeBytes int) *Stack {
	return ds.NewStack(sim, scheme, nodeBytes)
}

// NewQueue creates an empty Michael–Scott queue.  nodeBytes of 0
// selects cache-line-sized (64-byte) nodes.
func NewQueue(sim *Sim, scheme Scheme, nodeBytes int) *Queue {
	return ds.NewQueue(sim, scheme, nodeBytes)
}

// Evaluation harness (regenerates the paper's figures).  Every figure
// point is a scenario run on the checked heap.
type (
	// SweepParams parameterizes a figure sweep.
	SweepParams = harness.SweepParams
	// Figure is a reproduced figure panel.
	Figure = harness.Figure
)

// Workload scales.
const (
	ScaleQuick = harness.ScaleQuick
	ScalePaper = harness.ScalePaper
)

// PaperScenario returns the paper's §6 workload for one structure
// ("list", "hash" or "skiplist") at p's scale: uniform keys, 20%
// updates, one measured window of p.Duration cycles.  Set Scheme,
// Threads and Cores on it and run it with RunScenario.
func PaperScenario(dsName string, p SweepParams) Scenario { return harness.PaperScenario(dsName, p) }

// RunFig3 reproduces one panel of the paper's Figure 3 (throughput
// scaling up to the hardware thread count).
func RunFig3(dsName string, p SweepParams) (Figure, error) { return harness.RunFig3(dsName, p) }

// RunFig4 reproduces one panel of the paper's Figure 4 (the
// oversubscribed system).
func RunFig4(dsName string, p SweepParams) (Figure, error) { return harness.RunFig4(dsName, p) }

// Declarative workload scenarios (internal/workload + the harness's
// scenario engine): phased op mixes, skewed key distributions, mid-run
// thread churn, and the memory-footprint telemetry every scenario
// reports next to throughput.
type (
	// Scenario is one declarative workload description.
	Scenario = workload.Scenario
	// ScenarioPhase is one mix+distribution window of a scenario.
	ScenarioPhase = workload.Phase
	// OpMix is an operation mix (insert/remove percentages).
	OpMix = workload.Mix
	// KeyDist describes a key distribution (uniform, zipf, hotspot,
	// sliding window).
	KeyDist = workload.Dist
	// ChurnSpec describes mid-run thread turnover.
	ChurnSpec = workload.Churn
	// WorkloadOp is an abstract operation kind (lookup/insert/remove).
	WorkloadOp = workload.Op
	// WorkloadTarget adapts any structure to the scenario engine.
	WorkloadTarget = workload.Target
	// ScenarioResult is one scenario outcome: throughput, op-trace
	// digest, and footprint telemetry.
	ScenarioResult = harness.ScenarioResult
	// Footprint holds the memory-robustness peaks; the sampled series
	// are ScenarioResult.Metrics' footprint_* series.
	Footprint = harness.Footprint
)

// Key distribution kinds.
const (
	DistUniform = workload.DistUniform
	DistZipf    = workload.DistZipf
	DistHotspot = workload.DistHotspot
	DistWindow  = workload.DistWindow
)

// Abstract operation kinds.
const (
	OpLookup = workload.OpLookup
	OpInsert = workload.OpInsert
	OpRemove = workload.OpRemove
)

// BuiltinScenarios returns the named scenario suite (zipfian-skew,
// delete-storm, thread-churn, oversubscribed variants, ...).
func BuiltinScenarios() []Scenario { return workload.Builtins() }

// ScenarioByName returns the named built-in scenario.
func ScenarioByName(name string) (Scenario, bool) { return workload.ByName(name) }

// RunScenario executes one scenario and returns its result.
func RunScenario(s Scenario) (ScenarioResult, error) { return harness.RunScenario(s) }

// WorkloadTargetFor adapts a structure built from this package's
// constructors to the scenario engine's op surface.
func WorkloadTargetFor(structure any) (WorkloadTarget, error) {
	return workload.TargetFor(structure)
}

// Observability (internal/obs): virtual-time lifecycle spans, HDR-style
// latency histograms, and Chrome-trace export.  Recording is keyed on
// the simulator's virtual clock and never charges virtual cycles, so an
// instrumented run's results are bit-identical to an uninstrumented
// one's.
type (
	// Recorder collects per-thread spans and latency histograms for one
	// run.  A nil or zero-value Recorder is disabled and allocates
	// nothing on the hot path.
	Recorder = obs.Recorder
	// LatencySummary is a run's quantile report: per-op latency,
	// max-pause, and per-stage breakdowns (ScenarioResult.Latency).
	LatencySummary = obs.Summary
	// LatencyQuantiles is one histogram's p50/p95/p99/p999/max readout.
	LatencyQuantiles = obs.Quantiles
	// TraceRun pairs a recorder with a label and phase windows for
	// Chrome-trace export.
	TraceRun = obs.TraceRun
	// TraceWindow is one labeled band on the trace's phase row.
	TraceWindow = obs.Window
)

// NewRecorder returns an enabled histogram-only recorder (quantiles and
// max-pause, no span storage) — what RunScenario attaches by default.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// NewTraceRecorder returns a recorder that additionally stores every
// lifecycle span and instant for Chrome-trace export.
func NewTraceRecorder() *Recorder { return obs.NewTraceRecorder() }

// RunScenarioRecorded executes one scenario with rec attached to the
// simulator, allocator, and scheme.  Pass nil to disable observability
// entirely; every result field except Latency is identical either way.
func RunScenarioRecorded(s Scenario, rec *Recorder) (ScenarioResult, error) {
	return harness.RunScenarioRecorded(s, rec)
}

// WriteChromeTrace writes the runs as Chrome trace-event JSON, loadable
// in chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, runs []TraceRun) error { return obs.WriteChromeTrace(w, runs) }

// WriteProfile writes a per-stage cycle-attribution table for one run.
func WriteProfile(w io.Writer, label string, rec *Recorder) error {
	return obs.WriteProfile(w, label, rec)
}

// Virtual-time metrics engine (internal/obs): named counter/gauge/rate/
// quantile timelines sampled on virtual-clock ticks.  Set
// Scenario.MetricsEvery (-1 for the footprint cadence) and every
// ScenarioResult carries the run's series; like the Recorder, sampling
// never charges virtual cycles, so results are bit-identical with
// metrics on or off.
type (
	// Metrics is a per-run metrics registry and its sampled timelines.
	// A nil or zero-value Metrics is disabled and allocates nothing.
	Metrics = obs.Metrics
	// MetricSeries is one named timeline with its steady-state digest
	// (ScenarioResult.Metrics).
	MetricSeries = obs.Series
	// MetricPoint is one (virtual cycle, value) sample.
	MetricPoint = obs.Point
	// MetricsCell labels one grid cell's series for export and diffing.
	MetricsCell = obs.MetricsCell
	// MetricsDrift is one flagged series shift from DiffMetrics.
	MetricsDrift = obs.Drift
)

// NewMetrics returns an enabled registry sampling every `every` virtual
// cycles (pass 0 to disable the ticker).
func NewMetrics(every int64) *Metrics { return obs.NewMetrics(every) }

// WriteMetricsJSON / ReadMetricsJSON round-trip exported metrics cells
// (the `tsbench scenarios -metrics` format).
func WriteMetricsJSON(w io.Writer, cells []MetricsCell) error { return obs.WriteMetricsJSON(w, cells) }

// ReadMetricsJSON parses a metrics export written by WriteMetricsJSON.
func ReadMetricsJSON(r io.Reader) ([]MetricsCell, error) { return obs.ReadMetricsJSON(r) }

// WriteMetricsCSV writes the cells as long-format CSV (one row per
// point).
func WriteMetricsCSV(w io.Writer, cells []MetricsCell) error { return obs.WriteMetricsCSV(w, cells) }

// DiffMetrics compares two metrics exports cell by cell and returns the
// series whose steady-state mean shifted beyond tol (the `tsbench
// metrics-diff` engine).
func DiffMetrics(old, new []MetricsCell, tol float64) []MetricsDrift {
	return obs.DiffMetrics(old, new, tol)
}

// WriteTimeline renders the cells' series as sparkline tables (the
// `tsbench timeline` report).  filter selects series by substring; ""
// keeps all.
func WriteTimeline(w io.Writer, cells []MetricsCell, filter string) error {
	return obs.WriteTimeline(w, cells, filter)
}
