// Package obs is the observability layer: per-thread span recorders and
// HDR-style latency histograms keyed on simt's virtual clock, with
// Chrome trace-event export.
//
// The layer is zero-cost by contract, twice over.  A nil or disabled
// *Recorder makes every recording call a two-comparison no-op that
// allocates nothing — the hot paths stay clean when observability is
// off.  And even an *enabled* recorder never charges virtual cycles: it
// only reads Thread.Now, so attaching one cannot perturb a simulation's
// schedule, clock, or op trace.  Scenario results with recording on are
// bit-identical to results with it off; the invariant is locked down by
// TestObservabilityOffIsBitIdentical in internal/harness.
//
// Recording is two-tier to bound trace volume.  Histogram-only stages
// (per-op latency, retire, alloc) are high-frequency: they feed the
// quantile summaries but are never stored as individual spans.  Traced
// stages (the collect lifecycle: collect, signal, scan, handshake-wait,
// sort, sweep, free, grace-wait) are rare enough to keep span-by-span
// when tracing is on, which is what the Chrome exporter renders.
package obs

import "threadscan/internal/simt"

// Stage labels one kind of timed activity.  The collect-lifecycle
// stages mirror the ThreadScan protocol's phases: a collect triggers,
// broadcasts signals, each peer runs its scan handler, the collector
// waits at the handshake barrier, scanners sort shards, and the
// collector sweeps and frees.
type Stage uint8

const (
	// StageOp is one workload operation (histogram-only).
	StageOp Stage = iota
	// StageRetire is one scheme-level Retire call (histogram-only).
	StageRetire
	// StageAlloc is one Thread.Alloc (histogram-only).
	StageAlloc
	// StageCollect is a whole collect pass, trigger to completion.
	StageCollect
	// StageSignal is the collector's signal broadcast to all peers.
	StageSignal
	// StageScan is one thread's scan-handler execution, entry to exit.
	StageScan
	// StageHandshake is time blocked waiting on the ACK handshake
	// barrier.
	StageHandshake
	// StageSort is sorting one shard of the master buffer (local or
	// stolen).
	StageSort
	// StageSweep is the collector's sweep over the sorted buffer.
	StageSweep
	// StageFree is batch-freeing proven-dead blocks (collector sweep
	// tail or a scanner's help-free slice).
	StageFree
	// StageGraceWait is time blocked waiting for a grace period
	// (epoch/stacktrack analogue of the handshake wait).
	StageGraceWait
	// StageAdjust is a robust scheme's EndOp reference-adjustment pass
	// over the batches the finishing operation entered (hyaline).
	StageAdjust

	numStages
)

var stageNames = [numStages]string{
	"op", "retire", "alloc", "collect", "signal", "scan",
	"handshake-wait", "sort", "sweep", "free", "grace-wait",
	"adjust",
}

// stageTraced marks the stages whose completed spans are stored when
// tracing is on.  Histogram-only stages (op, retire, alloc) fire per
// operation and would dwarf the lifecycle signal they surround.
var stageTraced = [numStages]bool{
	StageCollect: true, StageSignal: true, StageScan: true,
	StageHandshake: true, StageSort: true, StageSweep: true,
	StageFree: true, StageGraceWait: true, StageAdjust: true,
}

// String returns the stage's trace name.
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// Stages returns all stages in declaration order (summary/table order).
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Kind labels an instant event — a point in virtual time with no
// duration.
type Kind uint8

const (
	// KindTrigger marks a collect triggered by a full delete buffer.
	KindTrigger Kind = iota
	// KindWatermark marks a collect triggered by the global watermark.
	KindWatermark
	// KindSignal marks one scan signal sent to a peer.
	KindSignal
	// KindSteal marks a reclaimer stealing another node's collect.
	KindSteal
	// KindRemoteFlush marks a cross-node free batch flushing to its
	// home pool's remote inbox.
	KindRemoteFlush

	numKinds
)

var kindNames = [numKinds]string{
	"trigger", "watermark", "signal", "steal", "remote-flush",
}

// String returns the kind's trace name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one completed traced span on one thread.  Node attributes
// the span to a NUMA node's collect pipeline (-1 when the span is not
// node-scoped); with concurrent per-node collects, overlapping
// lifecycle spans are told apart by it.
type Span struct {
	Stage Stage
	Start int64 // virtual cycles
	Dur   int64
	Node  int
}

// Instant is one point event on one thread.
type Instant struct {
	Kind Kind
	At   int64 // virtual cycles
}

type openSpan struct {
	stage Stage
	start int64
	node  int
}

// threadRec is one thread's recording state: its open-span stack and,
// when tracing, its stored spans and instants.  Thread ids are dense
// and never reused (SpawnFrom keeps allocating fresh ids), so a churned
// thread's record survives its exit and exports exactly once.
type threadRec struct {
	id       int
	name     string
	open     []openSpan
	spans    []Span
	instants []Instant
}

// Recorder accumulates spans, instants, and histograms for one
// simulation run.  The zero value (and a nil pointer) is a disabled
// recorder: every method returns immediately without allocating.
// Construct enabled recorders with NewRecorder or NewTraceRecorder.
//
// A Recorder needs no synchronization: the simt scheduler runs exactly
// one thread between safepoints, so recording calls never race.
type Recorder struct {
	enabled bool
	trace   bool

	threads []*threadRec // indexed by thread id
	kinds   [numKinds]int64
	// stages holds one histogram per stage across every thread,
	// allocated at the stage's first observation.  Nothing reads one
	// thread's distribution, so the summaries read these directly.
	stages [numStages]*Hist

	remoteLineFills    int64
	allocRemoteFills   int64
	remoteFlushBatches int64
	remoteFlushBlocks  int64
	inboxDrains        int64
	inboxBlocks        int64
}

// NewRecorder returns an enabled histogram-only recorder: quantile
// summaries without span storage.
func NewRecorder() *Recorder { return &Recorder{enabled: true} }

// NewTraceRecorder returns an enabled recorder that also stores
// lifecycle spans and instants for Chrome trace export.
func NewTraceRecorder() *Recorder { return &Recorder{enabled: true, trace: true} }

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// Tracing reports whether the recorder stores spans for export.
func (r *Recorder) Tracing() bool { return r != nil && r.trace }

// observe records one duration of stage s.
func (r *Recorder) observe(s Stage, dur int64) {
	h := r.stages[s]
	if h == nil {
		h = NewHist()
		r.stages[s] = h
	}
	h.Observe(dur)
}

// rec returns (creating if needed) the record for t.
func (r *Recorder) rec(t *simt.Thread) *threadRec {
	id := t.ID()
	for id >= len(r.threads) {
		r.threads = append(r.threads, nil)
	}
	tr := r.threads[id]
	if tr == nil {
		tr = &threadRec{id: id, name: t.Name()}
		r.threads[id] = tr
	}
	return tr
}

// Begin opens a span of stage s on t's open-span stack.  Spans nest:
// End closes the most recent Begin.
func (r *Recorder) Begin(t *simt.Thread, s Stage) {
	if r == nil || !r.enabled {
		return
	}
	tr := r.rec(t)
	tr.open = append(tr.open, openSpan{s, t.Now(), -1})
}

// BeginNode opens a span of stage s attributed to a NUMA node's
// collect pipeline.  Identical to Begin otherwise; concurrent per-node
// collects use it so overlapping lifecycle spans carry their owner.
func (r *Recorder) BeginNode(t *simt.Thread, s Stage, node int) {
	if r == nil || !r.enabled {
		return
	}
	tr := r.rec(t)
	tr.open = append(tr.open, openSpan{s, t.Now(), node})
}

// End closes t's most recent open span at t's current virtual time,
// feeding the stage histogram and (for traced stages, when tracing)
// the span store.  End with no open span is a no-op.
func (r *Recorder) End(t *simt.Thread) {
	if r == nil || !r.enabled {
		return
	}
	tr := r.rec(t)
	n := len(tr.open)
	if n == 0 {
		return
	}
	sp := tr.open[n-1]
	tr.open = tr.open[:n-1]
	dur := t.Now() - sp.start
	r.observe(sp.stage, dur)
	if r.trace && stageTraced[sp.stage] {
		tr.spans = append(tr.spans, Span{sp.stage, sp.start, dur, sp.node})
	}
}

// Observe records a completed duration for stage s directly, without
// the open-span stack.  Used for high-frequency histogram-only stages.
func (r *Recorder) Observe(t *simt.Thread, s Stage, dur int64) {
	if r == nil || !r.enabled {
		return
	}
	_ = t
	r.observe(s, dur)
}

// Window records a completed span of stage s after the fact — start is
// in t's virtual-time coordinates (Thread.Now).  Used where the caller
// only knows a span happened once it is over, e.g. a grace wait that is
// recorded only if the reclaimer actually blocked.
func (r *Recorder) Window(t *simt.Thread, s Stage, start, dur int64) {
	if r == nil || !r.enabled {
		return
	}
	r.observe(s, dur)
	if r.trace && stageTraced[s] {
		tr := r.rec(t)
		tr.spans = append(tr.spans, Span{s, start, dur, -1})
	}
}

// Instant records a point event of kind k at t's current virtual time.
func (r *Recorder) Instant(t *simt.Thread, k Kind) {
	if r == nil || !r.enabled {
		return
	}
	r.kinds[k]++
	if r.trace {
		tr := r.rec(t)
		tr.instants = append(tr.instants, Instant{k, t.Now()})
	}
}

// InstantCount returns how many instants of kind k were recorded
// (counted even when span storage is off).
func (r *Recorder) InstantCount(k Kind) int64 {
	if r == nil || !r.enabled {
		return 0
	}
	return r.kinds[k]
}

// ---------------------------------------------------------------------
// simt.Probe implementation (allocator and signal hooks).

// Alloc records one Thread.Alloc of the given duration; remote marks an
// allocation served by a block resident on another node.
func (r *Recorder) Alloc(t *simt.Thread, dur int64, remote bool) {
	if r == nil || !r.enabled {
		return
	}
	_ = t
	r.observe(StageAlloc, dur)
	if remote {
		r.allocRemoteFills++
	}
}

// Free records one Thread.FreeAddr; flushed marks a free whose staged
// cross-node batch flushed over the interconnect, which surfaces as a
// remote-flush instant in traces.
func (r *Recorder) Free(t *simt.Thread, dur int64, flushed bool) {
	if r == nil || !r.enabled {
		return
	}
	_ = dur
	if flushed {
		r.Instant(t, KindRemoteFlush)
	}
}

// RemoteLineFill counts one cross-node cache-line fill.  Counter-only:
// fills are far too frequent to trace individually.
func (r *Recorder) RemoteLineFill(t *simt.Thread) {
	if r == nil || !r.enabled {
		return
	}
	_ = t
	r.remoteLineFills++
}

// SignalSent records one scan signal from from to to, as an instant on
// the sender's row.
func (r *Recorder) SignalSent(from, to *simt.Thread) {
	if r == nil || !r.enabled {
		return
	}
	_ = to
	r.Instant(from, KindSignal)
}

// ---------------------------------------------------------------------
// simmem.Observer implementation (heap batch-traffic hooks).

// RemoteFlush records a cross-node free batch of the given size moving
// to home's remote inbox.
func (r *Recorder) RemoteFlush(home, blocks int) {
	if r == nil || !r.enabled {
		return
	}
	_ = home
	r.remoteFlushBatches++
	r.remoteFlushBlocks += int64(blocks)
}

// InboxDrain records a pool draining blocks from its remote-free inbox
// back onto its central lists.
func (r *Recorder) InboxDrain(node, blocks int) {
	if r == nil || !r.enabled {
		return
	}
	_ = node
	r.inboxDrains++
	r.inboxBlocks += int64(blocks)
}

// ---------------------------------------------------------------------
// Aggregation.

// StageHist returns a copy of the histogram for s.
func (r *Recorder) StageHist(s Stage) *Hist {
	h := NewHist()
	r.MergeStageInto(s, h)
	return h
}

// MergeStageInto merges the histogram for s into a caller-owned Hist.
// The non-allocating sibling of StageHist: the metrics engine calls it
// once per sampling window to snapshot the cumulative distribution, so
// it is part of the zero-cost hot surface (guarded, and the caller
// preallocates the destination).
func (r *Recorder) MergeStageInto(s Stage, into *Hist) {
	if r == nil || !r.enabled || r.stages[s] == nil {
		return
	}
	into.Merge(r.stages[s])
}

// StageCount returns the total observation count for s across threads.
func (r *Recorder) StageCount(s Stage) int64 {
	if r == nil || !r.enabled || r.stages[s] == nil {
		return 0
	}
	return r.stages[s].Count()
}

// StageTotal returns the total cycles recorded for s across threads.
func (r *Recorder) StageTotal(s Stage) int64 {
	if r == nil || !r.enabled || r.stages[s] == nil {
		return 0
	}
	return r.stages[s].Sum()
}

// StageMax returns the exact longest observation for s across threads.
func (r *Recorder) StageMax(s Stage) int64 {
	if r == nil || !r.enabled || r.stages[s] == nil {
		return 0
	}
	return r.stages[s].Max()
}

// Spans returns every stored span of stage s across all threads, in
// thread-id order (recording order within a thread).  Only traced
// recorders store spans; analysis/test helper, not a hot path.
func (r *Recorder) Spans(s Stage) []Span {
	if r == nil || !r.enabled {
		return nil
	}
	var out []Span
	for _, tr := range r.threads {
		if tr == nil {
			continue
		}
		for _, sp := range tr.spans {
			if sp.Stage == s {
				out = append(out, sp)
			}
		}
	}
	return out
}

// MaxPause returns the longest any thread spent blocked inside a scan
// handler, at the handshake barrier, or in a grace-period wait — the
// paper-adjacent "max pause" robust-reclamation work is judged on.
func (r *Recorder) MaxPause() int64 {
	var m int64
	for _, s := range []Stage{StageScan, StageHandshake, StageGraceWait} {
		if v := r.StageMax(s); v > m {
			m = v
		}
	}
	return m
}
