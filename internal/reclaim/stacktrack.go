package reclaim

import (
	"slices"

	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// StackTrack is a non-HTM analog of StackTrack (Alistarh et al.,
// EuroSys'14 [2]), the paper's closest prior work: operations are split
// into short segments, and at every segment boundary a thread publishes
// a *shadow copy* of its registers and stack that reclaimers scan in
// lieu of signal-driven scanning.
//
// Where the real system uses hardware transactions to make each
// segment's register state atomically visible, this reproduction uses a
// seqlock-style publication counter: a reclaimer waits until every
// in-operation thread has published at least once after the reclaim
// began, which guarantees any continuously-held reference appears in
// the shadow it scans (unreachable nodes can never be re-acquired, so
// a reference missing from a later shadow can never be used again).
//
// The instructive contrast with ThreadScan: publication is *eager*
// (every segment, whether or not anyone is reclaiming), so its cost
// scales with traversal length like hazard pointers — but without the
// per-read fence, so it sits between Hazard and ThreadScan.  And like
// Epoch, a stalled thread stalls reclaimers: only the signal mechanism
// removes that dependence.
type StackTrack struct {
	cfg   StackTrackConfig
	costs simt.CostModel // sim's cost model, immutable after simt.New

	shadows  [][]uint64 // [threadID] last published root set
	segCount []uint64   // [threadID] publications so far
	inOp     []bool     // [threadID] currently inside an operation
	live     []bool     // [threadID]
	sincePub []int      // [threadID] Protect calls since last publish
	retired  [][]uint64 // [threadID]
	orphans  []uint64

	stats Stats
}

// StackTrackConfig parameterizes the scheme.
type StackTrackConfig struct {
	// SegmentLen is the number of Protect (traversal-step) calls
	// between publications.  StackTrack's split-interval; defaults
	// to 16.
	SegmentLen int

	// Batch is the retire count that triggers reclamation.  Defaults
	// to 1024.
	Batch int

	// Obs, when non-nil, records retire latency, reclaim-pass spans,
	// and publication waits.  Never charges virtual cycles.
	Obs *obs.Recorder
}

func (c *StackTrackConfig) fill() {
	if c.SegmentLen <= 0 {
		c.SegmentLen = 16
	}
	if c.Batch <= 0 {
		c.Batch = 1024
	}
}

// NewStackTrack creates a StackTrack-style domain bound to sim.
func NewStackTrack(sim *simt.Sim, cfg StackTrackConfig) *StackTrack {
	cfg.fill()
	st := &StackTrack{cfg: cfg, costs: sim.Config().Costs}
	sim.OnThreadStart(st.threadStart)
	sim.OnThreadExit(st.threadExit)
	return st
}

func (st *StackTrack) threadStart(t *simt.Thread) {
	id := t.ID()
	for len(st.shadows) <= id {
		st.shadows = append(st.shadows, nil)
		st.segCount = append(st.segCount, 0)
		st.inOp = append(st.inOp, false)
		st.live = append(st.live, false)
		st.sincePub = append(st.sincePub, 0)
		st.retired = append(st.retired, nil)
	}
	st.live[id] = true
}

func (st *StackTrack) threadExit(t *simt.Thread) {
	id := t.ID()
	st.live[id] = false
	st.inOp[id] = false
	st.shadows[id] = st.shadows[id][:0]
	st.orphans = append(st.orphans, st.retired[id]...)
	st.retired[id] = nil
}

// Name implements Scheme.
func (st *StackTrack) Name() string { return "stacktrack" }

// Discipline implements Scheme: per-step publication, no validation.
func (st *StackTrack) Discipline() Discipline { return DisciplinePublish }

// publish copies the thread's current root set into its shadow and
// bumps the publication counter — the analog of an HTM segment commit.
func (st *StackTrack) publish(t *simt.Thread) {
	id := t.ID()
	c := &st.costs
	sh := st.shadows[id][:0]
	t.ScanRoots(func(w uint64) { sh = append(sh, w) })
	st.shadows[id] = sh
	t.Charge(int64(len(sh))*c.Store + c.Fence)
	st.segCount[id]++
	st.sincePub[id] = 0
}

// BeginOp implements Scheme: mark active and publish the entry state.
func (st *StackTrack) BeginOp(t *simt.Thread) {
	st.inOp[t.ID()] = true
	st.publish(t)
}

// EndOp implements Scheme: publish the (reference-free) exit state,
// mark quiescent, then reclaim if the batch filled.
func (st *StackTrack) EndOp(t *simt.Thread) {
	id := t.ID()
	st.inOp[id] = false
	st.publish(t)
	if len(st.retired[id]) >= st.cfg.Batch || len(st.orphans) >= st.cfg.Batch {
		st.reclaim(t)
	}
}

// Protect implements Scheme: count the step and publish at segment
// boundaries.  No validation needed (false) — safety comes from the
// reclaimer's wait-for-publication, not from re-reads.
func (st *StackTrack) Protect(t *simt.Thread, _ int, _ int) bool {
	id := t.ID()
	st.stats.Protects++
	st.sincePub[id]++
	if st.sincePub[id] >= st.cfg.SegmentLen {
		st.publish(t)
	}
	return false
}

// Retire implements Scheme.
func (st *StackTrack) Retire(t *simt.Thread, addr uint64) {
	id := t.ID()
	start := t.Now()
	t.Charge(st.costs.Store)
	st.stats.Retired++
	st.stats.notePeak()
	st.retired[id] = append(st.retired[id], addr&^7)
	st.cfg.Obs.Observe(t, obs.StageRetire, t.Now()-start)
}

// reclaim scans shadows and frees unreferenced retirees.  Called at a
// quiescent point (EndOp), like Epoch, so reclaimers cannot block each
// other.
func (st *StackTrack) reclaim(t *simt.Thread) {
	c := &st.costs
	id := t.ID()
	st.stats.ReclaimPasses++
	st.cfg.Obs.Begin(t, obs.StageCollect)
	defer st.cfg.Obs.End(t)

	// Steal the orphan list atomically (no safepoint intervenes) so
	// concurrent reclaimers cannot both free it.
	nOwn := len(st.retired[id])
	stolen := st.orphans
	st.orphans = nil
	candidates := make([]uint64, 0, nOwn+len(stolen))
	candidates = append(candidates, st.retired[id][:nOwn]...)
	candidates = append(candidates, stolen...)
	slices.Sort(candidates)
	t.Charge(int64(len(candidates)) * int64(log2ceil(len(candidates)+1)) * 2 * c.Step)
	marks := make([]bool, len(candidates))

	// Wait for every in-operation thread to publish once more, then
	// scan its latest shadow.  A reference held continuously since
	// before the retire appears in every publication while held.
	snap := make([]uint64, len(st.segCount))
	for i := range st.segCount {
		t.Charge(c.Load)
		snap[i] = st.segCount[i]
	}
	waitStart := t.Cycles()
	waitFrom := t.Now()
	waited := false
	for i := range snap {
		if i == id || !st.live[i] {
			continue
		}
		if t.SpinWait(func() bool { return !st.live[i] || !st.inOp[i] || st.segCount[i] != snap[i] }) {
			waited = true
		}
		for _, w := range st.shadows[i] {
			st.mark(t, w, candidates, marks)
		}
	}
	if waited {
		st.stats.GraceWaits++
		st.stats.GraceWaitCycles += t.Cycles() - waitStart
		st.cfg.Obs.Window(t, obs.StageGraceWait, waitFrom, t.Now()-waitFrom)
	}
	// Scan our own live roots directly (we have no fresher shadow).
	t.ScanRoots(func(w uint64) { st.mark(t, w, candidates, marks) })

	// Marked nodes (own and stolen alike) stay on our retire list for a
	// later pass; the rest are freed.
	var kept []uint64
	for i, addr := range candidates {
		if marks[i] {
			kept = append(kept, addr)
			continue
		}
		t.FreeAddr(addr)
		st.stats.Freed++
	}
	kept = append(kept, st.retired[id][nOwn:]...)
	st.retired[id] = kept
}

func (st *StackTrack) mark(t *simt.Thread, w uint64, candidates []uint64, marks []bool) {
	c := &st.costs
	p := t.Sim().Heap().BlockBase(w) // interior and tagged pointers resolve to their node
	t.Charge(int64(log2ceil(len(candidates)+1)) * (c.Load + c.Step))
	if i, found := slices.BinarySearch(candidates, p); found {
		marks[i] = true
	}
}

// Flush implements Scheme.
func (st *StackTrack) Flush(t *simt.Thread) int {
	for i := 0; i < 3; i++ {
		before := st.stats.Freed
		st.reclaim(t)
		if st.stats.Freed == before {
			break
		}
	}
	return int(st.pending())
}

func (st *StackTrack) pending() uint64 {
	n := uint64(len(st.orphans))
	for _, r := range st.retired {
		n += uint64(len(r))
	}
	return n
}

// Stats implements Scheme.
func (st *StackTrack) Stats() Stats {
	s := st.stats
	s.Pending = st.pending()
	s.MaxPauseCycles = st.cfg.Obs.MaxPause()
	return s
}
