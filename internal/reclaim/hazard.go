package reclaim

import (
	"slices"

	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// Hazard implements hazard pointers as introduced by Michael [37],
// the paper's main pointer-based comparator.  Before dereferencing a
// node, a thread publishes its address in one of its hazard slots and
// issues a memory fence, then re-validates the link it read the pointer
// from.  A reclaiming thread scans every thread's slots and frees only
// retired nodes nobody has hazarded.
//
// The per-read fence is the cost the paper's §6 highlights: "each step
// requires a barrier, even in a non-mutating operation" — ruinous on
// the O(n) list and O(log n) skip list, tolerable on short hash
// buckets.
type Hazard struct {
	cfg   HazardConfig
	costs simt.CostModel // sim's cost model, immutable after simt.New

	slots   [][]uint64 // [threadID][slot] published addresses
	retired [][]uint64 // [threadID] retire lists
	orphans []uint64   // retire lists of exited threads

	stats Stats
}

// HazardConfig parameterizes the scheme.
type HazardConfig struct {
	// Slots is the number of hazard pointers per thread.  The list and
	// hash table need 2 (prev, curr); the skip list uses up to 4.
	// Defaults to 4.
	Slots int

	// Batch is the retire-list length that triggers a scan.  Defaults
	// to 1024, matching the other schemes' reclamation granularity.
	Batch int

	// Obs, when non-nil, records retire latency and scan-pass spans.
	// Never charges virtual cycles.
	Obs *obs.Recorder
}

func (c *HazardConfig) fill() {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.Batch <= 0 {
		c.Batch = 1024
	}
}

// NewHazard creates a hazard-pointer domain bound to sim.
func NewHazard(sim *simt.Sim, cfg HazardConfig) *Hazard {
	cfg.fill()
	h := &Hazard{cfg: cfg, costs: sim.Config().Costs}
	sim.OnThreadStart(h.threadStart)
	sim.OnThreadExit(h.threadExit)
	return h
}

func (h *Hazard) threadStart(t *simt.Thread) {
	id := t.ID()
	for len(h.slots) <= id {
		h.slots = append(h.slots, nil)
		h.retired = append(h.retired, nil)
	}
	h.slots[id] = make([]uint64, h.cfg.Slots)
}

func (h *Hazard) threadExit(t *simt.Thread) {
	id := t.ID()
	for i := range h.slots[id] {
		h.slots[id][i] = 0
	}
	// Hand unprocessed retirees to the community.
	h.orphans = append(h.orphans, h.retired[id]...)
	h.retired[id] = nil
}

// Name implements Scheme.
func (h *Hazard) Name() string { return "hazard" }

// Discipline implements Scheme: hazard publication with validation.
func (h *Hazard) Discipline() Discipline { return DisciplineHazard }

// BeginOp implements Scheme (hazards carry no per-op state).
func (h *Hazard) BeginOp(*simt.Thread) {}

// EndOp implements Scheme by clearing the thread's hazard slots, so
// finished operations stop pinning nodes.
func (h *Hazard) EndOp(t *simt.Thread) {
	c := &h.costs
	slots := h.slots[t.ID()]
	for i := range slots {
		if slots[i] != 0 {
			slots[i] = 0
			t.Charge(c.Store)
		}
	}
}

// Protect implements Scheme: publish regs[reg] in the slot and fence.
// Returns true — hazard pointers require the caller to re-validate the
// link before trusting the protected pointer.
func (h *Hazard) Protect(t *simt.Thread, slot int, reg int) bool {
	c := &h.costs
	h.slots[t.ID()][slot] = t.Reg(reg) &^ 7
	t.Charge(c.Store)
	t.Fence()
	h.stats.Protects++
	return true
}

// Retire implements Scheme: buffer the node; scan when the batch fills.
// Like ThreadScan's Retire, the histogram includes any scan the call
// triggered — the retire that fills the batch pays for the pass.
func (h *Hazard) Retire(t *simt.Thread, addr uint64) {
	addr &^= 7
	start := t.Now()
	c := &h.costs
	t.Charge(c.Store)
	h.stats.Retired++
	h.stats.notePeak()
	id := t.ID()
	h.retired[id] = append(h.retired[id], addr)
	if len(h.retired[id])+len(h.orphans) >= h.cfg.Batch {
		h.scan(t)
	}
	h.cfg.Obs.Observe(t, obs.StageRetire, t.Now()-start)
}

// scan is Michael's Scan: snapshot all hazard slots, free every retired
// node not present, keep the rest.
func (h *Hazard) scan(t *simt.Thread) {
	c := &h.costs
	h.stats.ReclaimPasses++
	id := t.ID()
	h.cfg.Obs.Begin(t, obs.StageCollect)
	defer h.cfg.Obs.End(t)

	// Snapshot every thread's hazard slots, including our own: Retire
	// can run mid-traversal, and our own published pointers must pin
	// their nodes too.
	var hazards []uint64
	for _, slots := range h.slots {
		if slots == nil {
			continue
		}
		for _, v := range slots {
			t.Charge(c.Load) // cross-thread cache line read
			if v != 0 {
				hazards = append(hazards, v)
			}
		}
	}
	slices.Sort(hazards)
	t.Charge(int64(len(hazards)) * 4 * c.Step)

	// Steal the orphan list atomically (no safepoint intervenes) so a
	// concurrent scan cannot free the same nodes, and so later exits
	// cannot append into a slice we are iterating.
	stolen := h.orphans
	h.orphans = nil
	candidates := make([]uint64, 0, len(h.retired[id])+len(stolen))
	candidates = append(candidates, h.retired[id]...)
	candidates = append(candidates, stolen...)
	var kept []uint64
	for _, addr := range candidates {
		_, found := slices.BinarySearch(hazards, addr)
		t.Charge(int64(log2ceil(len(hazards)+1)) * (c.Load + c.Step))
		if found {
			kept = append(kept, addr)
			continue
		}
		t.FreeAddr(addr)
		h.stats.Freed++
	}
	h.retired[id] = kept
}

// Flush implements Scheme: scan until nothing more frees.
func (h *Hazard) Flush(t *simt.Thread) int {
	for i := 0; i < 3; i++ {
		before := h.stats.Freed
		h.scan(t)
		if h.stats.Freed == before {
			break
		}
	}
	return int(h.pending())
}

func (h *Hazard) pending() uint64 {
	n := uint64(len(h.orphans))
	for _, r := range h.retired {
		n += uint64(len(r))
	}
	return n
}

// Stats implements Scheme.  MaxPauseCycles stays zero even with a
// recorder attached: hazard scans never block on other threads.
func (h *Hazard) Stats() Stats {
	s := h.stats
	s.Pending = h.pending()
	return s
}

func log2ceil(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}
