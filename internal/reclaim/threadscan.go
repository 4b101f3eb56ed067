package reclaim

import (
	"threadscan/internal/core"
	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// ThreadScan adapts the core ThreadScan protocol (internal/core) to the
// Scheme interface.  This is the paper's contribution wired into the
// same harness as the baselines: no per-op brackets, no per-read
// publication — the application just calls Retire, exactly the "fully
// automatic" interface of §1.2.
type ThreadScan struct {
	ts    *core.ThreadScan
	sim   *simt.Sim
	obs   *obs.Recorder // == cfg.Obs; nil-safe on every call
	stats Stats
}

// NewThreadScan creates a ThreadScan domain bound to sim.
func NewThreadScan(sim *simt.Sim, cfg core.Config) *ThreadScan {
	return &ThreadScan{ts: core.New(sim, cfg), sim: sim, obs: cfg.Obs}
}

// Core exposes the underlying protocol instance (stats, heap-block
// extension, explicit collects).
func (s *ThreadScan) Core() *core.ThreadScan { return s.ts }

// Name implements Scheme.
func (s *ThreadScan) Name() string { return "threadscan" }

// Discipline implements Scheme: fully automatic, no per-read work.
func (s *ThreadScan) Discipline() Discipline { return DisciplineNone }

// BeginOp implements Scheme (no-op — nothing to bracket).
func (s *ThreadScan) BeginOp(*simt.Thread) {}

// EndOp implements Scheme (no-op).
func (s *ThreadScan) EndOp(*simt.Thread) {}

// Protect implements Scheme (no-op; scans find references themselves).
func (s *ThreadScan) Protect(*simt.Thread, int, int) bool { return false }

// Retire implements Scheme via the paper's free().  The retire
// histogram deliberately includes any collect the call triggered —
// ThreadScan's latency story is precisely that one retire in a batch
// pays for the whole phase.
func (s *ThreadScan) Retire(t *simt.Thread, addr uint64) {
	start := t.Now()
	// Exact backlog peak: retired-minus-freed is at a local maximum the
	// instant this node lands, before any collect the call triggers
	// frees a batch.  Counted from the core totals rather than ring
	// occupancy so orphaned rings and nodes popped mid-collect (out of
	// the buffers but not yet freed) still count as garbage.  Host-side
	// only; charges nothing.
	if p := s.ts.Backlog() + 1; p > s.stats.PeakRetired {
		s.stats.PeakRetired = p
	}
	s.ts.Free(t, addr)
	s.obs.Observe(t, obs.StageRetire, t.Now()-start)
}

// Flush implements Scheme.
func (s *ThreadScan) Flush(t *simt.Thread) int {
	return s.ts.FlushAll(t)
}

// Stats implements Scheme, translated from the core protocol counters.
// Absorbed double retires count as freed: the duplicate entry is
// resolved (dedup kept one copy), so it must not read as permanently
// unreclaimed garbage in the footprint metric.
func (s *ThreadScan) Stats() Stats {
	c := s.ts.Stats()
	hs := s.sim.Heap().Stats()
	return Stats{
		Retired:            c.Frees,
		PeakRetired:        s.stats.PeakRetired,
		MaxPauseCycles:     s.obs.MaxPause(),
		Freed:              c.Reclaimed + c.HelpFreed + c.DoubleRetires,
		Pending:            uint64(s.ts.Buffered()),
		ReclaimPasses:      c.Collects,
		Shards:             s.ts.Shards(),
		ShardsSorted:       c.ShardsSorted,
		HelpSorted:         c.HelpSortedShards,
		HelpSwept:          c.HelpSweptShards,
		DoubleRetires:      c.DoubleRetires,
		LocalShardClaims:   c.LocalShardClaims,
		RemoteShardClaims:  c.RemoteShardClaims,
		RemoteLineFills:    s.sim.Stats().RemoteLineFills,
		SweepRemoteFills:   c.SweepRemoteFills,
		NodeCollects:       c.NodeCollects,
		NodeReclaimed:      c.NodeReclaimed,
		StolenCollects:     c.StolenCollects,
		StolenSweeps:       c.StolenSweeps,
		OverlappedCollects: c.OverlappedCollects,
		AllocRemoteFills:   s.sim.Stats().AllocRemoteFills,
		RemoteAllocs:       hs.RemoteAllocs,
		HomeFrees:          hs.HomeFrees,
		RemoteFrees:        hs.RemoteFrees,
	}
}
