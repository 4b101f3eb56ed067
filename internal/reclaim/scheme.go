// Package reclaim defines the common interface for concurrent memory
// reclamation schemes and implements every technique the paper
// evaluates (§6 "Techniques"):
//
//   - Leaky        — no reclamation (the paper's baseline ceiling)
//   - Hazard       — hazard pointers (Michael), per-read publication
//   - Epoch        — epoch-based reclamation (Harris/McKenney)
//   - Slow Epoch   — Epoch with an errant delayed thread (Epoch config)
//   - ThreadScan   — adapter over internal/core (the contribution)
//   - StackTrack   — extension: a non-HTM analog of StackTrack's
//     split-operation published live-sets (the paper's §1.1/[2] comparator)
//
// Data structures talk to schemes through three touch points, mirroring
// how the paper instruments its benchmarks: BeginOp/EndOp around every
// operation (epochs), Protect on traversal steps (hazards / publication),
// and Retire for unlinked nodes.
package reclaim

import "threadscan/internal/simt"

// Discipline describes what per-access cooperation a scheme demands of
// data-structure code.  This is exactly the paper's programmability
// axis: ThreadScan and Leaky need none, epochs need per-op brackets,
// hazard pointers need per-read publication and validation.
type Discipline int

const (
	// DisciplineNone: no per-read work (Leaky, Epoch, ThreadScan).
	DisciplineNone Discipline = iota
	// DisciplineHazard: publish each about-to-be-dereferenced pointer
	// and re-validate the link before trusting it.
	DisciplineHazard
	// DisciplinePublish: publish traversal state periodically, no
	// validation (StackTrack-style split operations).
	DisciplinePublish
	// DisciplineEra: refresh a per-thread era reservation on each
	// traversal step and re-validate the link, like hazard pointers but
	// with a plain store (no fence) — interval/era-based schemes
	// (Hyaline-style robust reclamation).
	DisciplineEra
)

func (d Discipline) String() string {
	switch d {
	case DisciplineNone:
		return "none"
	case DisciplineHazard:
		return "hazard"
	case DisciplinePublish:
		return "publish"
	case DisciplineEra:
		return "era"
	default:
		return "unknown"
	}
}

// Scheme is a concurrent memory reclamation scheme.  All methods are
// called from the acting thread's own context.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string

	// Discipline reports the per-access cooperation contract.
	Discipline() Discipline

	// BeginOp brackets the start of one data-structure operation.
	BeginOp(t *simt.Thread)

	// EndOp brackets the end of one operation.  Schemes that reclaim at
	// quiescent points (Epoch, StackTrack) do their reclamation here.
	EndOp(t *simt.Thread)

	// Protect publishes register reg's value under the per-thread slot
	// index, returning true when the caller must re-validate the link
	// it read the pointer from before dereferencing (hazard pointers).
	Protect(t *simt.Thread, slot int, reg int) bool

	// Retire hands over a node that has been unlinked from every shared
	// reference (the paper's free()).  The scheme decides when the
	// underlying memory is returned to the allocator.
	Retire(t *simt.Thread, addr uint64)

	// Flush reclaims everything still reclaimable; called at teardown
	// after application threads have dropped their references.  Returns
	// the number of nodes the scheme still holds (0 for full reclaim;
	// Leaky reports its whole graveyard).
	Flush(t *simt.Thread) int

	// Stats returns scheme counters.
	Stats() Stats
}

// BirthStamper is an optional extension: schemes that key reclamation
// decisions on allocation order (interval/era-based robust schemes)
// implement it, and data-structure code stamps every freshly allocated
// node right after Thread.Alloc.  A node that was never stamped — e.g.
// a host-allocated sentinel later retired through the scheme — must be
// treated conservatively (as old as the scheme has ever seen).
type BirthStamper interface {
	NoteAlloc(t *simt.Thread, addr uint64)
}

// Stats aggregates scheme activity.  Fields not applicable to a scheme
// stay zero.
type Stats struct {
	Retired         uint64 // nodes handed to Retire
	Freed           uint64 // nodes returned to the allocator
	Leaked          uint64 // nodes the scheme will never free (Leaky)
	Pending         uint64 // nodes currently buffered
	ReclaimPasses   uint64 // scans / grace periods / collects
	GraceWaits      uint64 // blocking waits for other threads
	GraceWaitCycles int64  // virtual cycles spent in those waits
	Protects        uint64 // Protect calls (hazard/publish traffic)

	// PeakRetired is the exact running maximum of retired-but-unfreed
	// nodes, updated at every Retire and free — the Hyaline-style
	// robustness metric.  Unlike the footprint sampler's peak it cannot
	// alias between sample instants (a burst reclaimed within one
	// SampleEvery window still registers).  Zero for Leaky, whose
	// graveyard is counted in Leaked instead.
	PeakRetired uint64

	// MaxPauseCycles is the longest any thread spent blocked in a scan
	// handler, at the scan-barrier handshake, or in a grace-period wait.
	// Populated only when the scheme was built with an obs.Recorder
	// (zero otherwise, and always zero for Leaky — it never blocks).
	MaxPauseCycles int64

	// Sharded-collect pipeline counters (ThreadScan; zero elsewhere).
	Shards        int    // configured shard count K
	ShardsSorted  uint64 // shard sort/build passes across all collects
	HelpSorted    uint64 // shards sorted inside scanner handlers
	HelpSwept     uint64 // per-shard free lists swept by scanners
	DoubleRetires uint64 // duplicate retires of one address absorbed

	// NUMA shard-affinity counters (ThreadScan on a multi-node
	// topology; zero elsewhere and on the flat machine).
	LocalShardClaims  uint64 // shard work units claimed on their home node
	RemoteShardClaims uint64 // shard work units claimed cross-node
	RemoteLineFills   uint64 // machine-wide cross-node line fills (sim stat)

	// Per-node reclamation counters (ThreadScan with PerNode routing;
	// zero/nil elsewhere).  SweepRemoteFills counts steady-state sweep
	// frees that touched a remotely-homed line (the traffic per-node
	// routing eliminates); NodeCollects/NodeReclaimed break collects
	// and frees down by home node; the Stolen counters record
	// cross-node rebalancing past the steal threshold.
	SweepRemoteFills uint64
	NodeCollects     []uint64
	NodeReclaimed    []uint64
	StolenCollects   uint64
	StolenSweeps     uint64

	// OverlappedCollects counts collect phases that began while another
	// collect slot's phase was already in flight.  Only the overlapped
	// slot layout (PerNode, SerializeCollects off: one slot per node,
	// each with its own lock) admits that; the classic layout has one
	// slot and the serialized layout admits every slot through one lock,
	// so both always report zero.
	OverlappedCollects uint64

	// Allocation-subsystem counters (machine-wide, mirrored from the
	// simulated heap's per-node pools by the ThreadScan adapter like
	// RemoteLineFills; zero elsewhere and on a single-pool heap).
	// AllocRemoteFills counts allocations handed a block whose lines
	// were last homed on another node (the alloc-side cross-socket
	// traffic a global pool causes); RemoteAllocs counts blocks served
	// outside their home region; HomeFrees/RemoteFrees split sweep-side
	// frees by whether they routed into the freeing node's own pool or
	// crossed the interconnect into a remote-free inbox.
	AllocRemoteFills uint64
	RemoteAllocs     uint64
	HomeFrees        uint64
	RemoteFrees      uint64
}

// notePeak records the current retired-minus-freed backlog into
// PeakRetired.  Schemes call it after every Retire: the backlog only
// grows at retire time, so its maxima land exactly there.  Host-side
// bookkeeping only — never charges virtual cycles, so enabling the
// metric cannot perturb a captured baseline.
func (s *Stats) notePeak() {
	if p := s.Retired - s.Freed; p > s.PeakRetired {
		s.PeakRetired = p
	}
}

// maxThreadID sizes per-thread state arrays.  Schemes grow their
// arrays in thread-start hooks; 1024 bounds the simulations used here.
const maxThreadID = 1024
