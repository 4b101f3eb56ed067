package core

import "threadscan/internal/simt"

// Per-node retirement routing (Config.PerNode).
//
// The classic slot hashes every retired address into globally shared
// shards and elects a single reclaimer, so on a multi-node machine a
// shard's member addresses span sockets even when its home is clear,
// and the whole collect serializes on whichever socket the reclaimer
// happens to run — the cross-socket bottleneck the paper's scalability
// argument (and Hyaline's per-thread batch locality argument) warns
// about.  Routing restructures retirement around the topology, and
// feeds one collect slot per node (slot.go):
//
//   - Free tags each retired address with the retiring thread's NUMA
//     node in the ring entry's low three bits (word-aligned addresses
//     leave them free; MaxRoutedNodes bounds the node count).  The tag
//     is taken at Free time, so an unpinned thread that migrates
//     attributes each retire exactly.
//   - A full ring is drained by its *owner* — ring → home-node
//     sub-buffer — so the SPSC ring becomes genuinely single-thread
//     and no reclaimer ever reads another thread's ring on the hot
//     path.  nodeBuf[n] therefore holds only node-n-retired addresses:
//     every shard built from it is single-node *by construction*, and
//     its sweep touches zero remote lines.
//   - The thread whose drain pushes its node's sub-buffer past the
//     trigger becomes that node's reclaimer (maybeCollect).
//
// With PerNode off (or on a flat machine) none of this code runs and
// the protocol is bit-identical to the classic pipeline — the contract
// the captured-baseline replay test enforces.

// MaxRoutedNodes bounds the topology PerNode supports: the node tag
// rides in the low three bits of a word-aligned ring entry.  Exported
// so front ends (tsbench flag validation) share the single limit.
const MaxRoutedNodes = 8

// freeRouted is Free's per-node path: tag, buffer, and — when the
// owner's ring fills — drain to the home sub-buffers and check the
// collect triggers.  Caller has already charged the buffer store and
// counted the free.
func (ts *ThreadScan) freeRouted(t *simt.Thread, tt *tsThread, addr uint64) {
	tag := tagEntry(addr, t.Node())
	if tt.ring.Push(tag) {
		return
	}
	// Ring full: the owner routes its own buffer (no other thread ever
	// drains it in this mode), then retries the push — the ring is now
	// empty, so it cannot fail.
	ts.routeRing(t, tt)
	tt.ring.Push(tag)
	ts.maybeCollect(t)
}

// routeRing drains tt's ring into the per-node sub-buffers by tag,
// charging the staging copy (one load + one store per entry).  The
// whole routine runs between safepoints, so it is atomic with respect
// to the simulation and needs no lock.
func (ts *ThreadScan) routeRing(t *simt.Thread, tt *tsThread) {
	var n int
	ts.scratch, n = tt.ring.Drain(ts.scratch[:0])
	for _, v := range ts.scratch {
		node := entryNode(v)
		ts.nodeBuf[node] = append(ts.nodeBuf[node], entryAddr(v))
	}
	c := ts.costs()
	t.Charge(int64(n) * (c.Load + c.Store))
}

// routeAllRings routes every registered thread's ring (teardown and
// forced collects; the steady-state path never reads a remote ring).
// Caller holds the reclamation lock.
func (ts *ThreadScan) routeAllRings(t *simt.Thread) {
	for id, tt := range ts.perThread {
		if tt == nil || !ts.registered[id] {
			continue
		}
		ts.routeRing(t, tt)
	}
}
