package core

import "slices"

// The sharded master buffer of the TS-Collect pipeline.
//
// The paper's TS-Collect aggregates every delete buffer into one master
// buffer that a single reclaimer sorts and later sweeps alone — the
// serial section Stamp-it and Crystalline identify as the reclaimer
// bottleneck.  A shardSet splits that master buffer into K
// address-sharded sub-buffers, each with its own sorted array (or hash
// set) and mark bitmap, so that
//
//   - probes binary-search one shard: log2(n/K) steps instead of
//     log2(n), on a cache-friendlier footprint;
//   - sorting parallelizes: shards are claimed and prepared
//     independently, by the reclaimer *or* by scanners inside their
//     signal handlers (the §7 help idea generalized from freeing to the
//     whole pipeline);
//   - the sweep decomposes into per-shard work lists that next-phase
//     scanners can claim whole.
//
// K = 1 degenerates to the paper's single master buffer, bit-identical
// in virtual-cycle charges to the unsharded protocol.
//
// Under a multi-node topology (simt Config.Nodes > 1) each shard also
// carries a *home node*: the NUMA node whose threads retired the
// plurality of its addresses this phase.  Claiming a shard homed on
// one's own node means sorting and sweeping cache-warm, locally-homed
// lines; the affinity-first claim order (ClaimAffinity) exists to make
// that the common case.
type shardSet struct {
	shift uint // 64 - log2(K); route() uses a Fibonacci multiplicative hash
	nodes int  // NUMA nodes of the owning simulation (1 = flat)
	total int  // nodes added since the last reset
	sub   []shard
}

// shard is one address partition of the master buffer.
type shard struct {
	buf   []uint64       // partition members; sorted+deduped once ready
	marks []bool         // [i] set when buf[i] was seen by a scan
	hash  map[uint64]int // LookupHash membership (addr -> index in buf)
	ready bool           // prepared (sorted/hashed, deduped, marks sized)
	votes []uint32       // per-node retire attribution (nil when flat)
	home  int            // plurality node of votes; fixed after computeHomes
}

// newShardSet creates a set of k shards; k is rounded up to a power of
// two (minimum 1) so routing is a cheap multiply-and-shift.  nodes is
// the machine's NUMA node count; votes are only kept when it exceeds 1.
func newShardSet(k, nodes int) *shardSet {
	if k < 1 {
		k = 1
	}
	if nodes < 1 {
		nodes = 1
	}
	pow := 1
	sh := uint(64)
	for pow < k {
		pow <<= 1
		sh--
	}
	s := &shardSet{shift: sh, nodes: nodes, sub: make([]shard, pow)}
	if nodes > 1 {
		for i := range s.sub {
			s.sub[i].votes = make([]uint32, nodes)
		}
	}
	return s
}

// k returns the shard count.
func (s *shardSet) k() int { return len(s.sub) }

// route maps a node address to its shard index.  Word-aligned addresses
// share their low three bits, so the hash runs on addr>>3; the
// multiplicative constant (2^64/phi) spreads the heap's mostly-linear
// address patterns across shards.
func (s *shardSet) route(addr uint64) int {
	if len(s.sub) == 1 {
		return 0
	}
	return int((addr >> 3) * 0x9E3779B97F4A7C15 >> s.shift)
}

// add appends addr to its shard, attributing the retire to node for
// home election.  Caller charges aggregation cost.
func (s *shardSet) add(addr uint64, node int) {
	sh := &s.sub[s.route(addr)]
	sh.buf = append(sh.buf, addr)
	if sh.votes != nil {
		sh.votes[node]++
	}
	s.total++
}

// computeHomes elects each shard's home node: the node that retired
// the plurality of its addresses this phase (ties to the lower node
// index, so election is deterministic).  Empty shards stay homed on
// node 0; they hold no work to claim.  Bookkeeping only — charges
// nothing, so the flat machine's cycle charges are untouched.
func (s *shardSet) computeHomes() {
	if s.nodes <= 1 {
		return
	}
	for i := range s.sub {
		sh := &s.sub[i]
		best := 0
		for n := 1; n < s.nodes; n++ {
			if sh.votes[n] > sh.votes[best] {
				best = n
			}
		}
		sh.home = best
	}
}

// setHomes homes every shard on node without an election — the
// per-node pipeline's case, where the whole group is single-node by
// construction.  Bookkeeping only; charges nothing.
func (s *shardSet) setHomes(node int) {
	for i := range s.sub {
		s.sub[i].home = node
	}
}

// reset empties every shard for the next collect, retaining capacity.
func (s *shardSet) reset() {
	for i := range s.sub {
		s.sub[i].buf = s.sub[i].buf[:0]
		s.sub[i].ready = false
		s.sub[i].home = 0
		for n := range s.sub[i].votes {
			s.sub[i].votes[n] = 0
		}
	}
	s.total = 0
}

// sortDedup sorts buf ascending and compacts duplicate addresses in
// place, returning the compacted slice and the number of copies
// removed.  Duplicates arise only from double retires; keeping one copy
// makes the sweep free such an address exactly once (and the mark of a
// referenced address protect every retire of it).  Idempotent: applying
// it to its own output removes nothing further.
func sortDedup(buf []uint64) ([]uint64, int) {
	slices.Sort(buf)
	dups := 0
	w := 0
	for i, a := range buf {
		if i > 0 && a == buf[w-1] {
			dups++
			continue
		}
		buf[w] = a
		w++
	}
	return buf[:w], dups
}
