package core

import (
	"slices"

	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// The collect pipeline, run in slots.
//
// A slot is one TS-Collect pipeline: an admission lock (at most one
// in-flight collect per slot), a scan-barrier handshake, a shard group,
// and deferred sweep lists.  A reclaimer runs its whole trigger →
// aggregate → sort → signal → scan → sweep → free sequence against one
// slot.  The domain lays its slots out one of three ways:
//
//   - classic (PerNode off, or a flat machine): one slot, node -1,
//     spanning every node and admitted through the registration lock.
//     It aggregates every thread's ring plus the orphans and elects
//     each shard's home node by retire votes.  This is the paper's
//     TS-Collect with one reclaimer at a time (§4.2).
//   - overlapped (PerNode): one slot per node, each with its own mutex.
//     Routing (pernode.go) puts only node-n-retired addresses in
//     nodeBuf[n], so slot n's shard group is single-node by
//     construction, and its sweep touches no remote line unless another
//     node touched that line after the retire.  With the
//     one machine-wide lock, node 1's reclaimer would wait for node 0's
//     phase even though their shard groups, sweep lists, and freed
//     lines are disjoint; with a lock per slot, collects on different
//     nodes overlap freely.  The only cross-node rendezvous left is the
//     scan barrier itself, because any thread on any node may hold a
//     reference to any address.
//   - serialized (PerNode with SerializeCollects): the same per-node
//     slots, all admitted through the registration lock, so collects
//     never overlap — the A9 ablation's control.
//
// Only two steps depend on whether a slot spans every node.
// Aggregation drains every ring and the orphans, with votes and a home
// election, or takes the node's sub-buffer and remark list, homing
// every shard on the node.  Marked (still-referenced) nodes are
// re-buffered in the reclaimer's ring (or the orphans), or in the
// node's remark list; like the classic ringCount exclusion, the remark
// list does not count toward the trigger, or pinned garbage would arm
// it permanently.
//
// Shared scan epochs.  With several collects in flight, one thread can
// be signaled by several reclaimers before it reaches a safepoint; the
// simulator coalesces those sends into a single handler run.  The
// handler therefore snapshots, at entry, every slot whose handshake
// wants its ack (Handshake.ExpectFrom/Wants), scans ONCE — probing each
// wanting slot's shard group per stack word, charging the word mask and
// range check a single time — and acks each wanting handshake
// individually.  One scan pass satisfies every collect whose signal it
// observed.  A collect armed after the snapshot is not lost: its send
// left the signal pending, so a later handler run (a distinct epoch,
// deterministically ordered by the scheduler) picks it up.
//
// Rebalancing under one-node-retires-everything skew.  Below
// Config.StealThreshold all sort and sweep work of a per-node slot
// stays node-local; above it remote threads collect for the overloaded
// node (StolenCollects), help-sort its shards, and sweep its deferred
// lists (StolenSweeps) — bounded memory beats perfect locality.  A
// thief TryLocks the node's slot instead of queueing on it: acquisition
// failure means the node's own reclaimer (or an earlier thief) is
// already collecting, so a stolen collect never targets a node whose
// reclaimer is active and never blocks an idle node's own collect.
//
// Exit safety: see threadExit.

// slot is one collect pipeline.
type slot struct {
	node int             // the node whose sub-buffer this slot collects; -1 spans every node
	lock *simt.Mutex     // admits one in-flight collect; the registration lock when shared
	hs   *simt.Handshake // this slot's scan barrier
	// shards is this slot's shard group — single-node by construction
	// for a per-node slot.
	shards *shardSet
	// reclaimerID is the thread driving the in-flight collect (-1
	// idle); help-sort attribution for this group compares against it.
	reclaimerID int
	active      bool // collect in flight over this group
	// pending holds sweep lists deferred by the last phase (HelpFree);
	// help holds the lists the current phase's scanners may claim.
	pending []freeList
	help    []freeList
}

// backlog is the slot's deferred sweep backlog — the quantity the steal
// threshold compares against for sweep stealing.
func (s *slot) backlog() int {
	n := 0
	for _, list := range s.help {
		n += len(list.addrs)
	}
	for _, list := range s.pending {
		n += len(list.addrs)
	}
	return n
}

// maybeCollect checks the per-node collect triggers after a routing
// drain: the drainer's own node first (the common case — the thread
// that pushed its node's sub-buffer over the trigger is, by
// construction of the routing, a thread of that node), queueing
// (interruptibly) on its slot; then any *remote* node whose backlog
// passed the steal threshold.  A remote node gets that far only when
// its own threads are not collecting — retirers that migrated away, or
// exited threads' routed buffers — and unbounded growth there is worse
// than a stolen, remote collect.
func (ts *ThreadScan) maybeCollect(t *simt.Thread) {
	my := t.Node()
	s := ts.slots[my]
	if len(ts.nodeBuf[my]) >= ts.nodeTrigger[my] {
		s.lock.Lock(t)
		if len(ts.nodeBuf[my]) >= ts.nodeTrigger[my] {
			if ts.cfg.CollectWatermark > 0 {
				ts.stats.WatermarkCollects++
				ts.obs.Instant(t, obs.KindWatermark)
			} else {
				ts.obs.Instant(t, obs.KindTrigger)
			}
			ts.collect(t, s)
		} else {
			// This node's reclaimer collected while we waited (§4.2).
			ts.stats.AvoidedCollects++
		}
		s.lock.Unlock(t)
	}
	for n := 0; n < ts.nodes; n++ {
		if n == my || len(ts.nodeBuf[n]) < ts.stealAt {
			continue
		}
		other := ts.slots[n]
		// TryLock, not Lock: a held slot means the node's own reclaimer
		// (or an earlier thief) is already on it — stealing must target
		// only neglected nodes, and must never stall this thread behind
		// another node's phase.
		if !other.lock.TryLock(t) {
			continue
		}
		if len(ts.nodeBuf[n]) >= ts.stealAt {
			ts.stats.StolenCollects++
			ts.obs.Instant(t, obs.KindSteal)
			ts.collect(t, other)
		} else {
			ts.stats.AvoidedCollects++
		}
		other.lock.Unlock(t)
	}
}

// collect is TS-Collect (Algorithm 1, lines 1–16) over slot s, run as a
// sharded pipeline: aggregate into K address-sharded sub-buffers,
// prepare (sort+dedup) each shard as an independently claimable unit,
// scan, sweep shard by shard.  Caller holds s.lock.
func (ts *ThreadScan) collect(t *simt.Thread, s *slot) {
	if s.active {
		panic("core: concurrent collect admitted on one collect slot")
	}
	c := ts.costs()
	start := t.Cycles()
	ts.stats.Collects++
	if s.node >= 0 {
		ts.stats.NodeCollects[s.node]++
		if slices.ContainsFunc(ts.slots, func(o *slot) bool { return o != s && o.active }) {
			ts.stats.OverlappedCollects++
		}
	}
	s.reclaimerID = t.ID()
	s.active = true
	ts.obs.BeginNode(t, obs.StageCollect, s.node)
	defer func() {
		s.active = false
		s.reclaimerID = -1
		ts.stats.CollectCycles += t.Cycles() - start
		ts.obs.End(t)
	}()

	// HelpFree: the previous phase's unmarked nodes become this phase's
	// help lists — scanners free them inside their handlers (§7:
	// "TS-Scan would then check to see whether there are any pending
	// nodes to free (from a previous iteration)").
	s.help = append(s.help, s.pending...)
	s.pending = s.pending[:0]

	ts.aggregate(t, s)
	if s.shards.total == 0 {
		// Nothing new to scan, but outstanding HelpFree work deferred
		// by the previous phase must still be finished — teardown
		// reaches here with empty buffers and populated help lists,
		// which would otherwise leak permanently.
		ts.drain(t, s)
		return
	}
	ts.stats.MaxMaster = max(ts.stats.MaxMaster, s.shards.total)

	if s.shards.k() == 1 {
		// The paper's serial order: sort (Algorithm 1 line 2), then
		// signal (lines 3–5).
		ts.prepareShard(t, s, 0)
	}
	// With K > 1 the order is pipelined: signal first, sort lazily.
	// Every probe (ours and the scanners') prepares its target shard on
	// demand, and each handler additionally claims a fair share of
	// shards to sort, so the sort work the paper serializes on the
	// reclaimer overlaps the scan phase across all signaled threads.
	ts.signalPeers(t, s)

	// Scan our own stack and registers (line 7) for this collect only;
	// if another slot's collect wants our scan too, its signal is
	// pending and our handler answers it at the next safepoint (the
	// Await below passes many).
	tt := ts.perThread[t.ID()]
	tt.own = append(tt.own[:0], s)
	ts.scanThread(t, tt.own)

	// Wait for all ACKs (line 9) — the scan barrier.  The wait burns
	// reclaimer cycles: the cost Figure 4 charges to oversubscription.
	ts.obs.BeginNode(t, obs.StageHandshake, s.node)
	s.hs.Await(t)
	ts.obs.End(t)

	// Prepare whatever shards no probe touched and no scanner claimed
	// (their nodes are unmarked by definition — nothing probed them —
	// but the sweep still needs them sorted, deduped, and mark-sized).
	if s.shards.k() > 1 {
		for i := range s.shards.sub {
			ts.prepareShard(t, s, i)
		}
	}

	// Sweep (lines 11–15): free unmarked nodes, re-buffer marked ones.
	// Under HelpFree, unmarked nodes are deferred to the next phase's
	// scanners instead of being freed here, as whole claimable
	// per-shard lists.  After the barrier no handler probes this group
	// (no handshake wants remain), so iterating it across freeNode's
	// safepoints is safe.
	ts.obs.BeginNode(t, obs.StageSweep, s.node)
	for si := range s.shards.sub {
		sh := &s.shards.sub[si]
		var deferred []uint64
		for i, addr := range sh.buf {
			if sh.marks[i] {
				ts.stats.Remarked++
				if s.node >= 0 {
					ts.nodeRemark[s.node] = append(ts.nodeRemark[s.node], addr)
				} else if !tt.ring.Push(addr) {
					ts.parkOrphan(t, addr)
				}
				t.Charge(c.Store)
				continue
			}
			if !ts.cfg.HelpFree {
				ts.freeNode(t, addr)
				if s.node >= 0 {
					ts.stats.NodeReclaimed[s.node]++
				}
				continue
			}
			deferred = append(deferred, addr)
			t.Charge(c.Store)
		}
		if len(deferred) > 0 {
			home := sh.home
			if s.node < 0 && s.shards.k() == 1 {
				home = -1 // the paper's single help queue: anyone may claim it
			}
			s.pending = append(s.pending, freeList{addrs: deferred, home: home})
		}
	}
	ts.obs.End(t)
	// Whatever this phase's scanners did not help-free, the reclaimer
	// finishes, bounding deferral to one phase.
	ts.drain(t, s)
}

// aggregate fills s's shard group for a new phase (§4.2's
// distributed-buffer design).  A per-node slot takes its node's routed
// sub-buffer and remark list, truncating them before it charges:
// aggregate-and-truncate must be one atomic step with respect to
// routeRing's lock-free appends, and that property should not hinge on
// Charge never passing a safepoint.  Every shard is homed on the node
// without an election.
//
// The classic slot drains every registered ring plus the orphans.  K=1
// drains a ring straight into the single shard — no routing, no staging
// copy on the hot path.  Each drained address votes for the NUMA node of the
// thread that buffered it (the ring owner's node at drain time — exact
// for pinned threads, the retirer's last node otherwise), electing
// every shard's home for the affinity-first claim order.
func (ts *ThreadScan) aggregate(t *simt.Thread, s *slot) {
	c := ts.costs()
	ss := s.shards
	ss.reset()
	if node := s.node; node >= 0 {
		n := ts.routed(node)
		for _, a := range ts.nodeBuf[node] {
			ss.add(a, node)
		}
		for _, a := range ts.nodeRemark[node] {
			ss.add(a, node)
		}
		ts.nodeBuf[node] = ts.nodeBuf[node][:0]
		ts.nodeRemark[node] = ts.nodeRemark[node][:0]
		t.Charge(int64(n) * (c.Load + c.Step))
		ss.setHomes(node)
		return
	}
	k1 := ss.k() == 1
	multiNode := ts.nodes > 1
	threads := ts.sim.Threads()
	for id, tt := range ts.perThread {
		if tt == nil || !ts.registered[id] {
			continue
		}
		node := 0
		if multiNode {
			node = threads[id].Node()
		}
		var n int
		if k1 {
			sh := &ss.sub[0]
			sh.buf, n = tt.ring.Drain(sh.buf)
			ss.total += n
			if multiNode {
				sh.votes[node] += uint32(n)
			}
		} else {
			ts.scratch, n = tt.ring.Drain(ts.scratch[:0])
			for _, a := range ts.scratch {
				ss.add(a, node)
			}
		}
		t.Charge(int64(n) * (c.Load + c.Step))
	}
	for i, a := range ts.orphans {
		node := 0
		if multiNode {
			node = int(ts.orphanHome[i])
		}
		ss.add(a, node)
	}
	t.Charge(int64(len(ts.orphans)) * (c.Load + c.Step))
	ts.orphans = ts.orphans[:0]
	ts.orphanHome = ts.orphanHome[:0]
	ss.computeHomes()
	ts.ringCount = 0
}

// signalPeers signals every other registered thread for s's collect
// (Algorithm 1 lines 3–5), registering a per-thread expectation so the
// target's handler can discover which collects want its scan.  Exited
// threads deregister only while holding every slot, so everyone
// signaled will ACK.  The whole loop runs between safepoints (Signal
// only charges), so expectation registration and signal-pending bits
// are set atomically with respect to every target's handler entry — a
// handler snapshot can never observe the signal without the want.
//
// A peer parked on s's lock (lockParked) is not signaled when its
// handler would only scan: the reclaimer holds that lock, so the peer's
// roots cannot change before the sweep, and the reclaimer scans them
// itself (scanParked) without a signal, a wakeup or an ack.
func (ts *ThreadScan) signalPeers(t *simt.Thread, s *slot) {
	ts.obs.BeginNode(t, obs.StageSignal, s.node)
	s.hs.Arm()
	threads := ts.sim.Threads()
	parked := ts.parked[:0]
	for id := range ts.registered {
		if !ts.registered[id] || id == t.ID() {
			continue
		}
		if ts.scansParked(s, threads[id]) {
			parked = append(parked, threads[id])
			continue
		}
		if t.Signal(threads[id], SigNum) {
			s.hs.ExpectFrom(threads[id])
		}
	}
	ts.parked = parked
	ts.obs.End(t)
	for _, p := range parked {
		ts.scanParked(t, s, p)
	}
}

// scansParked reports whether s's reclaimer scans peer p itself: p is
// parked on s's lock, and its handler would do no more than scan — K is
// 1, so there is no shard to help sort, and no HelpFree list p's node
// may claim is waiting.
func (ts *ThreadScan) scansParked(s *slot, p *simt.Thread) bool {
	return ts.perThread[p.ID()].parkedOn == s.lock && s.shards.k() == 1 &&
		!(ts.cfg.HelpFree && ts.helpFreeClaimable(p.Node()))
}

// prepareShard makes shard i of s's group probe-ready — sort+dedup
// plus the mark bitmap — charging the paper's cost model to the
// preparing thread, which under sharding may be a scanner inside its
// handler rather than the reclaimer.  The prepare is atomic between
// safepoints, so a shard is claimed and prepared by exactly one thread.
// Reports whether this call did the work.
func (ts *ThreadScan) prepareShard(t *simt.Thread, s *slot, i int) bool {
	sh := &s.shards.sub[i]
	if sh.ready {
		return false
	}
	if len(sh.buf) == 0 {
		// Keep marks sized to buf, as a prepare leaves them.
		sh.marks = sh.marks[:0]
		sh.ready = true
		return false
	}
	ts.obs.Begin(t, obs.StageSort)
	c := ts.costs()
	n := len(sh.buf)
	var dups int
	sh.buf, dups = sortDedup(sh.buf)
	t.Charge(int64(n) * int64(log2ceil(n)) * 2 * c.Step)
	if dups > 0 {
		ts.stats.DoubleRetires += uint64(dups)
		t.Charge(int64(dups) * c.Step)
	}
	if cap(sh.marks) < len(sh.buf) {
		sh.marks = make([]bool, len(sh.buf))
	} else {
		sh.marks = sh.marks[:len(sh.buf)]
		clear(sh.marks)
	}
	sh.ready = true
	ts.stats.ShardsSorted++
	if t.ID() != s.reclaimerID {
		ts.stats.HelpSortedShards++
	}
	ts.obs.End(t)
	return true
}

// scanHandler is TS-Scan (Algorithm 1, lines 18–26), run in the signal
// handler of every signaled thread: one scan pass per handler run,
// shared by every collect whose signal the run observed.  It is also
// where the help protocol runs: free a unit of a previous phase's
// sweep lists, claim unprepared shards to sort, then scan.
func (ts *ThreadScan) scanHandler(t *simt.Thread) {
	h0 := t.HandlerCycles()
	// Snapshot the collects that want this thread's ack BEFORE any
	// safepoint-passing work (helpFree frees, which yields): the
	// snapshot defines this scan epoch.  A collect arming mid-handler
	// keeps its pending signal and gets a later handler run instead.
	tt := ts.perThread[t.ID()]
	want := tt.want[:0]
	for _, s := range ts.slots {
		if s.active && s.hs.Wants(t) {
			want = append(want, s)
		}
	}
	tt.want = want
	if len(want) == 0 {
		// A coalesced delivery whose every collect was already
		// satisfied by an earlier epoch of ours: nothing to scan.
		return
	}
	node := -1
	if len(want) == 1 {
		node = want[0].node
	}
	ts.obs.BeginNode(t, obs.StageScan, node)
	if ts.cfg.HelpFree {
		ts.helpFree(t)
	}
	ts.helpSort(t, want)
	ts.scanThread(t, want)
	// ACK (line 25) each wanting collect: one visible flag write per
	// reclaimer.
	c := ts.costs()
	for _, s := range want {
		t.Charge(c.Store + c.Fence)
		s.hs.AckFrom(t)
	}
	ts.obs.End(t)
	ts.stats.HandlerCycles += t.HandlerCycles() - h0
}

// helpSort claims a fair share of each wanting slot's unprepared
// shards — K divided by the number of scanning threads — and sorts
// them, sharing the sort work the paper serializes on the reclaimer.
// Probing prepares further shards on demand; bounding the claim keeps
// one early scanner from hogging the whole pipeline inside a single
// quantum.  A remote scanner leaves a per-node slot's sort work to the
// collecting node, keeping it free of remote fills, unless that slot's
// collect is past the steal threshold (it still scans: the barrier
// counts it).
//
// Under ClaimAffinity on a multi-node machine the share is claimed
// local-first: shards homed on the scanner's node before remote ones,
// so sort work lands on the socket whose threads retired the
// addresses.  The remote pass is the work-stealing fallback — a
// scanner with no local work left still helps, so the protocol's
// progress guarantee is untouched; only the claim *order* changes.  A
// per-node slot's shards all share one home, so the two passes reduce
// to index order there.
func (ts *ThreadScan) helpSort(t *simt.Thread, want []*slot) {
	my := t.Node()
	affinity := ts.nodes > 1 && ts.cfg.Claim == ClaimAffinity
	for _, s := range want {
		ss := s.shards
		if ss.k() <= 1 || (s.node >= 0 && s.node != my && ss.total < ts.stealAt) {
			continue
		}
		share := len(ss.sub)/(s.hs.Need()+1) + 1
		for pass := 0; pass < 2; pass++ {
			for i := range ss.sub {
				if share == 0 {
					break
				}
				sh := &ss.sub[i]
				if affinity && (sh.home == my) != (pass == 0) {
					continue
				}
				if !sh.ready && len(sh.buf) > 0 {
					ts.prepareShard(t, s, i)
					ts.countClaim(t, sh.home)
					share--
				}
			}
			if !affinity {
				break
			}
		}
	}
}

// helpFree frees one helpFreeChunk-bounded unit of previous phases'
// unmarked nodes (§7 future work) from the slots' claimable sweep
// lists: the scanner's own slots first (the classic slot, or its
// node's), then — only past the steal threshold — an overloaded remote
// node's, counting the steal.  Safe for any thread: queued nodes are
// already proven unreferenced.
func (ts *ThreadScan) helpFree(t *simt.Thread) {
	if !slices.ContainsFunc(ts.slots, func(s *slot) bool { return len(s.help) > 0 }) {
		return
	}
	ts.obs.Begin(t, obs.StageFree)
	defer ts.obs.End(t)
	n := helpFreeChunk
	my := t.Node()
	for pass := 0; pass < 2 && n > 0; pass++ {
		for _, s := range ts.slots {
			local := s.node < 0 || s.node == my
			if local != (pass == 0) || (pass == 1 && s.backlog() < ts.stealAt) {
				continue
			}
			n = ts.helpFreeLists(t, s, n, !local)
		}
	}
}

// helpFreeClaimable reports whether helpFree, run by a scanner on node
// my, would find a list to claim.
func (ts *ThreadScan) helpFreeClaimable(my int) bool {
	for _, s := range ts.slots {
		local := s.node < 0 || s.node == my
		if (local || s.backlog() >= ts.stealAt) && ts.claimable(s, my) >= 0 {
			return true
		}
	}
	return false
}

// claimable returns the index of the help list of s a scanner on node
// my claims next, or -1 when there is none.
//
// On the classic slot under ClaimAffinity a scanner only claims sweep
// lists homed on its own node (or on none): freeing a node touches its
// line (the allocator poisons and relinks it), so sweeping a remote
// list would drag every freed line across the interconnect — strictly
// worse than leaving the list to a home-node scanner or to the
// reclaimer's end-of-phase drain, which finishes whatever no scanner
// claimed, on the same phase.  That drain is the progress fallback;
// the claim policy only decides who sweeps sooner, never whether the
// memory is reclaimed.  A per-node slot's lists are all homed on its
// node, so its last list is taken.
func (ts *ThreadScan) claimable(s *slot, my int) int {
	pick := len(s.help) - 1
	if s.node < 0 && ts.nodes > 1 && ts.cfg.Claim == ClaimAffinity {
		for pick >= 0 && s.help[pick].home != my && s.help[pick].home >= 0 {
			pick--
		}
	}
	return pick
}

// helpFreeLists frees up to budget addresses from s's claimable lists,
// returning the unused budget.  stolen marks first claims as cross-node
// sweep steals.
func (ts *ThreadScan) helpFreeLists(t *simt.Thread, s *slot, budget int, stolen bool) int {
	for budget > 0 {
		// Claim a whole list before freeing (FreeAddr passes
		// safepoints, and no other helper — or the reclaimer's drain —
		// may see these entries), but cap the handler's total work at
		// one chunk: an oversized remainder goes back for the next
		// helper, preserving the bounded-handler-latency trade
		// helpFreeChunk exists for.
		pick := ts.claimable(s, t.Node())
		if pick < 0 {
			break // nothing left, or no local list: leave remote ones to their node
		}
		list := s.help[pick]
		s.help = append(s.help[:pick], s.help[pick+1:]...)
		if !list.claimed && list.home >= 0 {
			list.claimed = true
			ts.countClaim(t, list.home) // once per work unit, at first claim
			if stolen {
				ts.stats.StolenSweeps++
			}
		}
		take := min(budget, len(list.addrs))
		for i := 0; i < take; i++ {
			addr := list.addrs[len(list.addrs)-1]
			list.addrs = list.addrs[:len(list.addrs)-1]
			if ts.nodes > 1 {
				ts.noteSweep(t, addr)
				t.Touch(addr)
			}
			t.FreeAddr(addr)
			ts.stats.HelpFreed++
			if s.node >= 0 {
				ts.stats.NodeReclaimed[list.home]++
			}
		}
		budget -= take
		if len(list.addrs) > 0 {
			s.help = append(s.help, list)
		} else if list.home >= 0 {
			ts.stats.HelpSweptShards++
		}
	}
	return budget
}

// drain is the phase-end mop-up for s: a home-node reclaimer (or any
// teardown flush, and always on the classic slot) finishes whatever no
// scanner claimed, bounding deferral to one phase; a remote (stealing)
// reclaimer below the steal threshold re-defers instead, leaving the
// frees to the home node's scanners.
func (ts *ThreadScan) drain(t *simt.Thread, s *slot) {
	if len(s.help) == 0 {
		return
	}
	remote := s.node >= 0 && s.node != t.Node() && !ts.flushing(t)
	if remote && s.backlog() < ts.stealAt {
		s.pending = append(s.pending, s.help...)
		s.help = s.help[:0]
		return
	}
	// Steal the whole slice before freeing (freeNode passes
	// safepoints, during which scanners' helpFree pops entries).
	lists := s.help
	s.help = nil
	ts.obs.BeginNode(t, obs.StageFree, s.node)
	ts.freeLists(t, s, lists, remote)
	ts.obs.End(t)
}

// freeLists frees every node of s's lists, counting each list as a
// sweep steal when stolen.
func (ts *ThreadScan) freeLists(t *simt.Thread, s *slot, lists []freeList, stolen bool) {
	for _, list := range lists {
		if stolen {
			ts.stats.StolenSweeps++
		}
		for _, addr := range list.addrs {
			ts.freeNode(t, addr)
			if s.node >= 0 {
				ts.stats.NodeReclaimed[list.home]++
			}
		}
	}
}

// scanThread scans t's registers, stack, and registered heap blocks
// once, probing every slot in slots per word — the shared scan epoch.
// The resolution of each word to a block base (scanWord) is charged as
// the paper's mask plus range check, once per word; shard routing and
// lookup are charged per probed slot.
func (ts *ThreadScan) scanThread(t *simt.Thread, slots []*slot) {
	ts.stats.ScannedThreads++
	c := ts.costs()
	words := 0
	scan := func(w uint64) {
		words++
		t.Charge(2 * c.Step) // resolve to a block base (mask + range check)
		ts.scanWord(t, slots, w)
	}
	t.ScanRoots(scan)
	for _, blk := range ts.perThread[t.ID()].heapBlocks {
		for i := uint64(0); i < blk[1]; i++ {
			scan(t.LoadAddr(blk[0] + i*8))
		}
	}
	ts.stats.ScannedWords += uint64(words)
}

// scanParked is TS-Scan of peer p, run by s's reclaimer t while p is
// parked on s's lock with its registers spilled to its stack (see
// signalPeers).  It covers the same words as p's own scanThread — the
// spilled registers, the stack and the registered heap blocks — and
// charges t one load plus the mask and range check per word, plus a
// remote line fill per eight words when p last ran on another node.
func (ts *ThreadScan) scanParked(t *simt.Thread, s *slot, p *simt.Thread) {
	ts.obs.BeginNode(t, obs.StageScan, s.node)
	ts.stats.ScannedThreads++
	ts.stats.ParkedScans++
	c := ts.costs()
	heap := ts.sim.Heap()
	tt := ts.perThread[t.ID()]
	tt.own = append(tt.own[:0], s)
	words := 0
	scan := func(w uint64) {
		words++
		t.Charge(c.Load + 2*c.Step)
		ts.scanWord(t, tt.own, w)
	}
	p.ScanRoots(scan)
	for _, blk := range ts.perThread[p.ID()].heapBlocks {
		for i := uint64(0); i < blk[1]; i++ {
			scan(heap.Load(blk[0] + i*8))
		}
	}
	if ts.nodes > 1 && p.Node() != t.Node() {
		t.Charge(int64((words+7)/8) * c.RemoteFill)
	}
	ts.stats.ScannedWords += uint64(words)
	ts.obs.End(t)
}

// scanWord resolves one scanned word to the base of the heap block it
// points into (simmem.Heap.BlockBase), so a tagged pointer (§4.2
// "Pointer Operations") or an interior pointer such as &node.next keeps
// its node alive, and probes every slot in slots with that base.
func (ts *ThreadScan) scanWord(t *simt.Thread, slots []*slot, w uint64) {
	p := ts.sim.Heap().BlockBase(w)
	if p == 0 {
		return
	}
	for _, s := range slots {
		ts.probe(t, s, p)
	}
}

// probe routes an in-heap, mask-cleaned address to its shard in s's
// group and looks it up there, marking on a hit.  If the shard has not
// been prepared yet (sharded pipeline only), the probing thread claims
// and prepares it on the spot — scan-side help.  The lookup is the
// paper's binary search over the sorted shard (§4.1).
func (ts *ThreadScan) probe(t *simt.Thread, s *slot, p uint64) {
	c := ts.costs()
	ss := s.shards
	si := 0
	if ss.k() > 1 {
		t.Charge(c.Step) // shard routing: multiply + shift
		si = ss.route(p)
		if !ss.sub[si].ready {
			ts.prepareShard(t, s, si)
		}
	}
	sh := &ss.sub[si]
	lo, hi := 0, len(sh.buf)
	for lo < hi {
		mid := (lo + hi) / 2
		t.Charge(c.Load + c.Step)
		if sh.buf[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sh.buf) && sh.buf[lo] == p && !sh.marks[lo] {
		sh.marks[lo] = true
		t.Charge(c.Store)
	}
}
