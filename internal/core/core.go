// Package core implements ThreadScan (Alistarh, Leiserson, Matveev,
// Shavit — SPAA'15): automatic concurrent memory reclamation by
// signal-driven stack scanning.
//
// The protocol, exactly as in the paper's Algorithm 1 plus the §4.2
// implementation details:
//
//   - Each thread owns a bounded delete buffer (an SPSC ring).  Free
//     appends the retired node; the node must already be unlinked
//     (Assumption 1.1).
//   - When a thread's buffer is full it becomes the reclaimer: it takes
//     the reclamation lock, aggregates every thread's buffer into a
//     sorted master buffer, and signals all other threads (TS-Collect).
//   - Each signaled thread — in its signal handler, wherever it happens
//     to be, including blocked in a lock or spinning in application
//     code — scans its registers and stack word by word, binary-searches
//     each word in the master buffer, marks hits, and ACKs (TS-Scan).
//   - The reclaimer scans itself, waits for all ACKs, then frees every
//     unmarked node.  Marked nodes may still be referenced and are
//     re-buffered for the next phase.
//
// The §4.3 extension (AddHeapBlock/RemoveHeapBlock) lets a thread
// register private heap regions to be scanned along with its stack.
//
// Beyond the paper, TS-Collect scales out as a sharded, scanner-assisted
// pipeline: Config.Shards splits the master buffer into K address-sharded
// sub-buffers (see shard.go) that are sorted and swept as independently
// claimable units, Config.CollectWatermark adds an adaptive global
// trigger so a collect can start before any single ring fills, and the
// §7 future-work idea — sharing reclamation work with scanners — grows
// from the original HelpFree chunk queue into a general help protocol:
// scanners claim whole shards to sort before scanning, and (under
// HelpFree) claim whole per-shard free lists to sweep.  With Shards <= 1
// and the watermark off, the protocol is bit-identical in virtual-cycle
// charges to the paper's serial collect.
//
// That pipeline exists once, run in collect slots laid out three ways:
// classic, overlapped and serialized (see slot.go; the per-node
// retirement routing the last two rely on is in pernode.go).
package core

import (
	"fmt"

	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// DefaultBufferSize is the per-thread delete buffer capacity used in the
// paper's evaluation ("configured to store up to 1024 pointers per
// thread", §6).
const DefaultBufferSize = 1024

// SigNum is the simulated signal number scan requests are sent on.
const SigNum simt.SigNum = 0

// helpFreeChunk caps how many queued nodes one scanner frees per TS-Scan
// under HelpFree, bounding the handler latency the extension adds.
const helpFreeChunk = 128

// ClaimPolicy selects the order in which threads claim shard work
// units — sort claims in the scan handler, sweep-list claims under
// HelpFree — when the simulated machine has more than one NUMA node.
type ClaimPolicy int

const (
	// ClaimAffinity (the default) claims local work first: shards
	// homed on the claiming thread's node, then remote shards as a
	// work-stealing fallback so no unit waits on an idle node and the
	// help protocol keeps its wait-free-ish progress.
	ClaimAffinity ClaimPolicy = iota
	// ClaimRoundRobin ignores topology and claims in index order —
	// the pre-topology behaviour, kept as the A6 ablation's control.
	ClaimRoundRobin
)

func (p ClaimPolicy) String() string {
	switch p {
	case ClaimAffinity:
		return "affinity"
	case ClaimRoundRobin:
		return "rr"
	default:
		return fmt.Sprintf("ClaimPolicy(%d)", int(p))
	}
}

// Config parameterizes a ThreadScan instance.
type Config struct {
	// BufferSize is the per-thread delete buffer capacity.  Defaults to
	// DefaultBufferSize (1024); the paper tunes 4096 for the
	// oversubscribed hash table.
	BufferSize int

	// Shards is K, the number of address-sharded master sub-buffers the
	// collect pipeline uses (rounded up to a power of two).  1 (the
	// default) reproduces the paper's single serial master buffer
	// exactly; larger K shrinks per-probe search depth and lets
	// scanners claim shards to sort inside their handlers.
	Shards int

	// CollectWatermark, when positive, triggers a collect as soon as
	// the *global* buffered count (all rings plus orphans) reaches the
	// watermark, instead of only when one thread's own ring fills.
	// Under skewed retirement this spreads reclaimer duty across
	// threads; 0 (the default) disables the trigger.
	CollectWatermark int

	// HelpFree enables the paper's §7 future-work extension: unmarked
	// nodes are queued and freed by the *next* phase's scanners instead
	// of all by the reclaimer, trading reclaimer latency for handler
	// work.  Scanners claim per-shard free lists (one list that any
	// thread may claim when Shards <= 1), at most helpFreeChunk nodes
	// per handler.
	HelpFree bool

	// Claim is the shard-claim order under a multi-node topology.
	// Irrelevant (and free of any effect on cycle charges) when the
	// simulation has a single node.
	Claim ClaimPolicy

	// PerNode enables per-node retirement routing and node-local
	// reclaimers (see pernode.go and slot.go).  Free tags each retired
	// address with the retiring thread's NUMA node; a full ring is
	// drained by its *owner* into per-node sub-buffers (ring →
	// home-node sub-buffer), and each node runs its own collects in its
	// own slot over its own single-node shard group — the only
	// cross-node synchronization is the scan barrier handshake.
	// Requires a multi-node topology (silently inert when the machine
	// is flat, keeping the flat model bit-identical) and at most 8
	// nodes (the tag rides in the ring entry's low three bits).
	PerNode bool

	// StealThreshold is the per-node backlog (in buffered addresses) at
	// which other nodes start stealing reclamation work under PerNode —
	// the rebalancing story for one-node-retires-everything skew.
	// Below it, sort and sweep work stays strictly node-local (remote
	// scanners scan but do not claim); above it, remote threads collect
	// for the overloaded node, help-sort its shards, and sweep its
	// deferred lists, trading remote fills for bounded memory.
	// Defaults to 4x the largest per-node collect trigger (which is
	// CollectWatermark/nodes when the watermark is set, else
	// BufferSize x the node's core count).
	StealThreshold int

	// SerializeCollects admits every per-node slot's collects through
	// one machine-wide reclamation lock, so no two collects overlap —
	// the A9 ablation's control.  By default (false) each node's slot
	// has its own admission lock and PerNode collects on different
	// nodes run truly concurrently (see slot.go); the only cross-node
	// rendezvous is the scan barrier.  Irrelevant when PerNode is off.
	SerializeCollects bool

	// Obs, when non-nil, records collect-lifecycle spans (trigger,
	// signal broadcast, scan, handshake wait, shard sort, sweep, free)
	// against the recorder.  Recording never charges virtual cycles, so
	// attaching a recorder cannot change any simulation outcome; nil
	// (the default) makes every recording site a no-op.
	Obs *obs.Recorder
}

func (c *Config) fill() {
	if c.BufferSize <= 0 {
		c.BufferSize = DefaultBufferSize
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
}

// Stats aggregates protocol activity.
type Stats struct {
	Frees           uint64 // nodes handed to Free
	Collects        uint64 // reclamation phases
	AvoidedCollects uint64 // buffer drained while waiting for the lock
	Reclaimed       uint64 // nodes freed to the allocator
	Remarked        uint64 // nodes found referenced, re-buffered
	ScannedWords    uint64 // stack+register+heap-block words examined
	ScannedThreads  uint64 // TS-Scan executions (incl. reclaimer's own)
	ParkedScans     uint64 // of which reclaimer-side scans of peers parked on its lock
	HelpFreed       uint64 // nodes freed by scanners (HelpFree mode)
	MaxMaster       int    // largest master buffer seen

	DoubleRetires     uint64 // duplicate retires of one address absorbed by dedup
	WatermarkCollects uint64 // collects triggered by the global watermark
	ShardsSorted      uint64 // shard prepare passes (== Collects when K == 1)
	HelpSortedShards  uint64 // shards prepared by scanners, not the reclaimer
	HelpSweptShards   uint64 // per-shard free lists claimed by scanners

	// Claim locality under a multi-node topology (zero when flat).
	// Every claim of a shard work unit — a prepare (sort) claim or a
	// HelpFree sweep-list claim — counts as local when the claiming
	// thread's node matches the shard's home, else remote.
	LocalShardClaims  uint64
	RemoteShardClaims uint64

	// SweepRemoteFills counts sweep-side frees (reclaimer sweeps, drain
	// mop-ups, and scanner help-frees) that touched a line homed on a
	// *different* node than the freeing thread — the cross-socket
	// traffic per-node routing exists to eliminate.  Zero on the flat
	// machine; with PerNode on and an affinity claim order only lines
	// another node touched after the retire count (realloc-local pays
	// a few hundred per run).  Teardown drains (FlushAll)
	// are excluded: flushing every node from one thread is a one-time
	// cross-node sweep by design, not a steady-state cost.
	SweepRemoteFills uint64

	// Per-node reclaimer accounting (PerNode mode only; nil otherwise).
	// NodeCollects[n] counts collect phases run over node n's shard
	// group; NodeReclaimed[n] counts nodes freed out of node-n-homed
	// work units (by any thread).
	NodeCollects  []uint64
	NodeReclaimed []uint64

	// Steal accounting under PerNode: collects run for a node by a
	// thread of another node, and sweep lists drained cross-node, both
	// gated by Config.StealThreshold.  A stolen collect TryLocks the
	// target node's slot, so it never targets a node whose own
	// reclaimer is active and never blocks an idle node's own collect.
	StolenCollects uint64
	StolenSweeps   uint64

	// OverlappedCollects counts collect phases that began while at
	// least one other node's collect was already in flight — the
	// concurrency the per-node collect slots exist to admit.  Always
	// zero under SerializeCollects (and in classic mode).
	OverlappedCollects uint64

	HandlerCycles int64 // virtual cycles spent inside scan handlers
	CollectCycles int64 // virtual cycles spent inside TS-Collect
}

// ThreadScan is one reclamation domain shared by all threads of a
// simulation.  Create it with New before Sim.Run; it hooks thread
// start/exit and installs the scan signal handler.
type ThreadScan struct {
	sim  *simt.Sim
	cfg  Config
	cost simt.CostModel // sim's cost model, immutable after simt.New
	obs  *obs.Recorder  // == cfg.Obs; nil-safe on every call

	// lock guards thread registration, and admits collects on every
	// slot whose lock it is (classic and serialized layouts): at most
	// one reclaimer there (paper §4.2).
	lock *simt.Mutex

	perThread  []*tsThread
	registered []bool

	// slots are the collect pipelines: one spanning every node
	// (classic), or one per node (PerNode; see slot.go).
	slots   []*slot
	scratch []uint64       // ring-drain staging
	parked  []*simt.Thread // signalPeers' parked peers, reused

	// Per-node routing state (PerNode mode; see pernode.go).
	// nodeBuf[n] is node n's home sub-buffer — addresses routed there
	// at Free time, single-node by construction.  nodeRemark[n] holds
	// node n's re-buffered marked (still-referenced) nodes; like the
	// classic path's ringCount exclusion, they do not count toward the
	// collect trigger, or pinned garbage would arm it permanently.
	perNode     bool
	nodeBuf     [][]uint64
	nodeRemark  [][]uint64
	nodeTrigger []int // per-node sub-buffer size that triggers a collect
	stealAt     int   // per-node backlog at which remote stealing engages

	// ringCount approximates the number of nodes buffered since the
	// last collect began (fresh retirement pressure) for the watermark
	// trigger; a real implementation would keep it in a relaxed atomic.
	// Remarked re-buffers deliberately do not count: nodes pinned by
	// live references would otherwise hold the count above the
	// watermark and turn every subsequent Free into a futile collect.
	ringCount int

	// nodes caches sim.Nodes(); 1 disables every topology code path.
	nodes int

	orphans []uint64 // buffered nodes of exited threads
	// orphanHome attributes each orphan to the NUMA node of the thread
	// that parked it, in lockstep with orphans.  Nil when flat.
	orphanHome []int8

	stats Stats
}

// freeList is one claimable sweep unit: the unmarked nodes of one
// shard, tagged with the shard's home node so claimers can prefer
// sweeping locally-homed lines (home -1, the paper's single help queue
// at K = 1, is anyone's and counts toward no claim counter).  claimed
// marks that the unit has been counted in the claim-locality stats, so
// a chunk-bounded remainder re-appended for the next helper is not
// counted again.
type freeList struct {
	addrs   []uint64
	home    int
	claimed bool
}

// tsThread is the per-thread state.
type tsThread struct {
	ring       *Ring
	heapBlocks [][2]uint64 // {startAddr, words} private regions (§4.3)
	inFlush    bool        // inside FlushAll (this thread's teardown sweeps skip steal/fill stats)
	// parkedOn is the lock this thread waits for with its registers
	// spilled to its stack (Free's ring-full path; see lockParked), nil
	// otherwise.
	parkedOn *simt.Mutex

	// Scan-target lists, reused so neither a handler run nor a
	// reclaimer's own scan allocates: want is the handler's snapshot of
	// the slots awaiting this thread's ack, own the reclaimer's slot.
	want []*slot
	own  []*slot
}

// New creates a ThreadScan domain bound to sim and installs its hooks.
// Call before sim.Run.
func New(sim *simt.Sim, cfg Config) *ThreadScan {
	cfg.fill()
	ts := &ThreadScan{
		sim:   sim,
		cfg:   cfg,
		cost:  sim.Config().Costs,
		obs:   cfg.Obs,
		lock:  sim.NewMutex("threadscan.reclaim"),
		nodes: sim.Nodes(),
	}
	if cfg.PerNode && ts.nodes > 1 {
		if ts.nodes > MaxRoutedNodes {
			panic(fmt.Sprintf("core: PerNode routing supports at most %d nodes (node tag rides in the ring entry's low bits), got %d",
				MaxRoutedNodes, ts.nodes))
		}
		ts.perNode = true
		ts.nodeBuf = make([][]uint64, ts.nodes)
		ts.nodeRemark = make([][]uint64, ts.nodes)
		// One reclaimer per node needs one trigger per node.  With the
		// watermark set, the global threshold splits evenly across
		// nodes; otherwise the default matches the classic cadence —
		// a node collects once its threads (approximated by its cores)
		// have each buffered about one ring's worth.
		ts.nodeTrigger = make([]int, ts.nodes)
		maxTrigger := 1
		for n := range ts.nodeTrigger {
			tr := cfg.CollectWatermark / ts.nodes
			if cfg.CollectWatermark <= 0 {
				lo, hi := sim.NodeCores(n)
				tr = cfg.BufferSize * (hi - lo)
			}
			ts.nodeTrigger[n] = max(tr, 1)
			maxTrigger = max(maxTrigger, tr)
		}
		ts.stealAt = cfg.StealThreshold
		if ts.stealAt <= 0 {
			ts.stealAt = 4 * maxTrigger
		}
		ts.stats.NodeCollects = make([]uint64, ts.nodes)
		ts.stats.NodeReclaimed = make([]uint64, ts.nodes)
		for n := 0; n < ts.nodes; n++ {
			lock := ts.lock
			if !cfg.SerializeCollects {
				lock = sim.NewMutex(fmt.Sprintf("threadscan.reclaim.n%d", n))
			}
			ts.addSlot(n, lock, fmt.Sprintf("threadscan.scan.n%d", n))
		}
	} else {
		ts.addSlot(-1, ts.lock, "threadscan.scan")
	}
	sim.SetSignalHandler(SigNum, ts.scanHandler)
	sim.OnThreadStart(ts.threadStart)
	sim.OnThreadExit(ts.threadExit)
	return ts
}

// addSlot appends an idle collect slot for node (-1: every node),
// admitted through lock.
func (ts *ThreadScan) addSlot(node int, lock *simt.Mutex, scan string) {
	ts.slots = append(ts.slots, &slot{
		node:        node,
		lock:        lock,
		hs:          ts.sim.NewHandshake(scan),
		shards:      newShardSet(ts.cfg.Shards, ts.nodes),
		reclaimerID: -1,
	})
}

// Stats returns a snapshot of protocol counters.  The per-node slices
// are copied so the snapshot stays stable while collects continue.
func (ts *ThreadScan) Stats() Stats {
	st := ts.stats
	st.NodeCollects = append([]uint64(nil), ts.stats.NodeCollects...)
	st.NodeReclaimed = append([]uint64(nil), ts.stats.NodeReclaimed...)
	return st
}

// Backlog returns the retired-but-unresolved node count: nodes handed
// to Free minus those freed (by the reclaimer or by helping scanners)
// and duplicate retires absorbed by dedup.  It reads four counters in
// place, so per-retire callers avoid Stats' copy and slice allocations.
func (ts *ThreadScan) Backlog() uint64 {
	st := &ts.stats
	return st.Frees - (st.Reclaimed + st.HelpFreed + st.DoubleRetires)
}

// PerNode reports whether per-node retirement routing is active (the
// config asked for it and the machine has more than one node).
func (ts *ThreadScan) PerNode() bool { return ts.perNode }

// BufferSize returns the per-thread delete buffer capacity.
func (ts *ThreadScan) BufferSize() int { return ts.cfg.BufferSize }

// Shards returns the collect pipeline's shard count K.
func (ts *ThreadScan) Shards() int { return ts.slots[0].shards.k() }

// threadStart registers a thread with the domain (the analog of the
// paper's pthread_create hook).
func (ts *ThreadScan) threadStart(t *simt.Thread) {
	ts.lock.Lock(t)
	id := t.ID()
	for len(ts.perThread) <= id {
		ts.perThread = append(ts.perThread, nil)
		ts.registered = append(ts.registered, false)
	}
	ts.perThread[id] = &tsThread{ring: NewRing(ts.cfg.BufferSize)}
	ts.registered[id] = true
	ts.lock.Unlock(t)
}

// threadExit deregisters a thread.  Its unprocessed buffer moves to
// the orphan list (classic) or drains straight into the per-node
// sub-buffers its tagged entries were destined for (PerNode; routeRing
// charges the copy), so its nodes are still reclaimed by future
// collects.  ringCount is unchanged: orphans stay part of the global
// buffered count.
//
// An in-flight collect's scan barrier may count this thread, so it
// holds every slot's admission lock (ascending, after the registration
// lock — the one global lock order) before it deregisters.  The waits
// are interruptible, so pending scan requests are still answered — and
// acked — from right here, and by the time all slots are held no
// handshake wants the thread.  A slot admitted through the
// registration lock is held already.
func (ts *ThreadScan) threadExit(t *simt.Thread) {
	ts.lock.Lock(t)
	for _, s := range ts.slots {
		ts.admit(t, s)
	}
	id := t.ID()
	ts.registered[id] = false
	if ts.perNode {
		ts.routeRing(t, ts.perThread[id])
	} else {
		var n int
		ts.scratch, n = ts.perThread[id].ring.Drain(ts.scratch[:0])
		for _, a := range ts.scratch {
			ts.parkOrphan(t, a)
		}
		t.Charge(int64(n) * ts.costs().Load)
	}
	for i := len(ts.slots) - 1; i >= 0; i-- {
		ts.release(t, ts.slots[i])
	}
	ts.lock.Unlock(t)
}

// Free is the paper's free(): hand an *unlinked* node to the
// reclamation domain.  The node must be unreachable from shared memory
// (Assumption 1.1); ThreadScan decides when it is safe to deallocate.
// When the calling thread's buffer is full — or, with the watermark
// trigger enabled, when the global buffered count crosses the
// watermark — Free triggers TS-Collect and does not return until the
// phase completes.
func (ts *ThreadScan) Free(t *simt.Thread, addr uint64) {
	addr &^= 7 // tolerate mark bits; the buffer stores node bases
	c := ts.costs()
	t.Charge(c.Store + c.Step)
	ts.stats.Frees++
	tt := ts.perThread[t.ID()]
	if ts.perNode {
		ts.freeRouted(t, tt, addr)
		return
	}
	s := ts.slots[0]
	if tt.ring.Push(addr) {
		ts.ringCount++
		if ts.cfg.CollectWatermark > 0 {
			t.Charge(c.Load) // read the shared buffered-count estimate
			if ts.ringCount >= ts.cfg.CollectWatermark {
				s.lock.Lock(t)
				if ts.ringCount >= ts.cfg.CollectWatermark {
					ts.stats.WatermarkCollects++
					ts.obs.Instant(t, obs.KindWatermark)
					ts.collect(t, s)
				} else {
					// Another reclaimer collected while we waited.
					ts.stats.AvoidedCollects++
				}
				s.lock.Unlock(t)
			}
		}
		return
	}
	// Buffer full: become the reclaimer (or discover someone else just
	// drained us while we waited for the lock — paper §4.2: "a thread
	// waiting to become a reclaimer will probably discover that its
	// buffer has been drained ... and that it can go back to work").
	ts.lockParked(t, tt, s.lock)
	if tt.ring.Push(addr) {
		ts.ringCount++
		ts.stats.AvoidedCollects++
		s.lock.Unlock(t)
		return
	}
	ts.obs.Instant(t, obs.KindTrigger)
	ts.collect(t, s)
	ts.ringCount++
	if !tt.ring.Push(addr) {
		// The collect re-buffered more marked (still-referenced) nodes
		// than the ring holds; park the newcomer with the orphans, the
		// next master buffer includes both.
		ts.parkOrphan(t, addr)
	}
	s.lock.Unlock(t)
}

// lockParked acquires m for Free's ring-full path.  It tries the lock
// first, so an uncontended acquire costs what Mutex.Lock costs.  A
// thread that has to wait spills its registers to its stack (NumRegs
// stores) and is published as parked on m until it holds m: its roots
// stay frozen for as long as m's holder keeps it, so a reclaimer that
// holds m scans them itself instead of signaling (signalPeers).
func (ts *ThreadScan) lockParked(t *simt.Thread, tt *tsThread, m *simt.Mutex) {
	if m.TryLock(t) {
		return
	}
	t.Charge(simt.NumRegs * ts.costs().Store)
	tt.parkedOn = m
	m.Lock(t)
	tt.parkedOn = nil
}

// parkOrphan appends addr to the orphan list, attributed to the NUMA
// node of the parking thread for shard-home election.
func (ts *ThreadScan) parkOrphan(t *simt.Thread, addr uint64) {
	ts.orphans = append(ts.orphans, addr)
	if ts.nodes > 1 {
		ts.orphanHome = append(ts.orphanHome, int8(t.Node()))
	}
}

// Collect forces a reclamation phase from thread t, regardless of
// buffer occupancy.  Used by tests, teardown, and the harness.  Under
// per-node routing it routes every live ring (under the registration
// lock) and collects each node with backlog (ascending node order, for
// determinism); with nothing routed anywhere it still runs one (empty)
// phase on t's node, so a forced collect ticks the HelpFree carry-over
// as in the classic path.
func (ts *ThreadScan) Collect(t *simt.Thread) {
	ts.lock.Lock(t)
	if ts.perNode {
		ts.routeAllRings(t)
	}
	shared := ts.slots[0].lock == ts.lock
	if !shared {
		ts.lock.Unlock(t)
	}
	if !ts.collectSlots(t, false) {
		s := ts.slots[t.Node()]
		ts.admit(t, s)
		ts.collect(t, s)
		ts.release(t, s)
	}
	if shared {
		ts.lock.Unlock(t)
	}
}

// collectSlots collects each slot in ascending order (a per-node slot
// only when its node has backlog), reporting whether any collect ran.
// A flush also drains each slot's sweep lists whatever the steal
// threshold says, and frees the lists the collect just deferred under
// HelpFree: at teardown there is no next phase to help.
func (ts *ThreadScan) collectSlots(t *simt.Thread, flush bool) (ran bool) {
	for _, s := range ts.slots {
		ts.admit(t, s)
		if s.node < 0 || ts.routed(s.node) > 0 {
			ts.collect(t, s)
			ran = true
		}
		if flush {
			ts.drain(t, s)
			ts.freeLists(t, s, s.pending, false)
			s.pending = s.pending[:0]
		}
		ts.release(t, s)
	}
	return ran
}

// admit takes s's admission lock unless it is the registration lock,
// which the caller then already holds (classic and serialized slots).
func (ts *ThreadScan) admit(t *simt.Thread, s *slot) {
	if s.lock != ts.lock {
		s.lock.Lock(t)
	}
}

// release undoes admit.
func (ts *ThreadScan) release(t *simt.Thread, s *slot) {
	if s.lock != ts.lock {
		s.lock.Unlock(t)
	}
}

// routed is node's buffered backlog awaiting its slot's next collect.
func (ts *ThreadScan) routed(node int) int {
	return len(ts.nodeBuf[node]) + len(ts.nodeRemark[node])
}

// AddHeapBlock registers a thread-private heap region to be scanned
// along with t's stack and registers (§4.3 extension).  startAddr must
// be word-aligned; length is in bytes.
func (ts *ThreadScan) AddHeapBlock(t *simt.Thread, startAddr uint64, length int) {
	if startAddr%8 != 0 {
		panic("core: AddHeapBlock start not word-aligned")
	}
	tt := ts.perThread[t.ID()]
	tt.heapBlocks = append(tt.heapBlocks, [2]uint64{startAddr, uint64((length + 7) / 8)})
	t.Charge(ts.costs().Store)
}

// RemoveHeapBlock unregisters a region previously added by AddHeapBlock.
func (ts *ThreadScan) RemoveHeapBlock(t *simt.Thread, startAddr uint64, length int) {
	tt := ts.perThread[t.ID()]
	want := [2]uint64{startAddr, uint64((length + 7) / 8)}
	for i, b := range tt.heapBlocks {
		if b == want {
			tt.heapBlocks = append(tt.heapBlocks[:i], tt.heapBlocks[i+1:]...)
			t.Charge(ts.costs().Store)
			return
		}
	}
	panic("core: RemoveHeapBlock of unregistered block")
}

// RegisteredThreads returns the number of threads currently registered
// with the domain (start-hooked but not yet exit-hooked).  After a
// simulation completes it must be zero: a nonzero count means a thread
// exited without deregistering — the leak thread-churn tests hunt for.
func (ts *ThreadScan) RegisteredThreads() int {
	n := 0
	for _, r := range ts.registered {
		if r {
			n++
		}
	}
	return n
}

// Buffered returns the number of retired-but-unreclaimed nodes across
// all buffers (diagnostics and leak accounting).
func (ts *ThreadScan) Buffered() int {
	n := len(ts.orphans)
	for _, tt := range ts.perThread {
		if tt != nil {
			n += tt.ring.Len()
		}
	}
	for i := range ts.nodeBuf {
		n += ts.routed(i)
	}
	for _, s := range ts.slots {
		n += s.backlog()
	}
	return n
}

// FlushAll runs collect phases from thread t until no buffered nodes
// remain or progress stops (nodes still referenced by live threads).
// It returns the number of nodes still buffered.  Intended for
// teardown, after application threads have dropped their references.
func (ts *ThreadScan) FlushAll(t *simt.Thread) int {
	// Mark this thread (not the domain) as flushing: its teardown
	// sweeps are excluded from the steady-state locality stats, while
	// other threads' concurrent genuine collects keep counting.
	if tt := ts.perThread[t.ID()]; tt != nil {
		tt.inFlush = true
		defer func() { tt.inFlush = false }()
	}
	for i := 0; i < 4; i++ {
		if ts.Buffered() == 0 {
			return 0
		}
		before := ts.stats.Reclaimed + ts.stats.HelpFreed
		ts.lock.Lock(t)
		if ts.perNode {
			ts.routeAllRings(t)
		}
		ts.collectSlots(t, true)
		ts.lock.Unlock(t)
		if ts.stats.Reclaimed+ts.stats.HelpFreed == before {
			break
		}
	}
	return ts.Buffered()
}

func (ts *ThreadScan) costs() *simt.CostModel { return &ts.cost }

// countClaim records the locality of one *voluntary* help-protocol
// claim — a helpSort prepare or a helpFree sweep-list claim — against
// the claiming thread's node.  Forced prepares (probe-on-demand, the
// reclaimer's post-ACK mop-up) are not counted: the counters measure
// what the claim policy chose, not what the protocol compelled.  Pure
// bookkeeping — no cycle charge, and a no-op on the flat machine.
func (ts *ThreadScan) countClaim(t *simt.Thread, home int) {
	if ts.nodes <= 1 {
		return
	}
	if t.Node() == home {
		ts.stats.LocalShardClaims++
	} else {
		ts.stats.RemoteShardClaims++
	}
}

// freeNode returns a proven-unreferenced node to the allocator.  On a
// multi-node machine the free touches the block's line (poisoning and
// free-list relinking are stores), so sweeping a remotely-owned node
// pays the interconnect hop — the traffic the affinity-first claim
// order exists to avoid.
func (ts *ThreadScan) freeNode(t *simt.Thread, addr uint64) {
	if ts.nodes > 1 {
		ts.noteSweep(t, addr)
		t.Touch(addr)
	}
	t.FreeAddr(addr)
	ts.stats.Reclaimed++
}

// noteSweep records whether a sweep-side touch of addr will cross the
// interconnect: the line's current home is a different node than the
// freeing thread's.  Checked *before* the Touch, which migrates
// ownership.  Pure bookkeeping — no cycle charge.
func (ts *ThreadScan) noteSweep(t *simt.Thread, addr uint64) {
	if ts.flushing(t) {
		return
	}
	if h := ts.sim.LineHome(addr); h >= 0 && h != t.Node() {
		ts.stats.SweepRemoteFills++
	}
}

// flushing reports whether t is inside its own FlushAll — the teardown
// window whose deliberately cross-node sweeps stay out of the
// steady-state steal and fill statistics.
func (ts *ThreadScan) flushing(t *simt.Thread) bool {
	id := t.ID()
	return id < len(ts.perThread) && ts.perThread[id] != nil && ts.perThread[id].inFlush
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}
