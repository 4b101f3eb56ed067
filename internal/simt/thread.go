package simt

import (
	"fmt"
	"math/rand"
	"runtime/debug"

	"threadscan/internal/simmem"
)

// Thread is one simulated thread: a register file, a word-array stack,
// a virtual clock, and a thread-cached view of the simulated heap.
//
// The register/stack discipline is the heart of the reproduction.  Every
// heap address a thread may dereference must live in a register or a
// stack slot at every safepoint; the memory primitives enforce this by
// construction, because they read addresses from and deliver results to
// registers.  ThreadScan's TS-Scan walks exactly these words.
//
// All methods must be called from the thread's own body/handler (they
// are not host-concurrency-safe; the scheduler serializes threads).
type Thread struct {
	sim  *Sim
	id   int
	name string
	body func(*Thread)

	regs   [NumRegs]uint64
	stack  []uint64
	sp     int
	frames []int

	cache *simmem.Cache
	rng   *rand.Rand

	// Virtual time.
	now        int64
	quantumEnd int64
	readyAt    int64
	wakeAt     int64
	core       int
	pinned     int // NUMA node affinity; -1 = any core

	// Scheduling state (owned by the scheduler and the single active
	// party; the coroutine switch orders every access).
	next        func() (struct{}, bool) // resume the body until it yields
	stop        func()                  // unwind a parked body
	yield       func(struct{}) bool     // hand the core back; false once stopped
	q           quantum                 // the grant the next resume runs under
	reason      yieldReason
	runnable    bool
	exited      bool
	waitQ       *WaitQueue
	sleeping    bool
	interrupted bool
	panicVal    any
	panicStack  string

	// Signals.
	sigPending uint32
	sigDepth   int

	// Accounting.
	cycles        int64
	handlerCycles int64
	waitCycles    int64
	ops           uint64 // free-form operation counter for workloads
}

// ID returns the thread's dense index (0..n-1), assigned in spawn
// order.  Reclamation schemes index their per-thread state with it.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's spawn name.
func (t *Thread) Name() string { return t.name }

// Sim returns the owning simulation.
func (t *Thread) Sim() *Sim { return t.sim }

// Now returns the thread's current virtual time in cycles.
func (t *Thread) Now() int64 { return t.now }

// Core returns the virtual core the thread was last dispatched on.
func (t *Thread) Core() int { return t.core }

// RNG returns the thread's deterministic random source.
func (t *Thread) RNG() *rand.Rand { return t.rng }

// MemCache returns the thread's heap allocation cache.
func (t *Thread) MemCache() *simmem.Cache { return t.cache }

// Cycles returns total virtual cycles consumed by this thread.
func (t *Thread) Cycles() int64 { return t.cycles }

// HandlerCycles returns virtual cycles consumed inside signal handlers.
func (t *Thread) HandlerCycles() int64 { return t.handlerCycles }

// WaitCycles returns cycles burned in Pause spin-waits.
func (t *Thread) WaitCycles() int64 { return t.waitCycles }

// Exited reports whether the thread's body has returned.
func (t *Thread) Exited() bool { return t.exited }

// AddOps adds to the thread's free-form operation counter.
func (t *Thread) AddOps(n uint64) { t.ops += n }

// Ops returns the free-form operation counter.
func (t *Thread) Ops() uint64 { return t.ops }

// released is the panic value that unwinds a parked body once the
// scheduler has stopped its coroutine.  It is private so no body can
// mistake it for its own, and main swallows it.  runtime.Goexit would not
// do: iter.Pull re-raises a coroutine's Goexit in the scheduler.
type released struct{}

// main is the coroutine body, entered at the first dispatch: run hooks
// and the thread body, and leave the exit (or panic) reason for the
// scheduler, which regains the core when main returns.
func (t *Thread) main(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(released); ok {
				return
			}
			t.panicVal = r
			t.panicStack = string(debug.Stack())
			t.reason = yPanic
		}
	}()
	t.begin(t.q)
	// The thread cache binds to the thread's node at first dispatch
	// (the pinned node when pinned): under per-node pools its refills
	// draw from — and its frees return to — that node's share of the
	// arena.  On the flat machine this is node 0, exactly the old
	// unbound cache.
	t.cache = t.sim.heap.NewCacheOn(t.Node())
	for _, h := range t.sim.startHooks {
		h(t)
	}
	t.body(t)
	// The body has returned: its machine state is dead.  Clear the
	// register file and stack so exit hooks (which may trigger a final
	// scan) do not see stale references pinning nodes.
	t.regs = [NumRegs]uint64{}
	t.sp = 0
	t.frames = t.frames[:0]
	for _, h := range t.sim.exitHooks {
		h(t)
	}
	t.cache.Flush()
	t.reason = yExit
}

func (t *Thread) begin(q quantum) {
	if q.start > t.now {
		t.now = q.start
	}
	t.quantumEnd = q.end
}

// yieldCore hands the core back to the scheduler and resumes at the
// next dispatch.  If the simulation was aborted instead, the body
// unwinds (running its deferred calls) back to main.
func (t *Thread) yieldCore(reason yieldReason) {
	t.reason = reason
	if !t.yield(struct{}{}) {
		panic(released{})
	}
	t.begin(t.q)
}

// charge advances the thread's virtual clock by cost cycles, routing
// the cycles to handler accounting when inside a signal handler.
func (t *Thread) charge(cost int64) {
	t.now += cost
	t.cycles += cost
	if t.sigDepth > 0 {
		t.handlerCycles += cost
	}
}

// Charge lets library code (reclamation schemes) account virtual work
// that has no dedicated primitive, e.g. per-word scan costs.
func (t *Thread) Charge(cost int64) { t.charge(cost) }

// safepoint is an instruction boundary: pending signals are delivered
// here, and the quantum is surrendered here when expired.  Between two
// safepoints a thread runs "atomically" with respect to the simulation.
// The common case — nothing pending, quantum left — returns inline.
func (t *Thread) safepoint() {
	if t.sigPending == 0 && t.now < t.quantumEnd {
		return
	}
	t.safepointSlow()
}

func (t *Thread) safepointSlow() {
	for {
		if t.sigPending != 0 && t.sigDepth == 0 {
			t.deliverSignals()
			continue
		}
		if t.now >= t.quantumEnd {
			t.yieldCore(yQuantum)
			continue
		}
		return
	}
}

// Safepoint exposes an explicit instruction boundary, for library spin
// loops that otherwise execute no memory primitive.
func (t *Thread) Safepoint() { t.safepoint() }

// ---------------------------------------------------------------------
// Register file.

func (t *Thread) checkReg(r int) {
	if uint(r) >= NumRegs {
		badReg(r)
	}
}

// badReg is checkReg's cold failure path, kept out of line so Reg stays
// inlinable and the check inlines into SetReg and the memory primitives.
//
//go:noinline
func badReg(r int) {
	panic(fmt.Sprintf("simt: register %d out of range", r))
}

// Reg returns the value of register r.
func (t *Thread) Reg(r int) uint64 {
	t.checkReg(r)
	return t.regs[r]
}

// SetReg writes v to register r.  A register write is a pure
// register-file operation (no safepoint): values move in and out of
// registers atomically with respect to signal delivery, exactly as on
// real hardware where the handler sees the interrupted register state.
func (t *Thread) SetReg(r int, v uint64) {
	t.checkReg(r)
	t.charge(t.sim.cfg.Costs.RegOp)
	t.regs[r] = v
}

// CopyReg copies register src to dst.
func (t *Thread) CopyReg(dst, src int) { t.SetReg(dst, t.Reg(src)) }

// ---------------------------------------------------------------------
// Simulated stack.

// PushFrame reserves n zeroed stack slots and makes them the current
// frame.  Frames model the paper's stack-resident private references
// (e.g. a skip list's predecessor array).
func (t *Thread) PushFrame(n int) {
	if t.sp+n > len(t.stack) {
		panic(fmt.Sprintf("simt: thread %d stack overflow (%d + %d > %d)", t.id, t.sp, n, len(t.stack)))
	}
	t.charge(int64(n) * t.sim.cfg.Costs.RegOp)
	t.frames = append(t.frames, t.sp)
	for i := t.sp; i < t.sp+n; i++ {
		t.stack[i] = 0
	}
	t.sp += n
}

// PopFrame releases the current frame.
func (t *Thread) PopFrame() {
	if len(t.frames) == 0 {
		panic("simt: PopFrame with no frame")
	}
	base := t.frames[len(t.frames)-1]
	t.frames = t.frames[:len(t.frames)-1]
	t.sp = base
	t.charge(t.sim.cfg.Costs.RegOp)
}

func (t *Thread) slotIndex(i int) int {
	if len(t.frames) == 0 {
		panic("simt: stack slot access with no frame")
	}
	base := t.frames[len(t.frames)-1]
	idx := base + i
	if i < 0 || idx >= t.sp {
		panic(fmt.Sprintf("simt: stack slot %d out of frame", i))
	}
	return idx
}

// Slot returns slot i of the current frame.
func (t *Thread) Slot(i int) uint64 { return t.stack[t.slotIndex(i)] }

// SetSlot writes v to slot i of the current frame.
func (t *Thread) SetSlot(i int, v uint64) {
	t.charge(t.sim.cfg.Costs.RegOp)
	t.stack[t.slotIndex(i)] = v
}

// StackDepth returns the number of live stack words.
func (t *Thread) StackDepth() int { return t.sp }

// ScanRoots calls f for every word currently visible in the thread's
// register file and used stack — the root set a TS-Scan walks.  The
// caller accounts scan cost; ScanRoots itself charges nothing.
func (t *Thread) ScanRoots(f func(word uint64)) {
	for i := range t.regs {
		f(t.regs[i])
	}
	for i := 0; i < t.sp; i++ {
		f(t.stack[i])
	}
}

// RootWords returns the number of words ScanRoots will visit.
func (t *Thread) RootWords() int { return NumRegs + t.sp }

// ---------------------------------------------------------------------
// Memory primitives.  Addresses come from registers, results go to
// registers; a handler can therefore never observe an "in flight"
// reference that is in neither (paper Assumption 1.3).

// memCost returns the cost of an access to addr, consulting the
// per-core cache model when enabled and the NUMA topology when the
// machine has more than one node.  An access that must reach memory —
// a modeled cache miss, or any access when the cache model is off —
// is a line fill; a fill whose home node differs from the accessing
// core's node additionally pays Costs.RemoteFill (the interconnect
// hop) and counts in SimStats.RemoteLineFills.  With the cache model off
// on a flat machine the cost is base, returned inline.
func (t *Thread) memCost(base int64, addr uint64) int64 {
	if t.sim.caches == nil && t.sim.topo.nodes <= 1 {
		return base
	}
	return t.modeledMemCost(base, addr)
}

// modeledMemCost is memCost's cache and topology model.  It must read
// neither t.now nor the register file: ChaseSorted's modeled run-ahead
// calls it while the walk's clock and registers are held in locals.
// Its only effects are the cache tags, the line homes, the fill counts
// and the probe's RemoteLineFill.
func (t *Thread) modeledMemCost(base int64, addr uint64) int64 {
	fill := true
	if t.sim.caches != nil {
		fill = !t.sim.caches[t.core].access(addr)
		if fill {
			base += t.sim.cfg.Costs.MissPenalty
		}
	}
	if fill && t.sim.topo.nodes > 1 {
		node := t.Node()
		if t.sim.homeOf(addr, node) != node {
			t.sim.stats.RemoteLineFills++
			if p := t.sim.probe; p != nil {
				p.RemoteLineFill(t)
			}
			base += t.sim.cfg.Costs.RemoteFill
			// The fill migrates ownership to the accessor's socket
			// (see topology.go): subsequent accesses from this node
			// are local until the other node pulls the line back.
			t.sim.setHome(addr, 1, node)
		} else {
			t.sim.stats.LocalLineFills++
		}
	}
	return base
}

// Touch models a memory access to addr that carries no instruction
// cost of its own: it runs the same cache and topology accounting as
// Load — miss penalty, remote fill, ownership migration — and charges
// only those components.  Library code uses it for operations whose
// instruction cost is charged flat but which still move cache lines,
// e.g. the collect pipeline's sweep poisoning a freed block.
func (t *Thread) Touch(addr uint64) {
	if c := t.memCost(0, addr); c > 0 {
		t.charge(c)
	}
}

// Load loads the word at regs[addrReg] + offWords*8 into regs[dst].
func (t *Thread) Load(dst, addrReg int, offWords int) {
	addr := t.Reg(addrReg) + uint64(offWords)*simmem.WordSize
	t.charge(t.memCost(t.sim.cfg.Costs.Load, addr))
	t.safepoint()
	v := t.sim.heap.Load(addr)
	t.checkReg(dst)
	t.regs[dst] = v
}

// Reasons ChaseSorted stops.
const (
	ChaseEnd    = iota // regs[rCurr] is 0: the walk ran off the end
	ChaseMarked        // regs[rNext] carries the mark bit (stopOnMark only)
	ChaseFound         // regs[rKey] >= key: rCurr is the first node at or past key
)

// ChaseSorted walks a sorted linked list whose nodes hold a key at word
// keyOff and a successor word, low bit the deletion mark, at word
// nextOff.  It starts at the node in regs[rCurr], with regs[rPrev]
// naming the link word that holds it, and repeats the uninstrumented
// traversal step
//
//	if regs[rCurr] == 0 { return ChaseEnd }
//	Load(rNext, rCurr, nextOff)
//	if stopOnMark && regs[rNext]&1 != 0 { return ChaseMarked }
//	Load(rKey, rCurr, keyOff)
//	if regs[rKey] >= key { return ChaseFound }
//	SetReg(rPrev, regs[rCurr]+nextOff*8)
//	SetReg(rCurr, regs[rNext]&^1)
//
// until one of the returns fires.  The four registers must be distinct.
//
// It is that sequence fused into one call, not an approximation of it:
// registers, clocks, counters, cache and line-home state, signal
// delivery points, quantum ends and heap violations are exactly those
// of the per-call sequence.  The exact loop below runs each step as
// that sequence does: every access pays its own memCost, charge and
// safepoint, every register write its own RegOp, and registers are
// re-read after each safepoint, because a handler may run there.
//
// While no signal is deliverable a safepoint returns inline until the
// clock reaches the quantum end, and nothing else runs in between.  So
// a step whose two loads both land before the quantum end, even at the
// highest cost an access can have on the machine, and whose two
// addresses pass the heap's checks runs ahead: the clock and the four
// registers stay in locals and are written back once, when the
// run-ahead stops.  On a flat machine with the cache model off every
// load costs exactly Costs.Load, and the loop below runs such steps
// (now+2·Load < quantumEnd) entirely in locals; on every other machine
// chaseAheadModeled runs them.  The exact loop takes only the step that
// could reach the quantum end, every step while a signal is
// deliverable, and a step with a failing address, which it then faults
// on exactly as Load does.
func (t *Thread) ChaseSorted(rPrev, rCurr, rNext, rKey int, nextOff, keyOff int, key uint64, stopOnMark bool) int {
	t.checkReg(rPrev)
	t.checkReg(rCurr)
	t.checkReg(rNext)
	t.checkReg(rKey)
	if rPrev == rCurr || rPrev == rNext || rPrev == rKey || rCurr == rNext || rCurr == rKey || rNext == rKey {
		aliasedChase(rPrev, rCurr, rNext, rKey)
	}
	nextBytes := uint64(nextOff) * simmem.WordSize
	keyBytes := uint64(keyOff) * simmem.WordSize
	costs := &t.sim.cfg.Costs
	heap := t.sim.heap
	load, regOp := costs.Load, costs.RegOp
	// The budget tests below assume an access never moves the clock back.
	flat := t.sim.caches == nil && t.sim.topo.nodes <= 1 && load >= 0
	modeled := !flat && load >= 0 && costs.MissPenalty >= 0 && costs.RemoteFill >= 0
	for {
		if flat && (t.sigPending == 0 || t.sigDepth > 0) {
			prev, curr, next, k := t.regs[rPrev], t.regs[rCurr], t.regs[rNext], t.regs[rKey]
			start, now, end := t.now, t.now, t.quantumEnd
			reason := -1
			for curr != 0 && now+2*load < end {
				n, ok := heap.TryLoad(curr + nextBytes)
				if !ok {
					break
				}
				if stopOnMark && n&1 != 0 {
					now += load
					next, reason = n, ChaseMarked
					break
				}
				kv, ok := heap.TryLoad(curr + keyBytes)
				if !ok {
					break
				}
				now += 2 * load
				next, k = n, kv
				if kv >= key {
					reason = ChaseFound
					break
				}
				now += 2 * regOp
				prev, curr = curr+nextBytes, n&^1
			}
			t.regs[rPrev], t.regs[rCurr], t.regs[rNext], t.regs[rKey] = prev, curr, next, k
			t.now = now
			t.cycles += now - start
			if t.sigDepth > 0 {
				t.handlerCycles += now - start
			}
			if reason >= 0 {
				return reason
			}
		}
		if modeled && (t.sigPending == 0 || t.sigDepth > 0) {
			if reason := t.chaseAheadModeled(rPrev, rCurr, rNext, rKey, nextBytes, keyBytes, key, stopOnMark); reason >= 0 {
				return reason
			}
		}
		// One exact step: the run-ahead could not take it.
		if t.regs[rCurr] == 0 {
			return ChaseEnd
		}
		addr := t.regs[rCurr] + nextBytes
		t.charge(t.memCost(load, addr))
		t.safepoint()
		t.regs[rNext] = heap.Load(addr)
		if stopOnMark && t.regs[rNext]&1 != 0 {
			return ChaseMarked
		}
		addr = t.regs[rCurr] + keyBytes
		t.charge(t.memCost(load, addr))
		t.safepoint()
		t.regs[rKey] = heap.Load(addr)
		if t.regs[rKey] >= key {
			return ChaseFound
		}
		t.charge(regOp)
		t.regs[rPrev] = t.regs[rCurr] + nextBytes
		t.charge(regOp)
		t.regs[rCurr] = t.regs[rNext] &^ 1
	}
}

// chaseAheadModeled is ChaseSorted's run-ahead on a cache-model or NUMA
// machine, where an access's cost depends on its line.  An access costs
// at most worst = Load, plus MissPenalty with the cache model on, plus
// RemoteFill on more than one node, so a step runs while
// now+2·worst < quantumEnd.  Each load still goes through
// modeledMemCost, in the per-call order, so cache tags, line homes,
// fill counts and probe calls are those of the exact loop; only the
// clock and the four registers stay in locals.  Both of a step's words
// pass TryLoad before either is costed, so a step that would fault
// leaves no trace and the exact loop re-runs it; a mark stop costs only
// the link word, as the per-call sequence does.  It returns the stop
// reason, or -1 when the exact loop must take the next step.  It is a
// method of its own because in ChaseSorted the modeledMemCost call
// would make the flat run-ahead's locals spill.
func (t *Thread) chaseAheadModeled(rPrev, rCurr, rNext, rKey int, nextBytes, keyBytes, key uint64, stopOnMark bool) int {
	costs := &t.sim.cfg.Costs
	heap := t.sim.heap
	load, regOp := costs.Load, costs.RegOp
	worst := load
	if t.sim.caches != nil {
		worst += costs.MissPenalty
	}
	if t.sim.topo.nodes > 1 {
		worst += costs.RemoteFill
	}
	prev, curr, next, k := t.regs[rPrev], t.regs[rCurr], t.regs[rNext], t.regs[rKey]
	start, now, end := t.now, t.now, t.quantumEnd
	reason := -1
	for curr != 0 && now+2*worst < end {
		n, ok := heap.TryLoad(curr + nextBytes)
		if !ok {
			break
		}
		if stopOnMark && n&1 != 0 {
			now += t.modeledMemCost(load, curr+nextBytes)
			next, reason = n, ChaseMarked
			break
		}
		kv, ok := heap.TryLoad(curr + keyBytes)
		if !ok {
			break
		}
		now += t.modeledMemCost(load, curr+nextBytes)
		now += t.modeledMemCost(load, curr+keyBytes)
		next, k = n, kv
		if kv >= key {
			reason = ChaseFound
			break
		}
		now += 2 * regOp
		prev, curr = curr+nextBytes, n&^1
	}
	t.regs[rPrev], t.regs[rCurr], t.regs[rNext], t.regs[rKey] = prev, curr, next, k
	t.charge(now - start) // t.now is still start
	return reason
}

// aliasedChase is ChaseSorted's cold failure path for a register named
// twice: the walk's steps would then depend on their write order.
//
//go:noinline
func aliasedChase(rPrev, rCurr, rNext, rKey int) {
	panic(fmt.Sprintf("simt: ChaseSorted registers must be distinct (prev %d, curr %d, next %d, key %d)", rPrev, rCurr, rNext, rKey))
}

// Store writes regs[srcReg] to the word at regs[addrReg] + offWords*8.
func (t *Thread) Store(addrReg int, offWords int, srcReg int) {
	t.storeVal(addrReg, offWords, t.Reg(srcReg))
}

// StoreImm writes the immediate val to regs[addrReg] + offWords*8.
// Used for scalar fields (keys, flags) that are not references.
func (t *Thread) StoreImm(addrReg int, offWords int, val uint64) {
	t.storeVal(addrReg, offWords, val)
}

func (t *Thread) storeVal(addrReg int, offWords int, val uint64) {
	addr := t.Reg(addrReg) + uint64(offWords)*simmem.WordSize
	t.charge(t.memCost(t.sim.cfg.Costs.Store, addr))
	t.safepoint()
	t.sim.heap.Store(addr, val)
}

// CAS compares-and-swaps the word at regs[addrReg] + offWords*8 from
// regs[oldReg] to regs[newReg], reporting success.
func (t *Thread) CAS(addrReg int, offWords int, oldReg, newReg int) bool {
	addr := t.Reg(addrReg) + uint64(offWords)*simmem.WordSize
	t.charge(t.memCost(t.sim.cfg.Costs.CAS, addr))
	t.safepoint()
	return t.sim.heap.CompareAndSwap(addr, t.Reg(oldReg), t.Reg(newReg))
}

// CASImm is CAS with immediate old/new values taken from registers by
// value; used by lock words where old/new are constants.
func (t *Thread) CASImm(addrReg int, offWords int, old, new uint64) bool {
	addr := t.Reg(addrReg) + uint64(offWords)*simmem.WordSize
	t.charge(t.memCost(t.sim.cfg.Costs.CAS, addr))
	t.safepoint()
	return t.sim.heap.CompareAndSwap(addr, old, new)
}

// Fence models a full memory barrier (mfence).  Hazard-pointer
// publication pays this on every traversal step — the cost the paper's
// §6 identifies as HP's scalability limit.
func (t *Thread) Fence() {
	t.charge(t.sim.cfg.Costs.Fence)
	t.safepoint()
}

// Alloc allocates size bytes and places the block address in regs[dst].
// Under a multi-node topology the fresh block's lines are homed on the
// allocating thread's node (first-touch placement).  A block *resident*
// on another node — its page was carved for a different node, the way a
// global pool recycles one socket's memory into another socket's malloc
// — counts in the heap's RemoteAllocs; when the heap has per-node pools
// it additionally counts in SimStats.AllocRemoteFills and pays
// Costs.RemoteFill for the cross-socket pull.  The global-policy cost
// model is left untouched so its captured baselines stay bit-identical.
func (t *Thread) Alloc(dst int, size int) {
	start := t.now
	remote := false
	t.charge(t.sim.cfg.Costs.Alloc + int64(size/simmem.WordSize))
	t.safepoint()
	addr := t.cache.Alloc(size)
	if t.sim.topo.nodes > 1 {
		if t.sim.heap.Pools() > 1 && t.sim.heap.ResidentNode(addr) != t.cache.Node() {
			t.sim.stats.AllocRemoteFills++
			remote = true
			t.charge(t.sim.cfg.Costs.RemoteFill)
		}
		t.sim.setHome(addr, size, t.Node())
	}
	t.checkReg(dst)
	t.regs[dst] = addr
	if p := t.sim.probe; p != nil {
		p.Alloc(t, t.now-start, remote)
	}
}

// FreeAddr returns the block at addr to the heap.  This is the
// *allocator* free used inside reclamation schemes once a node is
// proven unreachable; application code calls the scheme's Retire
// instead.  Under per-node pools the block routes to its home node;
// cross-node frees stage in the thread cache and flush to the home
// pool's remote-free inbox a batch at a time, charging Costs.RemoteFill
// once per flushed batch (TCMalloc's transfer-cache amortization).
func (t *Thread) FreeAddr(addr uint64) {
	start := t.now
	t.charge(t.sim.cfg.Costs.Free)
	t.safepoint()
	flushed := t.cache.Free(addr)
	if flushed {
		t.charge(t.sim.cfg.Costs.RemoteFill)
	}
	if p := t.sim.probe; p != nil {
		p.Free(t, t.now-start, flushed)
	}
}

// LoadAddr reads a heap word by absolute address, for library-internal
// structures (delete buffers, registered heap blocks).  Application
// data-structure code must use Load so references stay in registers.
func (t *Thread) LoadAddr(addr uint64) uint64 {
	t.charge(t.memCost(t.sim.cfg.Costs.Load, addr))
	t.safepoint()
	return t.sim.heap.Load(addr)
}

// StoreAddr writes a heap word by absolute address (library-internal).
func (t *Thread) StoreAddr(addr uint64, val uint64) {
	t.charge(t.memCost(t.sim.cfg.Costs.Store, addr))
	t.safepoint()
	t.sim.heap.Store(addr, val)
}

// ---------------------------------------------------------------------
// Control.

// Step charges one generic instruction and passes a safepoint.
func (t *Thread) Step() {
	t.charge(t.sim.cfg.Costs.Step)
	t.safepoint()
}

// Work burns cycles of simulated computation, passing safepoints every
// chunk so signals stay responsive (an application busy-loop cannot
// block the protocol — paper §1.2).
func (t *Thread) Work(cycles int64) {
	const chunk = 200
	for cycles > 0 {
		c := int64(chunk)
		if c > cycles {
			c = cycles
		}
		t.charge(c)
		cycles -= c
		t.safepoint()
	}
}

// Pause is one spin-wait iteration (the x86 PAUSE idiom): it charges
// the pause cost into wait accounting and passes a safepoint.
func (t *Thread) Pause() {
	t.charge(t.sim.cfg.Costs.Pause)
	t.waitCycles += t.sim.cfg.Costs.Pause
	t.safepoint()
}

// SpinWait spins until done reports true, exactly as the loop
//
//	for !done() { t.Pause() }
//
// would, and reports whether it paused at all.  done must be a pure read
// of simulation state that only other threads, or this thread's signal
// handlers, change: it may not charge cycles or call a simt primitive.
//
// Nothing else runs during a thread's quantum, so while no signal is
// deliverable every further PAUSE before the quantum ends is futile:
// done cannot change until a safepoint yields the core or runs a
// handler.  SpinWait charges those iterations in one step — n =
// ⌈(quantumEnd−now)/Pause⌉ PAUSEs into the clock, wait and handler
// accounting — and then passes the safepoint, so the quantum ends at
// the cycle the per-PAUSE loop would end it and every virtual result is
// unchanged.  Only the host cost shrinks, from one call per PAUSE to
// one per quantum.
//
// Loops whose condition issues a simulated access each iteration — the
// skip list's lock CAS and its fullyLinked load — keep a per-iteration
// Pause: each access pays its own cache-model, topology and safepoint
// cost, so their iterations are not identical futile steps to fold.
func (t *Thread) SpinWait(done func() bool) (spun bool) {
	pause := t.sim.cfg.Costs.Pause
	for !done() {
		spun = true
		if pause > 0 && (t.sigPending == 0 || t.sigDepth > 0) && t.now+pause < t.quantumEnd {
			cost := (t.quantumEnd - t.now + pause - 1) / pause * pause
			t.charge(cost)
			t.waitCycles += cost
			t.safepoint()
			continue
		}
		t.Pause()
	}
	return spun
}

// Yield surrenders the rest of the quantum voluntarily.
func (t *Thread) Yield() {
	t.yieldCore(yYield)
	t.safepoint()
}

// Sleep blocks for the given virtual duration.  It returns true if the
// sleep was interrupted by a signal (EINTR semantics): the handler has
// already run when Sleep returns.
func (t *Thread) Sleep(cycles int64) (interrupted bool) {
	t.sleeping = true
	t.interrupted = false
	t.wakeAt = t.now + cycles
	t.yieldCore(ySleep)
	t.sleeping = false
	intr := t.interrupted
	t.interrupted = false
	t.safepoint()
	return intr
}
