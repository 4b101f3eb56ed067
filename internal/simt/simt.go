// Package simt is the simulated threading substrate for the ThreadScan
// reproduction: a deterministic discrete-event scheduler that runs
// simulated threads (one coroutine each, exactly one active at a time)
// on a configurable number of virtual cores, with quanta, preemption,
// POSIX-style signals, and a cycle-accurate virtual clock.
//
// Why simulate?  ThreadScan's mechanism is inseparable from the
// operating system: it interrupts threads with signals and scans their
// machine stacks and registers.  The Go runtime owns both signals and
// goroutine stacks, so the reproduction models them explicitly:
//
//   - Each Thread carries a register file and a word-array stack.
//     Data-structure code keeps every live heap reference in a register
//     or stack slot (the paper's Assumption 1.3), so a scan of those
//     words is exactly the paper's TS-Scan.
//   - Signals are delivered at safepoints — the boundaries between
//     simulated instructions — which models the OS interrupting a
//     thread between machine instructions.  Threads blocked in
//     interruptible waits are woken to run handlers (EINTR semantics,
//     paper §4.2 "Signaling").
//   - Threads are multiplexed onto Cores virtual cores with a quantum;
//     running more threads than cores reproduces the oversubscription
//     regime of the paper's Figure 4, including delayed signal response.
//
// Determinism: the scheduler serializes all simulated threads (control
// passes by direct coroutine switch, so exactly one runs at any host
// instant), so a run with a fixed Config.Seed is
// reproducible, simulated primitives are atomic between safepoints, and
// the whole simulation needs no host synchronization.  Time is virtual:
// every primitive charges cycles from CostModel, and throughput is
// reported in operations per virtual second.
package simt

import "threadscan/internal/simmem"

// NumRegs is the size of each thread's general-purpose register file.
// Sixteen registers mirror x86-64, the paper's evaluation platform.
const NumRegs = 16

// SigNum identifies a simulated POSIX signal.
type SigNum int

// MaxSignals is the number of distinct simulated signals.
const MaxSignals = 8

// Config describes a simulation instance.
type Config struct {
	// Cores is the number of virtual cores.  Threads beyond this count
	// are oversubscribed and queue for quanta.  Defaults to 4.
	Cores int

	// Nodes is the number of NUMA nodes the cores are grouped into
	// (see topology.go).  Cores split into contiguous near-equal
	// blocks; heap lines are homed first-touch; cross-node line fills
	// charge Costs.RemoteFill.  Defaults to 1 — the flat machine,
	// bit-identical in virtual-cycle charges to the pre-topology
	// model.  Clamped to Cores.
	Nodes int

	// Quantum is the scheduling quantum in cycles.  Defaults to 200,000
	// (200µs at the default 1 GHz virtual clock, the order of Linux
	// CFS's minimum granularity under load).  The quantum is what makes
	// oversubscription expensive for ThreadScan: a descheduled thread
	// answers a scan signal only when it next gets a core, so the
	// reclaimer's wait grows with (threads/cores) x quantum — the
	// mechanism behind the paper's Figure 4.  Tests that want maximal
	// interleaving set it much lower.
	Quantum int64

	// StackWords is each thread's simulated stack capacity.  Defaults
	// to 512 words.
	StackWords int

	// Seed seeds the scheduler's and the threads' random number
	// generators.  Two runs with equal configs and seeds are identical.
	Seed int64

	// Chaos randomizes quantum lengths and dispatch tie-breaking to
	// fuzz interleavings.  Used by stress tests; throughput numbers are
	// not meaningful in chaos mode.
	Chaos bool

	// Hz is the virtual clock rate in cycles per second, used only to
	// convert cycle counts to seconds for reporting.  Defaults to 1e9.
	Hz int64

	// Costs is the cycle cost model.  Zero value selects DefaultCosts.
	Costs CostModel

	// CacheSim enables the per-core cache model (4-way set-associative,
	// 64-byte lines): heap accesses that miss pay Costs.MissPenalty.
	// This is what differentiates the paper's small-footprint linked
	// list (cache-resident, so hazard fences dominate) from the large
	// hash table (miss-dominated, so fences matter less).
	CacheSim bool

	// CacheSets is the number of 64-byte lines in each core's modeled
	// cache (4-way set-associative).  Defaults to 16384 (1 MiB per
	// core, the order of a per-core LLC share on the paper's Xeon).
	CacheSets int

	// MaxCycles, when positive, aborts the run with a *TimeoutError
	// once the virtual clock passes it — a watchdog against livelocked
	// simulations.
	MaxCycles int64

	// Heap configures the simulated heap shared by all threads.
	// Heap.Nodes defaults to Nodes, so setting Heap.Policy to a
	// non-global allocation policy on a multi-node machine splits the
	// arena into per-node pools automatically; thread caches bind to
	// their thread's node, and cross-node pool traffic charges
	// Costs.RemoteFill.
	Heap simmem.Config
}

// CostModel assigns virtual cycle costs to primitives.  Values are
// calibrated to commodity x86 latencies at a 1 GHz virtual clock; the
// absolute scale is arbitrary, the ratios are what shape results.
type CostModel struct {
	Load          int64 // cache-hit load
	Store         int64 // store
	CAS           int64 // compare-and-swap (success or failure)
	Fence         int64 // full memory fence (the hazard-pointer per-read cost)
	RegOp         int64 // register-to-register operation
	Alloc         int64 // allocator fast path
	Free          int64 // allocator free fast path
	Step          int64 // generic instruction (branch, compare)
	Pause         int64 // one spin-wait iteration
	MissPenalty   int64 // added to Load/Store/CAS on a modeled cache miss
	RemoteFill    int64 // added on top when the line's home is a remote NUMA node
	SignalSend    int64 // sender-side cost of one signal (kernel entry)
	SignalDeliver int64 // receiver-side handler entry/exit
	WakeLatency   int64 // wakeup latency for blocked/sleeping threads
	ContextSwitch int64 // dispatch of a different thread on a core
}

// DefaultCosts returns the calibrated default cost model.
func DefaultCosts() CostModel {
	return CostModel{
		Load:          4,
		Store:         8,
		CAS:           40,
		Fence:         40,
		RegOp:         1,
		Alloc:         80,
		Free:          60,
		Step:          1,
		Pause:         30,
		MissPenalty:   150,
		RemoteFill:    150, // a remote fill costs ~2x a local one (QPI-era ratio)
		SignalSend:    800,
		SignalDeliver: 1500,
		WakeLatency:   2000,
		ContextSwitch: 4000,
	}
}

func (c *Config) fill() {
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Nodes > c.Cores {
		c.Nodes = c.Cores
	}
	if c.Quantum <= 0 {
		c.Quantum = 200_000
	}
	if c.StackWords <= 0 {
		c.StackWords = 512
	}
	if c.Hz <= 0 {
		c.Hz = 1_000_000_000
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	if c.CacheSets <= 0 {
		c.CacheSets = 16384
	}
	// The cache model masks with a power-of-two set count.
	for c.CacheSets&(c.CacheSets-1) != 0 {
		c.CacheSets++
	}
	// The heap's node pools mirror the machine topology unless the
	// caller pinned them explicitly.  With Heap.Policy left at
	// PolicyGlobal the heap keeps a single pool regardless, so the flat
	// and global-policy models stay bit-identical.
	if c.Heap.Nodes == 0 {
		c.Heap.Nodes = c.Nodes
	}
}
