// Package workload is the declarative scenario layer of the evaluation:
// composable descriptions of *how* a data structure is exercised,
// replacing the harness's single hard-coded op loop (uniform keys,
// fixed 20% updates) with the workload diversity the paper's claims are
// actually about.
//
// A Scenario names a structure and scheme, a thread/core geometry, and
// a sequence of Phases; each phase fixes an operation Mix and a key
// Dist for a virtual-time window, so op mixes can shift mid-run
// (read-heavy → delete-storm → read-heavy).  An optional Churn spec
// adds workers that spawn and exit mid-run — exercising the
// registration hooks and signal-delivery protocol far harder than the
// paper's static thread set.  Scenarios are pure descriptions; the
// engine that executes them lives in internal/harness (RunScenario),
// which also samples the Hyaline-style memory-robustness metric
// (retired-but-unreclaimed words over time) every scenario reports
// next to throughput.
//
// The motivation is the related work's critique: Hyaline and
// Crystalline argue reclamation schemes must be judged on unreclaimed-
// garbage bounds under adversarial workloads, not just throughput under
// a friendly one.  The built-in suite (Builtins) encodes exactly those
// adversaries: skew, delete storms, retirement bursts, thread churn,
// and oversubscription.
package workload

import (
	"fmt"

	"threadscan/internal/simmem"
)

// Mix is an operation mix: percentages of inserts (pushes) and removes
// (pops); the remainder are lookups (peeks).
type Mix struct {
	InsertPct int
	RemovePct int
}

// Pick maps a uniform draw r in [0,100) to an operation.
func (m Mix) Pick(r int) Op {
	switch {
	case r < m.InsertPct:
		return OpInsert
	case r < m.InsertPct+m.RemovePct:
		return OpRemove
	default:
		return OpLookup
	}
}

func (m Mix) validate() error {
	if m.InsertPct < 0 || m.RemovePct < 0 || m.InsertPct+m.RemovePct > 100 {
		return fmt.Errorf("workload: bad mix %+v", m)
	}
	return nil
}

// Phase is one window of a scenario: a duration in virtual cycles
// during which every worker draws keys from Dist and operations from
// Mix.  Workers cross phase boundaries at the same absolute virtual
// times (relative to the measured start), so a "delete storm" really is
// a storm — all threads storm together.
type Phase struct {
	Name     string
	Duration int64 // virtual cycles
	Mix      Mix
	Dist     Dist
}

// Churn describes mid-run thread turnover: Generations waves of Workers
// fresh threads each, spawned while the run is in flight and exiting
// before it ends.  Generation g (0-based) starts at (g+1)*Stagger into
// the measured window and lives for Life cycles; the zero values derive
// both from the total duration so the last generation exits before the
// persistent workers stop.
type Churn struct {
	Workers     int   // threads per generation (default 2)
	Generations int   // waves (default 2)
	Stagger     int64 // cycles between generation starts (0 = derived)
	Life        int64 // per-worker lifetime in cycles (0 = derived)
}

func (c *Churn) fill(total int64) {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Generations <= 0 {
		c.Generations = 2
	}
	if c.Stagger <= 0 {
		c.Stagger = total / int64(c.Generations+2)
	}
	if c.Life <= 0 {
		c.Life = c.Stagger
	}
}

// Start returns the spawn offset of generation g from the measured
// start.
func (c *Churn) Start(g int) int64 { return int64(g+1) * c.Stagger }

// TotalWorkers returns the number of churn threads the scenario spawns.
func (c *Churn) TotalWorkers() int { return c.Workers * c.Generations }

// Scenario is one complete declarative workload description.
type Scenario struct {
	Name string
	Desc string

	DS     string // list | hash | skiplist | stack | queue
	Scheme string // any registered scheme (harness.SchemeNames)

	Threads int // persistent workers
	Cores   int // virtual cores (Threads > Cores = oversubscription)

	KeyRange uint64
	Prefill  int // initial population (elements for stack/queue)

	Phases []Phase
	Churn  *Churn // nil = static thread set

	Seed int64

	// Structure / scheme parameters (0 = harness defaults).
	NodeBytes  int
	Buckets    int
	BufferSize int
	Batch      int

	// SlowDelay is slow-epoch's errant cleanup stall in cycles (0 =
	// the paper's 40 ms).
	SlowDelay int64

	// Sharded-collect pipeline knobs (threadscan; 0/false = classic
	// serial collect).  Shards is K, the address-shard count; Watermark
	// triggers a collect when the global buffered count crosses it;
	// HelpFree defers sweeping to the next phase's scanners.
	Shards    int
	Watermark int
	HelpFree  bool

	// Topology knobs.  Nodes groups the cores into NUMA nodes (0/1 =
	// the flat machine); PinPolicy maps persistent workers onto them:
	//
	//	""/"none"  no pinning — threads run on any core
	//	"rr"       worker i pinned to node i % Nodes (interleaved)
	//	"split"    workers pinned in contiguous blocks — worker i to
	//	           node i*Nodes/Threads, so the first 1/Nodes of the
	//	           workers land on node 0, and (with WorkerMix) whole
	//	           role groups land on whole nodes
	//
	// Churn workers inherit the churn controller's (unpinned) mask
	// unless the engine pins them; with "rr" and "split" the engine
	// pins churn worker j to node j % Nodes so turnover populates
	// every node.
	Nodes     int
	PinPolicy string

	// WorkerMix optionally overrides the phase op mix per worker role
	// group: the persistent workers divide into len(WorkerMix) equal
	// contiguous groups, and group g draws operations from
	// WorkerMix[g] instead of the phase's Mix (key distributions and
	// phase boundaries still apply).  This is how producer/consumer
	// scenarios are declared: WorkerMix[0] insert-heavy, WorkerMix[1]
	// remove-heavy; combined with PinPolicy "split" the producers
	// occupy node 0 and retire into consumers on node 1, while "rr"
	// spreads both roles over all nodes as a balanced control.  Churn
	// workers always use the phase mix.
	WorkerMix []Mix

	// ClaimPolicy selects the threadscan shard-claim order on a
	// multi-node topology: "" / "affinity" (local shards first, steal
	// remote) or "rr" (index order, topology-blind).
	ClaimPolicy string

	// PerNode enables threadscan's per-node retirement routing and
	// node-local reclaimers: retired addresses are routed to per-node
	// shard groups at Free time and each node collects over its own
	// group, synchronizing cross-node only at the scan barrier.  Inert
	// on a flat machine (Nodes <= 1) and for other schemes.
	PerNode bool

	// StealThreshold is the per-node backlog (addresses) past which
	// other nodes steal reclamation work under PerNode — the
	// rebalancing knob for one-node-retires-everything skew.  0 =
	// core's default (4x the per-node collect trigger).
	StealThreshold int

	// SerializeCollects forces PerNode collects back onto one
	// machine-wide reclamation lock (the pre-overlap pipeline) instead
	// of the default truly concurrent per-node collects — the A9
	// ablation's control.  Inert without PerNode.
	SerializeCollects bool

	// AllocPolicy selects the simulated allocator's NUMA placement
	// policy — the numactl contrast:
	//
	//	""/"global"   one machine-wide pool (the pre-allocpool heap)
	//	"localalloc"  per-node pools; allocate from the requester's
	//	              node, fall back only when its region is exhausted
	//	"membind"     per-node pools; strictly bind to the requester's
	//	              node (OOM when its region runs out)
	//	"interleave"  per-node pools; rotate allocations round-robin
	//
	// Non-global policies split the arena into per-node pools, bind
	// thread caches to their thread's node, and route frees to each
	// block's home pool.  Inert on a flat machine (Nodes <= 1), where
	// the heap keeps a single pool regardless.
	AllocPolicy string

	// Errant-thread injection (ablation A4 and the adversarial
	// builtins): when StallCycles > 0, the first StallVictims
	// persistent workers execute one empty operation stalled for
	// StallCycles cycles every StallEvery completed operations.  The
	// stall sits *inside* a BeginOp/EndOp bracket, the shape on which
	// the robustness literature (Hyaline, Crystalline, Stamp-it)
	// judges reclamation schemes: a reader parked mid-critical-
	// section.  The injected op draws no randomness and records no
	// trace entry, so op-stream digests stay scheme- and
	// stall-independent.
	//
	// StallKind selects the stall primitive:
	//
	//	""/"work"  an application stall — the victim spins through
	//	           preemptible work, still reaching safepoints, so
	//	           scan signals are delivered mid-stall (the classic
	//	           A4 shape, the paper's liveness claim)
	//	"preempt"  a descheduled thread — the victim is deaf to
	//	           signals for the whole stall, the adversarial shape
	//	           the robust-reclamation builtins use
	StallEvery   int
	StallCycles  int64
	StallVictims int
	StallKind    string

	// OpsPerWorker, when positive, switches the engine from the
	// virtual-time deadline to a fixed operation budget: every worker
	// executes exactly this many operations, with phase boundaries
	// placed proportionally along the op index instead of the clock.
	// This makes the executed op stream — and, for a single-threaded
	// run, the op-trace digest — a function of the seed alone,
	// independent of scheme cost models: the property the cross-scheme
	// differential harness asserts on.
	OpsPerWorker int

	// Simulator knobs (0 = defaults).
	Quantum     int64
	HeapWords   int
	SampleEvery int64 // metrics-engine sampling interval (0 = duration/64)

	// CacheSim turns on the simulator's per-core cache model, the
	// machine the paper's figures and ablations A1 and A2 run on.
	CacheSim bool

	// Chaos enables the scheduler's seeded adversarial mode: eligible
	// threads are picked uniformly at random (still deterministically,
	// from the seed) instead of FIFO, and quanta jitter.  For stress
	// tests hunting interleaving-dependent protocol bugs; results stay
	// reproducible per seed but differ from the FIFO schedule.
	Chaos bool
}

// TotalDuration is the measured window: the sum of phase durations.
func (s *Scenario) TotalDuration() int64 {
	var d int64
	for _, p := range s.Phases {
		d += p.Duration
	}
	return d
}

// PhaseWindow is one phase's absolute virtual-time window relative to
// the measured start: [Start, End).
type PhaseWindow struct {
	Name  string
	Start int64
	End   int64
}

// PhaseWindows lays the phases out on the virtual clock (offsets from
// the measured start).  Trace exporters use it to draw phase bands
// under the per-thread span rows.  Valid after Fill.
func (s *Scenario) PhaseWindows() []PhaseWindow {
	ws := make([]PhaseWindow, len(s.Phases))
	var at int64
	for i, p := range s.Phases {
		ws[i] = PhaseWindow{Name: p.Name, Start: at, End: at + p.Duration}
		at += p.Duration
	}
	return ws
}

// Fill applies defaults in place and validates the scenario.
func (s *Scenario) Fill() error {
	if s.Name == "" {
		s.Name = "unnamed"
	}
	if s.DS == "" {
		s.DS = "list"
	}
	if s.Scheme == "" {
		s.Scheme = "threadscan"
	}
	if s.Threads <= 0 {
		s.Threads = 4
	}
	if s.Cores <= 0 {
		s.Cores = s.Threads
	}
	if s.KeyRange == 0 {
		s.KeyRange = 1024
	}
	if s.Prefill == 0 {
		s.Prefill = int(s.KeyRange / 2)
	}
	if len(s.Phases) == 0 {
		s.Phases = []Phase{{Name: "steady", Mix: Mix{InsertPct: 10, RemovePct: 10}}}
	}
	// Copies of a Scenario share its Phases array and Churn record, and
	// concurrent runs of one spec each call Fill: default a private copy
	// so those runs never write the same memory.
	s.Phases = append([]Phase(nil), s.Phases...)
	if s.Churn != nil {
		c := *s.Churn
		s.Churn = &c
	}
	for i := range s.Phases {
		p := &s.Phases[i]
		if p.Duration <= 0 {
			p.Duration = 4_000_000 // 4 virtual ms
		}
		if p.Name == "" {
			p.Name = fmt.Sprintf("phase%d", i)
		}
		if err := p.Mix.validate(); err != nil {
			return fmt.Errorf("%s/%s: %w", s.Name, p.Name, err)
		}
		p.Dist.fill()
	}
	if s.Churn != nil {
		s.Churn.fill(s.TotalDuration())
		if s.Churn.Start(s.Churn.Generations-1)+s.Churn.Life > s.TotalDuration() {
			return fmt.Errorf("workload: %s: churn generation %d outlives the run",
				s.Name, s.Churn.Generations-1)
		}
	}
	if s.Nodes <= 0 {
		s.Nodes = 1
	}
	if s.Nodes > s.Cores {
		s.Nodes = s.Cores // the simulator clamps the same way
	}
	switch s.PinPolicy {
	case "", "none", "rr", "split":
	default:
		return fmt.Errorf("workload: %s: unknown pin policy %q", s.Name, s.PinPolicy)
	}
	switch s.ClaimPolicy {
	case "", "affinity", "rr":
	default:
		return fmt.Errorf("workload: %s: unknown claim policy %q", s.Name, s.ClaimPolicy)
	}
	if _, err := simmem.ParsePolicy(s.AllocPolicy); err != nil {
		return fmt.Errorf("workload: %s: %w", s.Name, err)
	}
	if len(s.WorkerMix) > 0 {
		if len(s.WorkerMix) > s.Threads {
			return fmt.Errorf("workload: %s: %d worker-mix groups for %d workers",
				s.Name, len(s.WorkerMix), s.Threads)
		}
		for g, m := range s.WorkerMix {
			if err := m.validate(); err != nil {
				return fmt.Errorf("%s/worker-mix[%d]: %w", s.Name, g, err)
			}
		}
	}
	switch s.StallKind {
	case "", "work", "preempt":
	default:
		return fmt.Errorf("workload: %s: unknown stall kind %q", s.Name, s.StallKind)
	}
	if s.StallCycles > 0 {
		if s.StallEvery <= 0 {
			s.StallEvery = 200
		}
		if s.StallVictims <= 0 {
			s.StallVictims = 1
		}
		if s.StallVictims > s.Threads {
			s.StallVictims = s.Threads
		}
		if s.StallKind == "" {
			s.StallKind = "work"
		}
	}
	if s.SampleEvery <= 0 {
		s.SampleEvery = s.TotalDuration() / 64
		if s.SampleEvery < 1 {
			s.SampleEvery = 1
		}
	}
	return nil
}

// WorkerNode returns the node worker i is pinned to under the pin
// policy, or -1 for no pin.  Valid after Fill.
func (s *Scenario) WorkerNode(i int) int {
	switch s.PinPolicy {
	case "rr":
		return i % s.Nodes
	case "split":
		return i * s.Nodes / s.Threads
	default:
		return -1
	}
}

// WorkerGroupMix returns the op-mix override for worker i, or nil when
// the phase mix applies.  Valid after Fill.
func (s *Scenario) WorkerGroupMix(i int) *Mix {
	if len(s.WorkerMix) == 0 || i >= s.Threads {
		return nil
	}
	return &s.WorkerMix[i*len(s.WorkerMix)/s.Threads]
}

// Scale multiplies every duration-like knob by f (phase durations,
// churn stagger/life, sampling interval, stall lengths), returning the
// scaled copy.
// Use it to stretch the quick-scale builtins toward paper-length runs.
func (s Scenario) Scale(f float64) Scenario {
	phases := make([]Phase, len(s.Phases))
	copy(phases, s.Phases)
	for i := range phases {
		phases[i].Duration = int64(float64(phases[i].Duration) * f)
	}
	s.Phases = phases
	if s.Churn != nil {
		c := *s.Churn
		c.Stagger = int64(float64(c.Stagger) * f)
		c.Life = int64(float64(c.Life) * f)
		s.Churn = &c
	}
	if s.SampleEvery > 0 {
		s.SampleEvery = int64(float64(s.SampleEvery) * f)
	}
	if s.StallCycles > 0 {
		s.StallCycles = int64(float64(s.StallCycles) * f)
	}
	if s.SlowDelay > 0 {
		s.SlowDelay = int64(float64(s.SlowDelay) * f)
	}
	return s
}
