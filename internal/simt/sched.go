package simt

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"strings"

	"threadscan/internal/simmem"
)

// Sim is one simulation instance: a heap, a set of threads, and the
// discrete-event scheduler that runs them.
//
// A Sim is used in three phases: configure (New, SetSignalHandler,
// OnThreadStart/OnThreadExit, Spawn), run (Run, which blocks until all
// threads exit or the simulation fails), inspect (Stats, Clock, Heap).
// The zero value is not usable; construct with New.
type Sim struct {
	cfg  Config
	heap *simmem.Heap
	rng  *rand.Rand

	threads []*Thread
	live    int
	started bool
	done    bool

	coreFree []int64 // per-core: virtual time the core becomes free
	coreLast []int   // per-core: last thread id dispatched (-1 none)
	caches   []coreCache

	topo     topology
	lineHome []int8 // per-arena-line home node (-1 unassigned); nil when Nodes == 1
	lineBase int    // arena base address >> lineShift

	handlers   [MaxSignals]func(*Thread, SigNum)
	startHooks []func(*Thread)
	exitHooks  []func(*Thread)

	probe Probe // observability hooks; nil when detached

	clock   int64           // high-water mark of virtual time
	advance func(now int64) // host-side clock-advance hook; nil when detached

	stats SimStats
}

// SimStats aggregates scheduler-level counters.
type SimStats struct {
	Dispatches       uint64
	ContextSwitches  uint64
	SignalsSent      uint64
	SignalsDelivered uint64
	Wakeups          uint64

	// NUMA memory traffic (zero when Nodes == 1).  A "fill" is a
	// memory access that reached the line's home node: a modeled cache
	// miss when CacheSim is on, every access otherwise.
	LocalLineFills  uint64 `json:"local_line_fills,omitempty"`
	RemoteLineFills uint64 `json:"remote_line_fills,omitempty"`

	// AllocRemoteFills counts allocations that were handed a block
	// *resident* on a different node than the allocating thread and
	// were charged Costs.RemoteFill for the cross-socket pull.  Only
	// the per-node-pool policies charge (and count) here; under the
	// global policy the same hand-outs are visible observationally in
	// the heap's RemoteAllocs counter, but the cost model stays
	// bit-identical to its capture.
	AllocRemoteFills uint64 `json:"alloc_remote_fills,omitempty"`
}

// New creates a simulation from cfg.
func New(cfg Config) *Sim {
	cfg.fill()
	s := &Sim{
		cfg:      cfg,
		heap:     simmem.New(cfg.Heap),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		coreFree: make([]int64, cfg.Cores),
		coreLast: make([]int, cfg.Cores),
	}
	for i := range s.coreLast {
		s.coreLast[i] = -1
	}
	s.topo = newTopology(cfg.Nodes, cfg.Cores)
	if s.topo.nodes > 1 {
		base := s.heap.Base() >> lineShift
		lines := int((s.heap.Limit()-1)>>lineShift-base) + 1
		s.lineBase = int(base)
		s.lineHome = make([]int8, lines)
		for i := range s.lineHome {
			s.lineHome[i] = -1
		}
	}
	if cfg.CacheSim {
		s.caches = make([]coreCache, cfg.Cores)
		for i := range s.caches {
			s.caches[i] = newCoreCache(cfg.CacheSets)
		}
	}
	return s
}

// Heap returns the simulated heap shared by all threads.
func (s *Sim) Heap() *simmem.Heap { return s.heap }

// Config returns the (filled-in) configuration.
func (s *Sim) Config() Config { return s.cfg }

// Clock returns the virtual high-water mark in cycles.
func (s *Sim) Clock() int64 { return s.clock }

// Seconds converts cycles to virtual seconds at the configured rate.
func (s *Sim) Seconds(cycles int64) float64 { return float64(cycles) / float64(s.cfg.Hz) }

// Stats returns scheduler counters.
func (s *Sim) Stats() SimStats { return s.stats }

// OnClockAdvance installs a host-side hook invoked from the dispatch
// loop whenever the virtual high-water clock advances, with the new
// clock value.  The hook runs between thread quanta in the scheduler —
// never concurrently with a simulated thread — and must only *read*
// simulation state: it cannot charge cycles, so installing one (the
// metrics engine's ticker) cannot perturb the schedule.
// Unset, the cost is one nil comparison per dispatch.
func (s *Sim) OnClockAdvance(fn func(now int64)) { s.advance = fn }

// Threads returns all spawned threads, in spawn order.
func (s *Sim) Threads() []*Thread { return s.threads }

// SetSignalHandler installs the handler for sig.  Handlers run in the
// context of the receiving thread, at a safepoint, exactly like a POSIX
// handler runs between two instructions of the interrupted thread.
// Must be called before Run.
func (s *Sim) SetSignalHandler(sig SigNum, h func(*Thread)) {
	if sig < 0 || sig >= MaxSignals {
		panic("simt: signal number out of range")
	}
	s.handlers[sig] = func(t *Thread, _ SigNum) { h(t) }
}

// OnThreadStart registers a hook run in each thread's own context
// before its body (the analog of the paper's pthread_create hook, §4.2
// "Stack Boundaries").  Must be called before Run.
func (s *Sim) OnThreadStart(h func(*Thread)) { s.startHooks = append(s.startHooks, h) }

// OnThreadExit registers a hook run in each thread's own context after
// its body returns.
func (s *Sim) OnThreadExit(h func(*Thread)) { s.exitHooks = append(s.exitHooks, h) }

// Spawn adds a thread executing body.  Threads start runnable at
// virtual time zero when Run is called.  Must be called before Run;
// running threads create further threads with SpawnFrom.
func (s *Sim) Spawn(name string, body func(*Thread)) *Thread {
	if s.started {
		panic("simt: Spawn after Run (use SpawnFrom from a running thread)")
	}
	t := s.newThread(name, body)
	s.threads = append(s.threads, t)
	return t
}

// SpawnFrom adds a thread mid-run, from the context of the running
// thread parent — the analog of pthread_create during execution, which
// is what thread-churn workloads need.  The new thread becomes runnable
// at the parent's current virtual time (plus the context-switch cost the
// parent is charged for the creation) and runs every OnThreadStart hook
// in its own context at first dispatch, so reclamation schemes see a
// genuine mid-run registration.  Before Run it behaves exactly like
// Spawn.  Must not be called after Run has returned.
func (s *Sim) SpawnFrom(parent *Thread, name string, body func(*Thread)) *Thread {
	if !s.started {
		t := s.Spawn(name, body)
		if parent != nil {
			t.pinned = parent.pinned
		}
		return t
	}
	if s.done {
		panic("simt: SpawnFrom after the simulation finished")
	}
	if parent == nil || parent.exited {
		panic("simt: SpawnFrom requires a live parent thread")
	}
	parent.charge(s.cfg.Costs.ContextSwitch) // thread-creation cost
	t := s.newThread(name, body)
	t.pinned = parent.pinned // inherit the CPU mask, like fork
	t.readyAt = parent.now
	s.threads = append(s.threads, t)
	s.live++
	t.start()
	return t
}

// newThread builds a thread record (shared by Spawn and SpawnFrom).
// The RNG seed depends only on Config.Seed and the spawn index, so runs
// with identical configs and schedules stay reproducible.
func (s *Sim) newThread(name string, body func(*Thread)) *Thread {
	return &Thread{
		sim:      s,
		id:       len(s.threads),
		name:     name,
		body:     body,
		stack:    make([]uint64, s.cfg.StackWords),
		runnable: true,
		pinned:   -1,
		rng:      rand.New(rand.NewSource(s.cfg.Seed ^ int64(uint64(len(s.threads)+1)*0x9E3779B97F4A7C15>>1))),
	}
}

// start creates the thread's coroutine, parked before its first
// instruction.  The scheduler and the threads hand the one host core
// among themselves by direct coroutine switch (iter.Pull): a dispatch
// is next, a yield is the body's yield, and neither passes through the
// Go scheduler.
func (t *Thread) start() {
	t.next, t.stop = iter.Pull(t.main)
}

// quantum is one scheduling grant: run from start until a safepoint at
// or after end.
type quantum struct {
	start, end int64
}

// yield reasons.
type yieldReason int

const (
	yQuantum yieldReason = iota // quantum expired (still runnable)
	yYield                      // voluntary yield (still runnable)
	ySleep                      // sleeping until readyAt
	yBlock                      // blocked on a wait queue
	yExit                       // body returned
	yPanic                      // body panicked (violation or bug)
)

// DeadlockError reports that live threads remain but none can run.
type DeadlockError struct {
	States []string
}

func (e *DeadlockError) Error() string {
	return "simt: deadlock — all live threads blocked:\n  " + strings.Join(e.States, "\n  ")
}

// TimeoutError reports that the virtual clock exceeded Config.MaxCycles.
type TimeoutError struct {
	Clock, Limit int64
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("simt: virtual clock %d exceeded MaxCycles %d (livelock?)", e.Clock, e.Limit)
}

// ThreadPanic wraps a panic raised inside a simulated thread, most
// commonly a *simmem.Violation from the checked heap.
type ThreadPanic struct {
	ThreadID int
	Name     string
	Value    any
	Stack    string
}

func (e *ThreadPanic) Error() string {
	return fmt.Sprintf("simt: thread %d (%s) panicked: %v", e.ThreadID, e.Name, e.Value)
}

// Unwrap exposes the panic value when it is an error (e.g. a heap
// violation), so callers can errors.As straight to *simmem.Violation.
func (e *ThreadPanic) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Run executes the simulation until every thread exits.  It returns a
// *DeadlockError if all live threads block, or a *ThreadPanic if a
// thread panics (heap violations surface this way).
func (s *Sim) Run() error {
	if s.started {
		return errors.New("simt: Run called twice")
	}
	s.started = true
	s.live = len(s.threads)
	for _, t := range s.threads {
		t.start()
	}
	defer s.release()

	for s.live > 0 {
		t := s.pickThread()
		if t == nil {
			s.done = true
			return s.deadlock()
		}
		core := s.pickCore(t)
		start := t.readyAt
		if s.coreFree[core] > start {
			start = s.coreFree[core]
		}
		if s.coreLast[core] != t.id {
			start += s.cfg.Costs.ContextSwitch
			s.stats.ContextSwitches++
			// The core's modeled cache deliberately survives the
			// switch: benchmark threads share one data structure, so
			// cross-thread reuse is real (and the paper's Figure 4
			// oversubscription overhead comes from scheduling latency,
			// not cache thrash).
		}
		s.coreLast[core] = t.id
		t.core = core
		s.stats.Dispatches++

		t.q = quantum{start, start + s.quantumLen()}
		t.next()

		s.coreFree[core] = t.now
		if t.now > s.clock {
			s.clock = t.now
			if s.advance != nil {
				s.advance(s.clock)
			}
		}
		if s.cfg.MaxCycles > 0 && s.clock > s.cfg.MaxCycles {
			s.done = true
			return &TimeoutError{Clock: s.clock, Limit: s.cfg.MaxCycles}
		}
		switch t.reason {
		case yQuantum, yYield:
			t.readyAt = t.now
		case ySleep:
			t.readyAt = t.wakeAt
		case yBlock:
			t.runnable = false
		case yExit:
			t.runnable = false
			t.exited = true
			s.live--
		case yPanic:
			s.done = true
			s.live--
			return &ThreadPanic{ThreadID: t.id, Name: t.name, Value: t.panicVal, Stack: t.panicStack}
		}
	}
	s.done = true
	return nil
}

// pickThread selects the runnable thread with the earliest readyAt
// (FIFO tie-break by id for fairness; randomized under Chaos).
func (s *Sim) pickThread() *Thread {
	var best *Thread
	for _, t := range s.threads {
		if !t.runnable {
			continue
		}
		if best == nil || t.readyAt < best.readyAt {
			best = t
		}
	}
	if best == nil || !s.cfg.Chaos {
		return best
	}
	// Chaos: choose uniformly among threads ready within one quantum of
	// the earliest, scrambling the dispatch order.
	limit := best.readyAt + s.cfg.Quantum
	var pool []*Thread
	for _, t := range s.threads {
		if t.runnable && t.readyAt <= limit {
			pool = append(pool, t)
		}
	}
	return pool[s.rng.Intn(len(pool))]
}

// pickCore returns the index of the earliest-free core the thread may
// run on: any core when unpinned, the pinned node's block otherwise.
func (s *Sim) pickCore(t *Thread) int {
	lo, hi := 0, len(s.coreFree)
	if t.pinned >= 0 {
		lo, hi = s.topo.coreRange(t.pinned)
	}
	best := lo
	for i := lo + 1; i < hi; i++ {
		if s.coreFree[i] < s.coreFree[best] {
			best = i
		}
	}
	return best
}

func (s *Sim) quantumLen() int64 {
	if s.cfg.Chaos {
		return 1 + s.rng.Int63n(s.cfg.Quantum)
	}
	return s.cfg.Quantum
}

// deadlock builds the diagnostic error.
func (s *Sim) deadlock() *DeadlockError {
	e := &DeadlockError{}
	for _, t := range s.threads {
		if t.exited {
			continue
		}
		where := "blocked"
		if t.waitQ != nil {
			where = "blocked on " + t.waitQ.name
		}
		e.States = append(e.States, fmt.Sprintf("thread %d (%s): %s at t=%d", t.id, t.name, where, t.now))
	}
	sort.Strings(e.States)
	return e
}

// release stops every thread coroutine so none leaks when Run returns
// early (deadlock, timeout or panic).  A parked body unwinds through its
// deferred calls before stop returns; a never-dispatched one never
// starts; stopping a finished one is a no-op.
func (s *Sim) release() {
	for _, t := range s.threads {
		if t.stop != nil {
			t.stop()
		}
	}
}
