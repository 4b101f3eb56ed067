// Scenario engine: the harness's one run engine.  It executes the
// declarative workloads of internal/workload against the simulated
// substrate on the checked heap — phased op mixes, skewed key
// distributions, mid-run thread churn (via simt.SpawnFrom), and
// footprint telemetry.  The paper's figures are sweeps of one scenario
// shape (PaperScenario) and every ablation is a sweep of scenario
// variants (Ablations), so all of them run here.

package harness

import (
	"fmt"
	"time"

	"threadscan/internal/core"
	"threadscan/internal/ds"
	"threadscan/internal/obs"
	"threadscan/internal/reclaim"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
	"threadscan/internal/workload"
)

// ScenarioResult is one scenario outcome.
type ScenarioResult struct {
	Scenario workload.Scenario `json:"-"`

	Name   string `json:"scenario"`
	DS     string `json:"ds"`
	Scheme string `json:"scheme"`

	Threads int `json:"threads"` // persistent workers
	Cores   int `json:"cores"`

	// Topology of the run (1/"" = flat machine, no pinning).
	Nodes     int    `json:"nodes,omitempty"`
	PinPolicy string `json:"pin_policy,omitempty"`

	// PerNode reports whether threadscan's per-node retirement routing
	// was requested; the per-node counter breakdowns live in
	// SchemeStats (NodeCollects, NodeReclaimed, SweepRemoteFills...).
	PerNode bool `json:"per_node,omitempty"`

	// AllocPolicy is the allocator's NUMA placement policy the run used
	// (empty = global, the single-pool heap).  The allocation counters
	// live in Heap (RemoteAllocs, HomeFrees, RemoteFrees) and Sim
	// (AllocRemoteFills).
	AllocPolicy string `json:"alloc_policy,omitempty"`

	Ops           uint64 `json:"ops"`
	ElapsedCycles int64  `json:"elapsed_cycles"`
	MeasuredStart int64  `json:"measured_start_cycles"` // virtual time the measured window opened

	VirtualSeconds float64 `json:"virtual_seconds"`
	Throughput     float64 `json:"throughput_ops_per_vsec"`

	// TraceHash digests the full op stream (per worker, in spawn
	// order): equal seeds must yield equal hashes.
	TraceHash uint64 `json:"trace_hash"`

	// KeyedDigest is the commutativity-aware digest of per-key op
	// histories in canonical (worker, index) order, success bits
	// excluded (see workload.MergeKeyed).  Collected only on op-budget
	// runs (OpsPerWorker > 0), where it is schedule-independent: every
	// scheme must reproduce it even on concurrent runs, which is what
	// extends the cross-scheme differential beyond serialized ones.
	KeyedDigest uint64 `json:"keyed_digest,omitempty"`

	// KeyedError reports a per-key set-semantics violation (net
	// successful inserts inconsistent with presence being a bit) on an
	// op-budget run over a set structure.  Empty for a sound scheme.
	KeyedError string `json:"keyed_error,omitempty"`

	FinalSize int `json:"final_size"`

	ChurnWorkers int `json:"churn_workers"` // mid-run spawned-and-exited threads

	// LeakedRegistrations counts threads still registered with the
	// ThreadScan domain after every thread exited (must be 0; -1 for
	// other schemes).
	LeakedRegistrations int `json:"leaked_registrations"`

	// AccountingError is set when the footprint sampler caught the
	// scheme reporting more nodes freed than retired (the skew is also
	// in Footprint.AccountingSkew).  Empty for a sound scheme.
	AccountingError string `json:"accounting_error,omitempty"`

	Footprint Footprint `json:"footprint"`

	// Metrics carries every named timeline the metrics engine sampled:
	// one Series of (vcycle, value) points per registered source, in
	// registration order, with steady-window digests precomputed.  The
	// footprint series (footprint_garbage_nodes, footprint_live_words)
	// are always present; the polled sources only when
	// Scenario.MetricsEvery enabled them.  Sampling reads host-side
	// state on clock ticks and never charges virtual cycles, so every
	// other field is identical either way.
	Metrics []obs.Series `json:"metrics,omitempty"`

	// Latency is the observability summary for the run: per-op latency
	// quantiles, max pause, and per-stage breakdowns.  Always present —
	// RunScenario attaches a histogram-only recorder by default, which
	// never charges virtual cycles, so every other field is identical
	// with or without it.
	Latency *obs.Summary `json:"latency"`

	SchemeStats reclaim.Stats `json:"scheme_stats"`
	Core        *core.Stats   `json:"threadscan_stats,omitempty"`
	Sim         simt.SimStats `json:"sim_stats"`
	Heap        simmem.Stats  `json:"heap_stats"`

	WallTime time.Duration `json:"-"`
}

// scenarioNodeWords reports the allocator words one structure node
// occupies (for garbage accounting and arena sizing), from the spec
// alone.
func scenarioNodeWords(spec *workload.Scenario) (int, error) {
	nb := spec.NodeBytes
	switch spec.DS {
	case "list", "hash":
		if nb <= 0 {
			nb = ds.DefaultNodeBytes
		}
	case "skiplist":
		nb = 15 * 8 // fixed-size nodes, as in the paper
	case "stack":
		if nb <= 0 {
			nb = ds.DefaultStackNodeBytes
		}
	case "queue":
		if nb <= 0 {
			nb = ds.DefaultQueueNodeBytes
		}
	default:
		return 0, fmt.Errorf("harness: unknown data structure %q", spec.DS)
	}
	return simmem.ClassSizeBytes(nb) / 8, nil
}

// buildTarget constructs the scenario's structure.
func buildTarget(sim *simt.Sim, sc reclaim.Scheme, spec *workload.Scenario) (workload.Target, error) {
	var structure any
	switch spec.DS {
	case "list":
		structure = ds.NewList(sim, sc, spec.NodeBytes)
	case "hash":
		buckets := spec.Buckets
		if buckets == 0 {
			buckets = int(spec.KeyRange / 32)
			if buckets < 1 {
				buckets = 1
			}
		}
		structure = ds.NewHashTable(sim, sc, buckets, spec.NodeBytes)
	case "skiplist":
		structure = ds.NewSkipList(sim, sc)
	case "stack":
		structure = ds.NewStack(sim, sc, spec.NodeBytes)
	case "queue":
		structure = ds.NewQueue(sim, sc, spec.NodeBytes)
	default:
		return nil, fmt.Errorf("harness: unknown data structure %q", spec.DS)
	}
	return workload.TargetFor(structure)
}

// scenarioHeapWords sizes the arena for the worst case the scenario can
// produce: the live set, every scheme's buffered retirees, and — since
// Leaky never frees — every allocation the run could possibly make.
// Inserts are bounded per core and phase by the mix: with i% inserts at
// a floor of insCost cycles and the rest at otherCost (a pop or peek on
// an empty container is only a handful of loads), at most
// duration*i / (i*insCost + (100-i)*otherCost) inserts fit in a phase.
func scenarioHeapWords(spec *workload.Scenario, nodeWords int) int {
	if spec.HeapWords > 0 {
		return spec.HeapWords
	}
	// A per-node allocation policy splits the arena Nodes ways; scale
	// it so each node keeps the headroom a global pool would have
	// machine-wide (membind has no fallback to borrow it back).
	nodeScale := 1
	if pol, err := simmem.ParsePolicy(spec.AllocPolicy); err == nil &&
		pol != simmem.PolicyGlobal && spec.Nodes > 1 {
		nodeScale = spec.Nodes
	}
	insCost, otherCost := int64(100), int64(10) // stack/queue floors
	switch spec.DS {
	case "list", "hash", "skiplist":
		insCost, otherCost = 250, 60 // every op traverses
	}
	var allocNodes64 int64
	for _, p := range spec.Phases {
		// A worker-group mix override can be more insert-heavy than
		// the phase mix; size for the hungriest group.
		i := int64(p.Mix.InsertPct)
		for _, m := range spec.WorkerMix {
			if int64(m.InsertPct) > i {
				i = int64(m.InsertPct)
			}
		}
		if i == 0 {
			continue
		}
		allocNodes64 += p.Duration * i / (i*insCost + (100-i)*otherCost)
	}
	allocNodes := int(allocNodes64) * spec.Cores
	workers := spec.Threads + 2
	if spec.Churn != nil {
		workers += spec.Churn.TotalWorkers()
	}
	buf, batch := spec.BufferSize, spec.Batch
	if buf == 0 {
		buf = core.DefaultBufferSize
	}
	if batch == 0 {
		batch = defaultBatch
	}
	liveMax := int(spec.KeyRange) + spec.Prefill + allocNodes + workers*(buf+batch) + 4096
	words := liveMax * nodeWords * 3 / 2 * nodeScale
	p := 1 << 16
	for p < words {
		p <<= 1
	}
	return p
}

// scenarioRun carries the mutable run state.  Every field is touched
// only from simulated-thread contexts, which the discrete-event
// scheduler serializes — no host synchronization needed, and the run
// stays deterministic.
type scenarioRun struct {
	spec   *workload.Scenario
	sim    *simt.Sim
	scheme reclaim.Scheme
	target workload.Target
	rec    *obs.Recorder // nil-safe on every call

	phaseEnd []int64 // cumulative phase end offsets

	mutators     int  // workers that may still hold references
	spawningDone bool // controller finished launching churn generations
	churned      int  // churn workers that ran and exited

	startAt  map[int]int64 // thread id -> measured-phase start
	finishAt map[int]int64
	traces   map[int]uint64                // thread id -> op-trace digest
	keyed    map[int]*workload.KeyedTrace  // thread id -> per-key history (op-budget runs)
	ledgers  map[int]*workload.ValueLedger // thread id -> per-element push/pop counts (op-budget LIFO/FIFO runs)
	mixOf    map[int]*workload.Mix         // thread id -> role-group mix override (nil = phase mix)
	stalls   map[int]bool                  // thread id -> errant stall victim
}

// work drives ops from base until deadline, crossing phase boundaries
// at absolute virtual times so all workers change phase together.
// With Scenario.OpsPerWorker set, the deadline is replaced by a fixed
// operation budget and phase boundaries land proportionally along the
// op index — the executed stream then depends only on the seed, not on
// the scheme's cost model (the differential harness's lever).
func (r *scenarioRun) work(th *simt.Thread, base, deadline int64) {
	rng := th.RNG()
	tr := workload.NewTrace()
	var keyed *workload.KeyedTrace
	var ledger *workload.ValueLedger
	vt, hasValues := r.target.(workload.ValueTarget)
	if r.spec.OpsPerWorker > 0 {
		// Op-budget runs also keep per-key histories: the stream is
		// seed-determined, so the canonicalized histories support exact
		// cross-scheme comparison even on concurrent runs.
		keyed = workload.NewKeyedTrace(th.ID())
		if hasValues {
			// LIFO/FIFO targets additionally track removes by *value* —
			// the element a pop observes — for the conservation check.
			ledger = workload.NewValueLedger()
		}
	}
	phase := 0
	override := r.mixOf[th.ID()]
	gen := workload.NewKeyGen(r.spec.Phases[0].Dist, r.spec.KeyRange, rng)
	doOp := func(frac float64) {
		if frac >= 1 {
			frac = 0.999999 // oversubscribed final-phase overhang
		}
		key := gen.Key(frac)
		mix := r.spec.Phases[phase].Mix
		if override != nil {
			mix = *override
		}
		op := mix.Pick(rng.Intn(100))
		opStart := th.Now()
		var ok bool
		if ledger != nil {
			var val uint64
			val, ok = vt.ApplyValue(th, op, key)
			switch op {
			case workload.OpInsert:
				ledger.Push(key)
			case workload.OpRemove:
				if ok {
					ledger.Pop(val)
				}
			}
		} else {
			ok = r.target.Apply(th, op, key)
		}
		r.rec.Observe(th, obs.StageOp, th.Now()-opStart)
		tr.Record(op, key, ok)
		if keyed != nil {
			keyed.Record(op, key, ok)
		}
		th.AddOps(1)
	}
	sinceStall := 0
	maybeStall := func() {
		if !r.stalls[th.ID()] {
			return
		}
		sinceStall++
		if sinceStall < r.spec.StallEvery {
			return
		}
		sinceStall = 0
		// One errant, empty operation stalled mid-bracket (A4 and the
		// adversarial builtins).  No rng draw, no trace record, no op
		// count: the injection is invisible to the op-stream digests
		// and to the op budget.
		r.scheme.BeginOp(th)
		if r.spec.StallKind == "preempt" {
			// A descheduled thread: Charge crosses no safepoint, so the
			// victim is deaf to scan signals until the stall completes.
			th.Charge(r.spec.StallCycles)
		} else {
			th.Work(r.spec.StallCycles)
		}
		r.scheme.EndOp(th)
	}
	if budget := r.spec.OpsPerWorker; budget > 0 {
		total := r.spec.TotalDuration()
		for i := 0; i < budget; i++ {
			for phase < len(r.spec.Phases)-1 && int64(i)*total >= r.phaseEnd[phase]*int64(budget) {
				phase++
				gen = workload.NewKeyGen(r.spec.Phases[phase].Dist, r.spec.KeyRange, rng)
			}
			startOp := int64(0)
			if phase > 0 {
				startOp = r.phaseEnd[phase-1] * int64(budget) / total
			}
			phaseOps := r.spec.Phases[phase].Duration * int64(budget) / total
			if phaseOps < 1 {
				phaseOps = 1
			}
			doOp(float64(int64(i)-startOp) / float64(phaseOps))
			maybeStall()
		}
	} else {
		for th.Now() < deadline {
			for phase < len(r.spec.Phases)-1 && th.Now() >= base+r.phaseEnd[phase] {
				phase++
				gen = workload.NewKeyGen(r.spec.Phases[phase].Dist, r.spec.KeyRange, rng)
			}
			phaseStart := base
			if phase > 0 {
				phaseStart += r.phaseEnd[phase-1]
			}
			doOp(float64(th.Now()-phaseStart) / float64(r.spec.Phases[phase].Duration))
			maybeStall()
		}
	}
	r.traces[th.ID()] = tr.Sum()
	if keyed != nil {
		r.keyed[th.ID()] = keyed
	}
	if ledger != nil {
		r.ledgers[th.ID()] = ledger
	}
}

// retire ends a worker's mutating life: drop every stale reference,
// then leave the mutator count.
func (r *scenarioRun) retire(th *simt.Thread) {
	for reg := 0; reg < simt.NumRegs; reg++ {
		th.SetReg(reg, 0)
	}
	r.mutators--
}

// RunScenario executes one scenario and returns its result, recording
// latency histograms (but no trace spans) into a fresh recorder.
func RunScenario(spec workload.Scenario) (ScenarioResult, error) {
	return RunScenarioRecorded(spec, obs.NewRecorder())
}

// RunScenarioRecorded executes one scenario with the given recorder
// attached to the simulator, the allocator, and the reclamation scheme.
// Pass obs.NewTraceRecorder() to additionally capture per-thread spans
// for Chrome-trace export, or nil to disable observability entirely
// (the hot path then never allocates).  The recorder never charges
// virtual cycles: every result field except Latency is identical across
// all three choices.
func RunScenarioRecorded(spec workload.Scenario, rec *obs.Recorder) (ScenarioResult, error) {
	if err := spec.Fill(); err != nil {
		return ScenarioResult{}, err
	}
	total := spec.TotalDuration()
	quantum := spec.Quantum
	if quantum == 0 {
		quantum = 125_000
	}
	workers := spec.Threads
	if spec.Churn != nil {
		workers += spec.Churn.TotalWorkers()
	}

	nodeWords, err := scenarioNodeWords(&spec)
	if err != nil {
		return ScenarioResult{}, err
	}

	// An op-budget run is bounded by work, not the clock; give the
	// watchdog headroom for the slowest scheme's per-op cost.
	watchdog := total*int64(workers+4)*4 + 4_000_000_000
	if spec.OpsPerWorker > 0 {
		watchdog += int64(spec.OpsPerWorker) * int64(workers+4) * 100_000
		if spec.StallCycles > 0 {
			// Op-budget victims still take every injected stall.
			stallsPer := int64(spec.OpsPerWorker / spec.StallEvery)
			watchdog += (stallsPer + 1) * spec.StallCycles * int64(spec.StallVictims+1)
		}
	}
	allocPolicy, err := simmem.ParsePolicy(spec.AllocPolicy)
	if err != nil {
		return ScenarioResult{}, err
	}
	sim := simt.New(simt.Config{
		Cores:      spec.Cores,
		Nodes:      spec.Nodes,
		Quantum:    quantum,
		Seed:       spec.Seed,
		Chaos:      spec.Chaos,
		CacheSim:   spec.CacheSim,
		StackWords: 256,
		MaxCycles:  watchdog,
		Heap: simmem.Config{
			Words: scenarioHeapWords(&spec, nodeWords), Check: true, Poison: true,
			Policy: allocPolicy},
	})
	if rec != nil {
		sim.SetProbe(rec)
		sim.Heap().SetObserver(rec)
	}
	sc, tsCore, err := BuildScheme(sim, &spec, rec)
	if err != nil {
		return ScenarioResult{}, err
	}
	target, err := buildTarget(sim, sc, &spec)
	if err != nil {
		return ScenarioResult{}, err
	}

	// The metrics engine is always constructed — the footprint sampler
	// stores its series through it — but the polled counter surface
	// only attaches when the scenario asked for timelines.  Both sample
	// on the scheduler's clock-advance hook: host-side reads between
	// thread quanta, zero virtual cost.
	met := obs.NewMetrics(spec.MetricsEvery)
	if spec.MetricsEvery > 0 {
		registerScenarioMetrics(met, sim, sc, tsCore, rec)
	}
	sampler := newFootprintSampler(sim, sc, nodeWords, spec.SampleEvery, met)
	sim.OnClockAdvance(func(now int64) {
		sampler.tick(now)
		met.Tick(now)
	})

	r := &scenarioRun{
		spec:     &spec,
		sim:      sim,
		scheme:   sc,
		target:   target,
		rec:      rec,
		startAt:  make(map[int]int64),
		finishAt: make(map[int]int64),
		traces:   make(map[int]uint64),
		keyed:    make(map[int]*workload.KeyedTrace),
		ledgers:  make(map[int]*workload.ValueLedger),
		mixOf:    make(map[int]*workload.Mix),
		stalls:   make(map[int]bool),
	}
	var cum int64
	for _, p := range spec.Phases {
		cum += p.Duration
		r.phaseEnd = append(r.phaseEnd, cum)
	}

	nT := spec.Threads
	participants := nT
	if spec.Churn != nil {
		participants++ // the churn controller joins the start line
	}
	startBar := sim.NewBarrier("scenario-start", participants)
	r.mutators = nT

	for i := 0; i < nT; i++ {
		i := i
		th := sim.Spawn(fmt.Sprintf("w%d", i), func(th *simt.Thread) {
			for k := i; k < spec.Prefill; k += nT {
				key := ds.MinKey + uint64(k)*spec.KeyRange/uint64(spec.Prefill)
				r.target.Apply(th, workload.OpInsert, key)
			}
			startBar.Await(th)
			start := th.Now()
			r.startAt[th.ID()] = start
			r.work(th, start, start+total)
			r.finishAt[th.ID()] = th.Now()
			r.retire(th)
			if i == 0 {
				// Last responsibilities fall to worker 0: wait until
				// every mutator (persistent or churned) has dropped its
				// references, then flush the scheme.
				th.SpinWait(func() bool { return r.mutators <= 0 && r.spawningDone })
				sc.Flush(th)
			}
		})
		if node := spec.WorkerNode(i); node >= 0 {
			th.Pin(node)
		}
		if m := spec.WorkerGroupMix(i); m != nil {
			r.mixOf[th.ID()] = m
		}
		if spec.StallCycles > 0 && i < spec.StallVictims {
			r.stalls[th.ID()] = true
		}
	}

	if spec.Churn != nil {
		ch := spec.Churn
		sim.Spawn("churn-ctl", func(th *simt.Thread) {
			startBar.Await(th)
			start := th.Now()
			spawned := 0
			for g := 0; g < ch.Generations; g++ {
				for at := start + ch.Start(g); th.Now() < at; {
					th.Sleep(at - th.Now()) // re-sleep across EINTR
				}
				for j := 0; j < ch.Workers; j++ {
					r.mutators++
					name := fmt.Sprintf("churn%d.%d", g, j)
					w := sim.SpawnFrom(th, name, func(w *simt.Thread) {
						end := w.Now() + ch.Life
						if max := start + total; end > max {
							end = max
						}
						r.work(w, start, end)
						r.retire(w)
						r.churned++
					})
					// Churn workers populate every node in turn under
					// either pinning policy (the controller itself is
					// unpinned, so they'd otherwise inherit no mask).
					if spec.PinPolicy == "rr" || spec.PinPolicy == "split" {
						w.Pin(spawned % spec.Nodes)
					}
					spawned++
				}
			}
			r.spawningDone = true
		})
	} else {
		r.spawningDone = true
	}

	wallStart := wallNow()
	if err := sim.Run(); err != nil {
		return ScenarioResult{}, fmt.Errorf("scenario %s (%s/%s): %w",
			spec.Name, spec.DS, spec.Scheme, err)
	}
	sampler.finish(sim.Clock())

	res := ScenarioResult{
		Scenario:            spec,
		Name:                spec.Name,
		DS:                  spec.DS,
		Scheme:              spec.Scheme,
		Threads:             spec.Threads,
		Cores:               spec.Cores,
		Nodes:               spec.Nodes,
		PinPolicy:           spec.PinPolicy,
		PerNode:             spec.PerNode,
		AllocPolicy:         spec.AllocPolicy,
		ChurnWorkers:        r.churned,
		LeakedRegistrations: -1,
		Latency:             rec.Summary(),
		Footprint:           sampler.fp,
		SchemeStats:         sc.Stats(),
		Sim:                 sim.Stats(),
		Heap:                sim.Heap().Stats(),
		FinalSize:           target.Size(),
		WallTime:            wallSince(wallStart),
	}
	res.Metrics = met.Series()
	if tsCore != nil {
		st := tsCore.Stats()
		res.Core = &st
		res.LeakedRegistrations = tsCore.RegisteredThreads()
	}
	if skew := sampler.fp.AccountingSkew; skew > 0 {
		res.AccountingError = fmt.Sprintf(
			"scheme %s freed %d more nodes than it retired", spec.Scheme, skew)
	}
	var sums []uint64
	var keyedTraces []*workload.KeyedTrace
	var valueLedgers []*workload.ValueLedger
	var minStart, maxFinish int64
	first := true
	for _, th := range sim.Threads() {
		res.Ops += th.Ops()
		if s, ok := r.startAt[th.ID()]; ok {
			if first || s < minStart {
				minStart = s
			}
			first = false
		}
		if f, ok := r.finishAt[th.ID()]; ok && f > maxFinish {
			maxFinish = f
		}
		if sum, ok := r.traces[th.ID()]; ok {
			sums = append(sums, sum) // Threads() is spawn-ordered
		}
		if kt, ok := r.keyed[th.ID()]; ok {
			keyedTraces = append(keyedTraces, kt)
		}
		if vl, ok := r.ledgers[th.ID()]; ok {
			valueLedgers = append(valueLedgers, vl)
		}
	}
	res.TraceHash = workload.CombineTraces(sums)
	if spec.OpsPerWorker > 0 {
		summary := workload.MergeKeyed(keyedTraces)
		res.KeyedDigest = summary.Digest
		switch spec.DS {
		case "list", "hash", "skiplist":
			// Initial presence is the prefill stripe (the exact keys the
			// workers inserted before the measured window).
			prefilled := make(map[uint64]bool, spec.Prefill)
			for k := 0; k < spec.Prefill; k++ {
				prefilled[ds.MinKey+uint64(k)*spec.KeyRange/uint64(spec.Prefill)] = true
			}
			res.KeyedError = summary.CheckSetSemantics(func(key uint64) bool {
				return prefilled[key]
			})
		case "stack", "queue":
			// Initial contents are the prefill stripe values, *with*
			// multiplicity — the stripe's integer division can land two
			// prefill slots on the same value, and LIFO/FIFO structures
			// hold duplicates.
			p0 := make(map[uint64]int, spec.Prefill)
			for k := 0; k < spec.Prefill; k++ {
				p0[ds.MinKey+uint64(k)*spec.KeyRange/uint64(spec.Prefill)]++
			}
			res.KeyedError = workload.MergeValueLedgers(valueLedgers).
				CheckConservation(func(v uint64) int { return p0[v] })
		}
	}
	res.ElapsedCycles = maxFinish - minStart
	res.MeasuredStart = minStart
	res.VirtualSeconds = float64(res.ElapsedCycles) / 1e9
	if res.VirtualSeconds > 0 {
		res.Throughput = float64(res.Ops) / res.VirtualSeconds
	}
	return res, nil
}
