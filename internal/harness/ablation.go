package harness

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"threadscan/internal/workload"
)

// Ablations of the design choices: the paper's (A1 buffer size, A2 scan
// cost, A4 errant thread) and the extensions' (A5-A10).  TS-Scan's lookup
// is fixed to the paper's sorted binary search (§4.1), so there is no
// A3.
// Each is one declaration — a sweep of labelled scenario variants and
// the table columns read from each run — executed by one runner
// (Ablation.Run, the scenario engine) and rendered by one table writer
// (WriteAblationTable).

// Ablation declares one design-choice sweep.
type Ablation struct {
	Name string // the `tsbench -ablation` name
	// Title heads the table; a %s in it takes the first row's scenario
	// name.
	Title  string
	Labels []string // headers of the label columns, one per Variant label
	// Variants expands the sweep from its parameters into labelled
	// scenarios, in table order.
	Variants func(p AblationParams) ([]Variant, error)
	Columns  []Column // measured columns, after the labels
}

// AblationParams selects what an ablation sweeps.  SweepParams apply as
// each declaration documents; Scenarios and Values override the
// subject scenarios and the swept axis (buffer sizes, shard counts,
// node counts, stall lengths) where the ablation has one.
type AblationParams struct {
	SweepParams
	Scenarios []string // nil = the ablation's default subjects
	Values    []int64  // nil = the ablation's default axis
}

// Variant is one labelled cell of an ablation.
type Variant struct {
	Labels []string
	Spec   workload.Scenario
}

// Column is one measured table column: Value read from a run and
// rendered with Format ("%d" when empty).
type Column struct {
	Name   string
	Format string
	Value  func(r *ScenarioResult) any
}

// AblationRow is one run of an ablation: its variant labels and result.
type AblationRow struct {
	Labels []string
	Result ScenarioResult
}

// Run expands the ablation and runs every variant on the scenario
// engine, in order.
func (a *Ablation) Run(p AblationParams) ([]AblationRow, error) {
	vs, err := a.Variants(p)
	if err != nil {
		return nil, err
	}
	return runVariants(vs)
}

// runVariants runs each variant's scenario, in order.
func runVariants(vs []Variant) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(vs))
	for _, v := range vs {
		r, err := RunScenario(v.Spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Labels: v.Labels, Result: r})
	}
	return rows, nil
}

// WriteAblationTable renders an ablation's rows as an aligned text
// table: the title, a header, then one line per row.
func WriteAblationTable(w io.Writer, a *Ablation, rows []AblationRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if !strings.Contains(a.Title, "%s") {
		fmt.Fprintf(tw, "# %s\n", a.Title)
	} else if len(rows) > 0 {
		fmt.Fprintf(tw, "# "+a.Title+"\n", rows[0].Result.Name)
	}
	header := append([]string(nil), a.Labels...)
	for _, c := range a.Columns {
		header = append(header, c.Name)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for i := range rows {
		cells := append([]string(nil), rows[i].Labels...)
		for _, c := range a.Columns {
			format := c.Format
			if format == "" {
				format = "%d"
			}
			cells = append(cells, fmt.Sprintf(format, c.Value(&rows[i].Result)))
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	return tw.Flush()
}

// AblationByName returns the named ablation declaration.
func AblationByName(name string) (*Ablation, bool) {
	for i := range Ablations {
		if Ablations[i].Name == name {
			return &Ablations[i], true
		}
	}
	return nil, false
}

// AblationNames returns every ablation name in registry order.
func AblationNames() []string {
	names := make([]string, len(Ablations))
	for i, a := range Ablations {
		names[i] = a.Name
	}
	return names
}

// Shared columns.
var (
	throughputCol = Column{"throughput", "%.0f", func(r *ScenarioResult) any { return r.Throughput }}
	collectsCol   = Column{"collects", "", func(r *ScenarioResult) any { return r.Core.Collects }}
	helpSortedCol = Column{"help_sorted", "", func(r *ScenarioResult) any { return r.Core.HelpSortedShards }}
	helpSweptCol  = Column{"help_swept", "", func(r *ScenarioResult) any { return r.Core.HelpSweptShards }}
	nodeCollects  = Column{"node-collects", "%s", func(r *ScenarioResult) any {
		if len(r.Core.NodeCollects) == 0 {
			return "-"
		}
		parts := make([]string, len(r.Core.NodeCollects))
		for i, n := range r.Core.NodeCollects {
			parts[i] = strconv.FormatUint(n, 10)
		}
		return strings.Join(parts, "/")
	}}
	stolenCol = Column{"stolen", "", func(r *ScenarioResult) any {
		return r.Core.StolenCollects + r.Core.StolenSweeps
	}}
)

// Ablations is the registry `tsbench -ablation` and `tsbench
// harness-bench` iterate, in presentation order.
var Ablations = []Ablation{
	{
		// A1 — the paper's §6 tuning: "increasing the size of the
		// delete buffer ... is a useful way of amortizing the cost of
		// signals and of waiting.  However, it also increases the size
		// of the list of pointers".  The oversubscribed hash table
		// (4 threads per core) at each buffer size.
		Name:   "buffer",
		Title:  "A1: delete-buffer size (oversubscribed hash table)",
		Labels: []string{"buffer"},
		Variants: func(p AblationParams) ([]Variant, error) {
			p.fill(4)
			var vs []Variant
			for _, b := range axis(p.Values, 32, 64, 128, 256, 512, 1024) {
				spec := paperPoint("hash", "threadscan", p.SweepParams, p.Cores*4)
				spec.BufferSize = int(b)
				vs = append(vs, Variant{[]string{strconv.FormatInt(b, 10)}, spec})
			}
			return vs, nil
		},
		Columns: []Column{throughputCol, collectsCol,
			{"max_master", "", func(r *ScenarioResult) any { return r.Core.MaxMaster }},
			{"signals", "", func(r *ScenarioResult) any { return r.Sim.SignalsSent }}},
	},
	{
		// A2 — "Stack scans are the main source of overhead for
		// ThreadScan, although ... the overhead is well amortized
		// across threads and against reclaimed nodes" (§1.2): scan
		// cost per reclaimed node across thread counts on the list,
		// with and without HelpFree (the §7 latency-sharing
		// extension).
		Name:   "scancost",
		Title:  "A2: scan cost breakdown (list)",
		Labels: []string{"helpfree", "threads"},
		Variants: func(p AblationParams) ([]Variant, error) {
			p.fill(3)
			var vs []Variant
			for _, help := range []bool{false, true} {
				for _, n := range p.ThreadCounts {
					spec := paperPoint("list", "threadscan", p.SweepParams, n)
					spec.HelpFree = help
					vs = append(vs, Variant{[]string{strconv.FormatBool(help), strconv.Itoa(n)}, spec})
				}
			}
			return vs, nil
		},
		Columns: []Column{throughputCol, collectsCol,
			{"reclaimed", "", func(r *ScenarioResult) any { return reclaimedNodes(r) }},
			{"handler_cyc/node", "%.1f", func(r *ScenarioResult) any {
				return float64(r.Core.HandlerCycles) / float64(reclaimedNodes(r))
			}},
			{"collect_cyc/node", "%.1f", func(r *ScenarioResult) any {
				return float64(r.Core.CollectCycles) / float64(reclaimedNodes(r))
			}}},
	},
	{
		// A4 — the same application stall under epoch and ThreadScan:
		// the first worker runs one empty operation stalled for 2ms
		// every 200 ops.  Epoch reclaimers inherit the stall;
		// ThreadScan's signal handler runs *inside* the stalled
		// thread, so collects finish regardless — the paper's central
		// liveness claim (§1.2, §2).  The stall is an application
		// stall (StallKind "work"): the victim still reaches
		// safepoints, so signals are delivered mid-stall.  Of
		// SweepParams, Cores (one thread per core), Duration, Seed and
		// Quantum apply.
		Name:   "stall",
		Title:  "A4: errant stalled thread (list; first worker stalls mid-operation)",
		Labels: []string{"scheme"},
		Variants: func(p AblationParams) ([]Variant, error) {
			p.fill(3)
			duration := p.Duration
			if duration <= 0 {
				duration = 20_000_000
			}
			var vs []Variant
			for _, scheme := range []string{"epoch", "threadscan"} {
				spec := workload.Scenario{
					Name:    "a4-errant-stall",
					DS:      "list",
					Scheme:  scheme,
					Threads: p.Cores,
					Cores:   p.Cores,
					// The paper's list shape (§6), on the flat machine.
					KeyRange: 2048,
					Prefill:  1024,
					Seed:     p.Seed,
					Quantum:  p.Quantum,
					Phases: []workload.Phase{{
						Name: "stalled", Duration: duration,
						Mix: workload.Mix{InsertPct: 10, RemovePct: 10},
					}},
					StallEvery:   200,
					StallCycles:  2_000_000,
					StallVictims: 1,
					StallKind:    "work",
					// Small batches so reclamation happens often enough
					// to overlap the stall windows.
					Batch:      32,
					BufferSize: 64,
				}
				vs = append(vs, Variant{[]string{scheme}, spec})
			}
			return vs, nil
		},
		Columns: []Column{throughputCol,
			{"reclaim_passes", "", func(r *ScenarioResult) any { return r.SchemeStats.ReclaimPasses }},
			{"grace_wait_cycles", "", func(r *ScenarioResult) any { return r.SchemeStats.GraceWaitCycles }},
			{"freed", "", func(r *ScenarioResult) any { return r.SchemeStats.Freed }},
			{"peak_garbage", "", func(r *ScenarioResult) any { return r.Footprint.ExactPeakRetiredNodes }}},
	},
	{
		// A5 — the collect pipeline's shard count K crossed with the
		// global watermark trigger (off, and half the aggregate
		// delete-buffer capacity), on a scenario whose retirement
		// pattern stresses the reclaimer's serial section (default
		// zipfian-skew, the skewed shape whose single hot reclaimer
		// the pipeline exists to break up).  Values are the K values.
		// Seed, Cores and Quantum pass straight through; Duration
		// stretches every phase, normalized so tsbench's 50ms
		// -duration-ms default runs the scenario at its built-in
		// length (see scenarioSubject).
		Name:   "shards",
		Title:  "A5: sharded collect pipeline (%s, list/threadscan)",
		Labels: []string{"shards", "watermark"},
		Variants: func(p AblationParams) ([]Variant, error) {
			var vs []Variant
			for _, name := range subjects(p.Scenarios, "zipfian-skew") {
				base, err := scenarioSubject(name, "list", p.SweepParams)
				if err != nil {
					return nil, err
				}
				base.Scheme = "threadscan"
				if p.Cores > 0 {
					base.Cores = p.Cores
				}
				if err := base.Fill(); err != nil {
					return nil, err
				}
				watermark := base.Threads * base.BufferSize / 2
				for _, k := range axis(p.Values, 1, 2, 4, 8, 16) {
					for _, wm := range []int{0, watermark} {
						spec := base
						spec.Shards = int(k)
						spec.Watermark = wm
						vs = append(vs, Variant{[]string{strconv.FormatInt(k, 10), strconv.Itoa(wm)}, spec})
					}
				}
			}
			return vs, nil
		},
		Columns: []Column{throughputCol, collectsCol,
			{"collect_cyc", "", func(r *ScenarioResult) any { return r.Core.CollectCycles }},
			{"handler_cyc", "", func(r *ScenarioResult) any { return r.Core.HandlerCycles }},
			helpSortedCol, helpSweptCol,
			{"peak_garbage", "", func(r *ScenarioResult) any { return r.Footprint.PeakRetiredNodes }}},
	},
	{
		// A6 — affinity-first against round-robin shard claiming on
		// the NUMA scenarios (default numa-split, the worst-case
		// cross-socket retirement shape, with numa-balanced as its
		// control).  Cores is ignored: the scenarios fix their own
		// geometry.
		Name:   "numa",
		Title:  "A6: NUMA shard affinity (stack/threadscan)",
		Labels: []string{"scenario", "claim"},
		Variants: func(p AblationParams) ([]Variant, error) {
			return numaVariants(p, []string{"numa-split", "numa-balanced"},
				[][]string{{"affinity"}, {"rr"}},
				func(s *workload.Scenario, l []string) { s.ClaimPolicy = l[0] })
		},
		Columns: []Column{throughputCol, collectsCol,
			{"local_claims", "", func(r *ScenarioResult) any { return r.Core.LocalShardClaims }},
			{"remote_claims", "", func(r *ScenarioResult) any { return r.Core.RemoteShardClaims }},
			{"remote_fills", "", func(r *ScenarioResult) any { return r.Sim.RemoteLineFills }},
			helpSortedCol, helpSweptCol},
	},
	{
		// A7 — per-node retirement routing against the globally hashed
		// pipeline under both claim policies.  The three regimes tell
		// the locality story in order: "global/rr" is the
		// topology-blind pipeline, "global/affinity" is A6's answer
		// (affinity-first *claiming*), and "pernode" routes at Free
		// time and reclaims node-locally, which eliminates the
		// sweep-side remote fills claiming alone cannot.  Defaults:
		// numa-split and numa-skewed-retire (the rebalancing
		// adversary).
		Name:   "pernode",
		Title:  "A7: per-node retirement routing (stack/threadscan)",
		Labels: []string{"scenario", "routing"},
		Variants: func(p AblationParams) ([]Variant, error) {
			return numaVariants(p, []string{"numa-split", "numa-skewed-retire"},
				[][]string{{"global/rr"}, {"global/affinity"}, {"pernode"}},
				func(s *workload.Scenario, l []string) {
					s.ClaimPolicy = "affinity"
					if l[0] == "global/rr" {
						s.ClaimPolicy = "rr"
					}
					s.PerNode = l[0] == "pernode"
				})
		},
		Columns: []Column{throughputCol, collectsCol,
			{"sweep-remote-fills", "", func(r *ScenarioResult) any { return r.Core.SweepRemoteFills }},
			{"remote-fills", "", func(r *ScenarioResult) any { return r.Sim.RemoteLineFills }},
			{"local-claims", "", func(r *ScenarioResult) any { return r.Core.LocalShardClaims }},
			{"remote-claims", "", func(r *ScenarioResult) any { return r.Core.RemoteShardClaims }},
			stolenCol, nodeCollects},
	},
	{
		// A8 — allocator policy x retirement routing.  "global" is
		// the single machine-wide pool (the sweep is node-local but a
		// freed block is recycled by whichever node allocs next),
		// "interleave" and "membind" are the numactl contrast points,
		// and "localalloc" — with and without per-node routing — is
		// the allocation layer's answer: per-node pools serve allocs
		// node-locally and sweep-to-home routing returns every freed
		// block to its resident node.  Defaults: numa-split and
		// realloc-local's closed loop.
		Name:   "allocpool",
		Title:  "A8: NUMA allocation pools (stack/threadscan)",
		Labels: []string{"scenario", "policy", "routing"},
		Variants: func(p AblationParams) ([]Variant, error) {
			return numaVariants(p, []string{"numa-split", "realloc-local"},
				[][]string{{"global", "global"}, {"global", "pernode"}, {"interleave", "pernode"},
					{"membind", "pernode"}, {"localalloc", "global"}, {"localalloc", "pernode"}},
				func(s *workload.Scenario, l []string) {
					s.AllocPolicy = l[0]
					s.PerNode = l[1] == "pernode"
				})
		},
		Columns: []Column{throughputCol,
			{"remote-allocs", "", func(r *ScenarioResult) any { return r.Heap.RemoteAllocs }},
			{"alloc-remote-fills", "", func(r *ScenarioResult) any { return r.Sim.AllocRemoteFills }},
			{"home-frees", "", func(r *ScenarioResult) any { return r.Heap.HomeFrees }},
			{"remote-frees", "", func(r *ScenarioResult) any { return r.Heap.RemoteFrees }},
			{"sweep-remote-fills", "", func(r *ScenarioResult) any { return r.Core.SweepRemoteFills }},
			{"remote-fills", "", func(r *ScenarioResult) any { return r.Sim.RemoteLineFills }}},
	},
	{
		// A9 — per-node collects serialized on the machine-wide
		// reclamation lock vs running concurrently on the per-node
		// collect slots, across node counts (Values; default 1, 2, 4)
		// with four cores and four threads per node (overlapScale).
		// Defaults: per-node-reclaim (symmetric, where collect
		// throughput should scale near-linearly in nodes once collects
		// overlap) and numa-skewed-retire (the single-retiring-node
		// adversary, which cannot scale and checks that steal
		// arbitration under overlap stays sound).
		Name:   "overlap",
		Title:  "A9: concurrent per-node collects (stack/threadscan, 4 cores + 4 threads per node)",
		Labels: []string{"scenario", "nodes", "mode"},
		Variants: func(p AblationParams) ([]Variant, error) {
			var vs []Variant
			for _, name := range subjects(p.Scenarios, "per-node-reclaim", "numa-skewed-retire") {
				base, err := scenarioSubject(name, "stack", p.SweepParams)
				if err != nil {
					return nil, err
				}
				base.Scheme = "threadscan"
				for _, n := range axis(p.Values, 1, 2, 4) {
					spec := overlapScale(base, int(n))
					for _, mode := range []string{"serialized", "overlapped"} {
						s := spec
						s.SerializeCollects = mode == "serialized"
						vs = append(vs, Variant{[]string{name, strconv.FormatInt(n, 10), mode}, s})
					}
				}
			}
			return vs, nil
		},
		Columns: []Column{
			{"collect-throughput", "%.0f", func(r *ScenarioResult) any { return collectThroughput(r) }},
			collectsCol,
			{"overlapped", "", func(r *ScenarioResult) any { return r.Core.OverlappedCollects }},
			stolenCol,
			{"ops-throughput", "%.0f", func(r *ScenarioResult) any { return r.Throughput }},
			nodeCollects},
	},
	{
		// A10 — the bounded-garbage contrast the robust family exists
		// for.  A preempted reader (deaf to signals, parked
		// mid-operation) holds its position for increasing stall
		// lengths (Values; absolute, not scaled by Duration) while the
		// other workers churn; epoch's grace periods and ThreadScan's
		// scan barrier both inherit the stall, so their exact peak
		// retired garbage grows with it, while hyaline's per-batch
		// reference counts let every batch the victim never entered
		// free underneath it.  Default subject: stalled-scanner.
		Name:   "robust",
		Title:  "A10: bounded garbage under preemption (%s, list)",
		Labels: []string{"scheme", "stall_cycles"},
		Variants: func(p AblationParams) ([]Variant, error) {
			var vs []Variant
			for _, name := range subjects(p.Scenarios, "stalled-scanner") {
				base, err := scenarioSubject(name, "list", p.SweepParams)
				if err != nil {
					return nil, err
				}
				for _, scheme := range []string{"epoch", "threadscan", "hyaline"} {
					for _, stall := range axis(p.Values, 1_000_000, 2_000_000, 6_000_000) {
						spec := base
						spec.Scheme = scheme
						spec.StallCycles = stall
						vs = append(vs, Variant{[]string{scheme, strconv.FormatInt(stall, 10)}, spec})
					}
				}
			}
			return vs, nil
		},
		Columns: []Column{throughputCol,
			{"exact_peak_nodes", "", func(r *ScenarioResult) any { return r.Footprint.ExactPeakRetiredNodes }},
			{"exact_peak_words", "", func(r *ScenarioResult) any { return r.Footprint.ExactPeakRetiredWords }},
			{"sampled_peak_nodes", "", func(r *ScenarioResult) any { return r.Footprint.PeakRetiredNodes }},
			{"freed", "", func(r *ScenarioResult) any { return r.SchemeStats.Freed }},
			{"pending", "", func(r *ScenarioResult) any { return r.SchemeStats.Pending }}},
	},
}

// axis returns the swept values, or the defaults when none were given.
func axis(values []int64, defaults ...int64) []int64 {
	if len(values) > 0 {
		return values
	}
	return defaults
}

// subjects returns the subject scenario names, or the defaults.
func subjects(names []string, defaults ...string) []string {
	if len(names) > 0 {
		return names
	}
	return defaults
}

// scenarioSubject is a built-in scenario as an ablation subject on the
// given structure.  Duration stretches every phase, normalized so
// tsbench's 50ms -duration-ms default runs the scenario at its
// built-in length (pass 100ms for 2x, 25ms for 0.5x; 0 also keeps the
// built-in length — this reference is the CLI default, not the figure
// sweeps' 20ms window); Seed and Quantum apply when set.  Scale and
// CacheSim do not apply.
func scenarioSubject(name, dsName string, p SweepParams) (workload.Scenario, error) {
	base, ok := workload.ByName(name)
	if !ok {
		return workload.Scenario{}, fmt.Errorf("harness: unknown scenario %q", name)
	}
	if p.Duration > 0 {
		base = base.Scale(float64(p.Duration) / 50_000_000)
	}
	base.DS = dsName
	if p.Seed != 0 {
		base.Seed = p.Seed
	}
	if p.Quantum > 0 {
		base.Quantum = p.Quantum
	}
	return base, nil
}

// numaVariants crosses each subject scenario (stack/threadscan) with
// the labelled regimes.  A flat or unsharded subject would make the
// topology contrasts vacuous (claim policies, routing and node pools
// act only when nodes > 1 and K > 1), so non-NUMA scenarios are lifted
// onto a pinned two-node machine with a sharded, help-swept pipeline.
func numaVariants(p AblationParams, defaults []string, regimes [][]string,
	apply func(*workload.Scenario, []string)) ([]Variant, error) {
	var vs []Variant
	for _, name := range subjects(p.Scenarios, defaults...) {
		base, err := scenarioSubject(name, "stack", p.SweepParams)
		if err != nil {
			return nil, err
		}
		base.Scheme = "threadscan"
		if base.Nodes < 2 {
			base.Nodes = 2
		}
		if base.PinPolicy == "" || base.PinPolicy == "none" {
			base.PinPolicy = "rr"
		}
		if base.Shards <= 1 {
			base.Shards = 8
			base.HelpFree = true
		}
		for _, reg := range regimes {
			spec := base
			apply(&spec, reg)
			vs = append(vs, Variant{append([]string{name}, reg...), spec})
		}
	}
	return vs, nil
}

// reclaimedNodes is every node a threadscan run reclaimed — reclaimer
// sweeps plus scanner help-frees — floored at 1 for per-node ratios.
func reclaimedNodes(r *ScenarioResult) uint64 {
	if n := r.Core.Reclaimed + r.Core.HelpFreed; n > 0 {
		return n
	}
	return 1
}

// collectThroughput is reclaimed nodes — reclaimer sweeps plus scanner
// help-frees — per virtual second: the collect-pipeline capacity the
// per-node collect slots exist to scale (A9).  With one machine-wide
// lock it saturates at one pipeline's rate no matter how many nodes
// retire; overlapped it should grow near-linearly in the node count.
func collectThroughput(r *ScenarioResult) float64 {
	if r.Core == nil || r.VirtualSeconds <= 0 {
		return 0
	}
	return float64(r.Core.Reclaimed+r.Core.HelpFreed) / r.VirtualSeconds
}

// overlapScale fixes the A9 scaling geometry: per-node resources are
// held constant (cores, threads, key range, prefill per node) while
// the node count sweeps, so each added node brings one more retire
// stream and one more collect pipeline.  A skewed base (any worker-mix
// entry with no updates, i.e. numa-skewed-retire) keeps all retirement
// on node 0 — the shape that cannot scale and shows the steal path
// stays live; a symmetric base retires on every node.
func overlapScale(base workload.Scenario, nodes int) workload.Scenario {
	const (
		coresPerNode   = 4
		threadsPerNode = 4
	)
	spec := base
	spec.Nodes = nodes
	spec.Cores = coresPerNode * nodes
	spec.Threads = threadsPerNode * nodes
	spec.PinPolicy = "rr"
	spec.KeyRange = base.KeyRange * uint64(nodes)
	spec.Prefill = base.Prefill * nodes
	// Keep the collect trigger well above threads x stack words so
	// sweep and aggregate — the per-node work — dominate the scan —
	// the all-threads work — and the pipeline is worth overlapping.
	spec.BufferSize = 512
	skewed := false
	for _, m := range base.WorkerMix {
		if m.InsertPct == 0 && m.RemovePct == 0 {
			skewed = true
		}
	}
	retire := workload.Mix{InsertPct: 40, RemovePct: 40}
	if skewed {
		// Node 0 retires everything; the other nodes only read.
		mix := make([]workload.Mix, nodes)
		mix[0] = retire
		spec.WorkerMix = mix
	} else {
		// Node-symmetric retire pressure: every node drives its own
		// collect pipeline equally.
		spec.WorkerMix = nil
	}
	phases := make([]workload.Phase, len(base.Phases))
	copy(phases, base.Phases)
	for i := range phases {
		phases[i].Mix = retire
	}
	spec.Phases = phases
	return spec
}
