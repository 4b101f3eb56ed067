package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"threadscan/internal/core"
	"threadscan/internal/workload"
)

// Ablations of the design choices: the paper's (A1 buffer size, A2 scan
// cost, A3 scan lookup, A4 errant thread) and the extensions' (A5-A10).
// Each returns its rows and can render itself as a table.

// BufferRow is one point of the delete-buffer-size ablation (A1 — the
// paper's §6 tuning: "increasing the size of the delete buffer ... is a
// useful way of amortizing the cost of signals and of waiting.
// However, it also increases the size of the list of pointers").
type BufferRow struct {
	BufferSize int
	Result     Result
}

// AblationBuffer sweeps the per-thread delete buffer size on the
// oversubscribed hash table.
func AblationBuffer(sizes []int, p SweepParams, threads int) ([]BufferRow, error) {
	p.fill(4)
	if len(sizes) == 0 {
		sizes = []int{32, 64, 128, 256, 512, 1024}
	}
	if threads <= 0 {
		threads = p.Cores * 4
	}
	var rows []BufferRow
	for _, b := range sizes {
		cfg := baseConfig("hash", p)
		cfg.Scheme = "threadscan"
		cfg.Threads = threads
		cfg.Cores = p.Cores
		cfg.BufferSize = b
		r, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BufferRow{BufferSize: b, Result: r})
	}
	return rows, nil
}

// WriteBufferTable renders the A1 ablation.
func WriteBufferTable(w io.Writer, rows []BufferRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "# A1: delete-buffer size (oversubscribed hash table)")
	fmt.Fprintln(tw, "buffer\tthroughput\tcollects\tmax_master\tsignals")
	for _, row := range rows {
		c := row.Result.Core
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%d\t%d\n",
			row.BufferSize, row.Result.Throughput, c.Collects, c.MaxMaster,
			row.Result.Sim.SignalsSent)
	}
	return tw.Flush()
}

// LookupRow is one point of the scan-lookup ablation (A3 — sorted
// binary search, the paper's §4.1 design, vs linear scan vs hash set).
type LookupRow struct {
	Lookup core.LookupKind
	Result Result
}

// AblationLookup compares TS-Scan membership structures on the list.
func AblationLookup(p SweepParams, threads int) ([]LookupRow, error) {
	p.fill(3)
	if threads <= 0 {
		threads = p.Cores
	}
	var rows []LookupRow
	for _, k := range []core.LookupKind{core.LookupBinary, core.LookupLinear, core.LookupHash} {
		cfg := baseConfig("list", p)
		cfg.Scheme = "threadscan"
		cfg.Threads = threads
		cfg.Cores = p.Cores
		cfg.Lookup = k
		// Linear lookup is quadratic in the master buffer; keep the
		// buffers modest so the ablation finishes.
		cfg.BufferSize = 256
		r, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LookupRow{Lookup: k, Result: r})
	}
	return rows, nil
}

// WriteLookupTable renders the A3 ablation.
func WriteLookupTable(w io.Writer, rows []LookupRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "# A3: TS-Scan lookup structure (list, buffer 256)")
	fmt.Fprintln(tw, "lookup\tthroughput\thandler_cycles\tscanned_words")
	for _, row := range rows {
		c := row.Result.Core
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\n",
			row.Lookup, row.Result.Throughput, c.HandlerCycles, c.ScannedWords)
	}
	return tw.Flush()
}

// ScanCostRow is one point of the scan-overhead breakdown (A2 — "Stack
// scans are the main source of overhead for ThreadScan, although ...
// the overhead is well amortized across threads and against reclaimed
// nodes", §1.2).
type ScanCostRow struct {
	Threads int
	Result  Result
}

// AblationScanCost measures scan overhead vs thread count on the list,
// with and without HelpFree (the §7 latency-sharing extension).
func AblationScanCost(p SweepParams, helpFree bool) ([]ScanCostRow, error) {
	p.fill(3)
	var rows []ScanCostRow
	for _, n := range p.ThreadCounts {
		cfg := baseConfig("list", p)
		cfg.Scheme = "threadscan"
		cfg.Threads = n
		cfg.Cores = p.Cores
		cfg.HelpFree = helpFree
		r, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScanCostRow{Threads: n, Result: r})
	}
	return rows, nil
}

// WriteScanCostTable renders the A2 ablation: handler cycles per
// reclaimed node and the handler share of total cycles.
func WriteScanCostTable(w io.Writer, rows []ScanCostRow, helpFree bool) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# A2: scan cost breakdown (list, HelpFree=%v)\n", helpFree)
	fmt.Fprintln(tw, "threads\tthroughput\tcollects\treclaimed\thandler_cyc/node\tcollect_cyc/node")
	for _, row := range rows {
		c := row.Result.Core
		reclaimed := c.Reclaimed + c.HelpFreed
		if reclaimed == 0 {
			reclaimed = 1
		}
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%d\t%.1f\t%.1f\n",
			row.Threads, row.Result.Throughput, c.Collects, reclaimed,
			float64(c.HandlerCycles)/float64(reclaimed),
			float64(c.CollectCycles)/float64(reclaimed))
	}
	return tw.Flush()
}

// ShardRow is one point of the sharded-collect ablation (A5): the
// collect pipeline's shard count K crossed with the global watermark
// trigger, on a scenario whose retirement pattern actually stresses the
// reclaimer's serial section.
type ShardRow struct {
	Shards    int
	Watermark int
	Result    ScenarioResult
}

// AblationShards sweeps the collect pipeline's K and the watermark
// trigger on a built-in scenario (default zipfian-skew — the skewed
// retirement shape whose single hot reclaimer the pipeline exists to
// break up).  Each K runs with the watermark off and at half the
// aggregate delete-buffer capacity.  Of SweepParams, Seed, Cores, and
// Quantum pass straight through; Duration stretches every scenario
// phase proportionally, normalized so tsbench's 50ms -duration-ms
// default runs the scenario at its built-in length (pass 100ms for 2x,
// 25ms for 0.5x; 0 also keeps the built-in length — note this
// reference is the CLI default, not the figure sweeps' 20ms window).
// Scale and CacheSim do not apply to scenario runs.
func AblationShards(scenarioName string, ks []int, p SweepParams) ([]ShardRow, error) {
	if scenarioName == "" {
		scenarioName = "zipfian-skew"
	}
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16}
	}
	base, ok := workload.ByName(scenarioName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown scenario %q", scenarioName)
	}
	if p.Duration > 0 {
		base = base.Scale(float64(p.Duration) / 50_000_000)
	}
	base.DS = "list"
	base.Scheme = "threadscan"
	if p.Seed != 0 {
		base.Seed = p.Seed
	}
	if p.Cores > 0 {
		base.Cores = p.Cores
	}
	if p.Quantum > 0 {
		base.Quantum = p.Quantum
	}
	if err := base.Fill(); err != nil {
		return nil, err
	}
	watermark := base.Threads * base.BufferSize / 2
	var rows []ShardRow
	for _, k := range ks {
		for _, wm := range []int{0, watermark} {
			spec := base
			spec.Shards = k
			spec.Watermark = wm
			r, err := RunScenario(spec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ShardRow{Shards: k, Watermark: wm, Result: r})
		}
	}
	return rows, nil
}

// WriteShardTable renders the A5 ablation: the reclaimer's serial
// section (collect cycles) against throughput and the help protocol's
// work sharing, per K and watermark setting.
func WriteShardTable(w io.Writer, rows []ShardRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(rows) > 0 {
		fmt.Fprintf(tw, "# A5: sharded collect pipeline (%s, list/threadscan)\n", rows[0].Result.Name)
	}
	fmt.Fprintln(tw, "shards\twatermark\tthroughput\tcollects\tcollect_cyc\thandler_cyc\thelp_sorted\thelp_swept\tpeak_garbage")
	for _, row := range rows {
		c := row.Result.Core
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\n",
			row.Shards, row.Watermark, row.Result.Throughput,
			c.Collects, c.CollectCycles, c.HandlerCycles,
			c.HelpSortedShards, c.HelpSweptShards,
			row.Result.Footprint.PeakRetiredNodes)
	}
	return tw.Flush()
}

// NUMARow is one point of the topology ablation (A6): one scenario run
// under one shard-claim policy on a two-node machine.
type NUMARow struct {
	Scenario string
	Claim    string
	Result   ScenarioResult
}

// AblationNUMA contrasts affinity-first against round-robin shard
// claiming on the NUMA scenarios (default numa-split, the worst-case
// cross-socket retirement shape, with numa-balanced as its control).
// SweepParams pass through as in AblationShards: Duration normalizes
// against the 50ms CLI default, Seed and Quantum apply directly; Cores
// is ignored (the scenarios fix their own core/node geometry).
func AblationNUMA(scenarioNames []string, p SweepParams) ([]NUMARow, error) {
	if len(scenarioNames) == 0 {
		scenarioNames = []string{"numa-split", "numa-balanced"}
	}
	var rows []NUMARow
	for _, name := range scenarioNames {
		base, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown scenario %q", name)
		}
		if p.Duration > 0 {
			base = base.Scale(float64(p.Duration) / 50_000_000)
		}
		base.DS = "stack"
		base.Scheme = "threadscan"
		if p.Seed != 0 {
			base.Seed = p.Seed
		}
		if p.Quantum > 0 {
			base.Quantum = p.Quantum
		}
		// A flat or unsharded scenario would make the claim-policy
		// contrast vacuous (ClaimPolicy only acts when nodes > 1 and
		// K > 1), so non-NUMA scenarios passed via -ablation-scenario
		// are lifted onto a pinned two-node machine with a sharded,
		// help-swept pipeline.
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
		for _, claim := range []string{"affinity", "rr"} {
			spec := base
			spec.ClaimPolicy = claim
			r, err := RunScenario(spec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, NUMARow{Scenario: name, Claim: claim, Result: r})
		}
	}
	return rows, nil
}

// WriteNUMATable renders the A6 ablation: claim locality, cross-node
// memory traffic, and throughput per scenario and claim policy.
func WriteNUMATable(w io.Writer, rows []NUMARow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "# A6: NUMA shard affinity (stack/threadscan)")
	fmt.Fprintln(tw, "scenario\tclaim\tthroughput\tcollects\tlocal_claims\tremote_claims\tremote_fills\thelp_sorted\thelp_swept")
	for _, row := range rows {
		c := row.Result.Core
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\n",
			row.Scenario, row.Claim, row.Result.Throughput,
			c.Collects, c.LocalShardClaims, c.RemoteShardClaims,
			row.Result.Sim.RemoteLineFills,
			c.HelpSortedShards, c.HelpSweptShards)
	}
	return tw.Flush()
}

// PerNodeRow is one point of the per-node reclamation ablation (A7):
// one scenario under one retirement-routing regime on a multi-node
// machine.  The three regimes tell the locality story in order:
// "global/rr" is the topology-blind pipeline, "global/affinity" is the
// A6 answer (globally hashed shards, affinity-first *claiming*), and
// "pernode" is this layer's answer — route at Free time, reclaim
// node-locally — which eliminates the sweep-side remote fills claiming
// alone cannot (a claimed shard still holds the other socket's lines).
type PerNodeRow struct {
	Scenario string
	Routing  string // global/rr | global/affinity | pernode
	Result   ScenarioResult
}

// AblationPerNode contrasts per-node retirement routing against the
// globally hashed pipeline under both claim policies (default:
// numa-split, the worst-case cross-socket shape, and
// numa-skewed-retire, the rebalancing adversary).  SweepParams pass
// through as in AblationNUMA: Duration normalizes against the 50ms CLI
// default, Seed and Quantum apply directly; Cores is ignored (the
// scenarios fix their own geometry).
func AblationPerNode(scenarioNames []string, p SweepParams) ([]PerNodeRow, error) {
	if len(scenarioNames) == 0 {
		scenarioNames = []string{"numa-split", "numa-skewed-retire"}
	}
	regimes := []struct {
		name    string
		claim   string
		perNode bool
	}{
		{"global/rr", "rr", false},
		{"global/affinity", "affinity", false},
		{"pernode", "affinity", true},
	}
	var rows []PerNodeRow
	for _, name := range scenarioNames {
		base, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown scenario %q", name)
		}
		if p.Duration > 0 {
			base = base.Scale(float64(p.Duration) / 50_000_000)
		}
		base.DS = "stack"
		base.Scheme = "threadscan"
		if p.Seed != 0 {
			base.Seed = p.Seed
		}
		if p.Quantum > 0 {
			base.Quantum = p.Quantum
		}
		// Routing needs a topology and claimable units, same lift as A6.
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
			spec.ClaimPolicy = reg.claim
			spec.PerNode = reg.perNode
			r, err := RunScenario(spec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, PerNodeRow{Scenario: name, Routing: reg.name, Result: r})
		}
	}
	return rows, nil
}

// WritePerNodeTable renders the A7 ablation: sweep-side remote fills
// (the metric routing exists to zero), machine-wide remote fills,
// claim locality, steal activity, and the per-node collect balance.
func WritePerNodeTable(w io.Writer, rows []PerNodeRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "# A7: per-node retirement routing (stack/threadscan)")
	fmt.Fprintln(tw, "scenario\trouting\tthroughput\tcollects\tsweep-remote-fills\tremote-fills\tlocal-claims\tremote-claims\tstolen\tnode-collects")
	for _, row := range rows {
		c := row.Result.Core
		nodeCollects := "-"
		if len(c.NodeCollects) > 0 {
			nodeCollects = ""
			for i, n := range c.NodeCollects {
				if i > 0 {
					nodeCollects += "/"
				}
				nodeCollects += fmt.Sprintf("%d", n)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			row.Scenario, row.Routing, row.Result.Throughput, c.Collects,
			c.SweepRemoteFills, row.Result.Sim.RemoteLineFills,
			c.LocalShardClaims, c.RemoteShardClaims,
			c.StolenCollects+c.StolenSweeps, nodeCollects)
	}
	return tw.Flush()
}

// OverlapRow is one point of the concurrent-collect ablation (A9): one
// scenario at one node count, per-node collects serialized on the
// machine-wide reclamation lock vs running truly concurrently on the
// per-node collect slots.
type OverlapRow struct {
	Scenario string
	Nodes    int
	Mode     string // serialized | overlapped

	// CollectThroughput is reclaimed nodes — reclaimer sweeps plus
	// scanner help-frees — per virtual second: the collect-pipeline
	// capacity the per-node collect slots exist to scale.  With one
	// machine-wide lock it saturates at one pipeline's rate no matter
	// how many nodes retire; overlapped it should grow near-linearly
	// in the node count.
	CollectThroughput float64

	Result ScenarioResult
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

// AblationOverlap contrasts serialized against concurrent per-node
// collects across node counts (A9).  Defaults: per-node-reclaim (the
// symmetric routing shape, where collect throughput should scale
// near-linearly in nodes once collects overlap) and numa-skewed-retire
// (the single-retiring-node adversary, which cannot scale and checks
// that steal arbitration under overlap stays sound).  SweepParams pass
// through as in AblationNUMA; Cores is ignored (the sweep fixes four
// cores and four threads per node).
func AblationOverlap(scenarioNames []string, nodeCounts []int, p SweepParams) ([]OverlapRow, error) {
	if len(scenarioNames) == 0 {
		scenarioNames = []string{"per-node-reclaim", "numa-skewed-retire"}
	}
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 2, 4}
	}
	modes := []struct {
		name      string
		serialize bool
	}{
		{"serialized", true},
		{"overlapped", false},
	}
	var rows []OverlapRow
	for _, name := range scenarioNames {
		base, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown scenario %q", name)
		}
		if p.Duration > 0 {
			base = base.Scale(float64(p.Duration) / 50_000_000)
		}
		base.DS = "stack"
		base.Scheme = "threadscan"
		if p.Seed != 0 {
			base.Seed = p.Seed
		}
		if p.Quantum > 0 {
			base.Quantum = p.Quantum
		}
		for _, n := range nodeCounts {
			spec := overlapScale(base, n)
			for _, mode := range modes {
				s := spec
				s.SerializeCollects = mode.serialize
				r, err := RunScenario(s)
				if err != nil {
					return nil, err
				}
				ct := 0.0
				if r.Core != nil && r.VirtualSeconds > 0 {
					ct = float64(r.Core.Reclaimed+r.Core.HelpFreed) / r.VirtualSeconds
				}
				rows = append(rows, OverlapRow{
					Scenario: name, Nodes: n, Mode: mode.name,
					CollectThroughput: ct, Result: r,
				})
			}
		}
	}
	return rows, nil
}

// WriteOverlapTable renders the A9 ablation: collect throughput per
// node count with serialized and overlapped side by side, plus the
// overlap and steal evidence (overlapped collect count, stolen work,
// per-node collect balance).
func WriteOverlapTable(w io.Writer, rows []OverlapRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "# A9: concurrent per-node collects (stack/threadscan, 4 cores + 4 threads per node)")
	fmt.Fprintln(tw, "scenario\tnodes\tmode\tcollect-throughput\tcollects\toverlapped\tstolen\tops-throughput\tnode-collects")
	for _, row := range rows {
		c := row.Result.Core
		nodeCollects := "-"
		if len(c.NodeCollects) > 0 {
			nodeCollects = ""
			for i, n := range c.NodeCollects {
				if i > 0 {
					nodeCollects += "/"
				}
				nodeCollects += fmt.Sprintf("%d", n)
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.0f\t%d\t%d\t%d\t%.0f\t%s\n",
			row.Scenario, row.Nodes, row.Mode, row.CollectThroughput,
			c.Collects, c.OverlappedCollects,
			c.StolenCollects+c.StolenSweeps,
			row.Result.Throughput, nodeCollects)
	}
	return tw.Flush()
}

// AllocPoolRow is one point of the allocation-subsystem ablation (A8):
// one scenario under one allocator policy x retirement-routing regime
// on a multi-node machine.  The regimes tell the allocation-locality
// story in order: "global" is the single machine-wide pool (PR 4's end
// state — the sweep is node-local but a freed block is recycled by
// whichever node allocs next), "interleave" and "membind" are the
// numactl contrast points, and "localalloc" — with and without
// per-node retirement routing — is this layer's answer: per-node pools
// serve allocs node-locally and sweep-to-home routing returns every
// freed block to its resident node, closing the retire-on-N →
// collect-on-N → realloc-on-N loop.
type AllocPoolRow struct {
	Scenario string
	Policy   string // global | localalloc | membind | interleave
	Routing  string // global | pernode
	Result   ScenarioResult
}

// AblationAllocPool crosses allocator policies with retirement routing
// on the NUMA scenarios (default numa-split, the worst-case
// cross-socket shape, with realloc-local's closed loop as the second
// subject).  SweepParams pass through as in AblationNUMA: Duration
// normalizes against the 50ms CLI default, Seed and Quantum apply
// directly; Cores is ignored (the scenarios fix their own geometry).
func AblationAllocPool(scenarioNames []string, p SweepParams) ([]AllocPoolRow, error) {
	if len(scenarioNames) == 0 {
		scenarioNames = []string{"numa-split", "realloc-local"}
	}
	regimes := []struct {
		policy  string
		perNode bool
	}{
		{"global", false},
		{"global", true},
		{"interleave", true},
		{"membind", true},
		{"localalloc", false},
		{"localalloc", true},
	}
	var rows []AllocPoolRow
	for _, name := range scenarioNames {
		base, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown scenario %q", name)
		}
		if p.Duration > 0 {
			base = base.Scale(float64(p.Duration) / 50_000_000)
		}
		base.DS = "stack"
		base.Scheme = "threadscan"
		if p.Seed != 0 {
			base.Seed = p.Seed
		}
		if p.Quantum > 0 {
			base.Quantum = p.Quantum
		}
		// Pools need a topology and the routing needs claim units, the
		// same lift as A6/A7.
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
			spec.AllocPolicy = reg.policy
			spec.PerNode = reg.perNode
			r, err := RunScenario(spec)
			if err != nil {
				return nil, err
			}
			routing := "global"
			if reg.perNode {
				routing = "pernode"
			}
			rows = append(rows, AllocPoolRow{
				Scenario: name, Policy: reg.policy, Routing: routing, Result: r})
		}
	}
	return rows, nil
}

// WriteAllocPoolTable renders the A8 ablation: alloc-side locality
// (remote hand-outs and their charged fills), free routing
// (home/remote frees), the sweep-side fills A7 zeroes, and throughput
// per policy and routing regime.
func WriteAllocPoolTable(w io.Writer, rows []AllocPoolRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "# A8: NUMA allocation pools (stack/threadscan)")
	fmt.Fprintln(tw, "scenario\tpolicy\trouting\tthroughput\tremote-allocs\talloc-remote-fills\thome-frees\tremote-frees\tsweep-remote-fills\tremote-fills")
	for _, row := range rows {
		c := row.Result.Core
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\n",
			row.Scenario, row.Policy, row.Routing, row.Result.Throughput,
			row.Result.Heap.RemoteAllocs, row.Result.Sim.AllocRemoteFills,
			row.Result.Heap.HomeFrees, row.Result.Heap.RemoteFrees,
			c.SweepRemoteFills, row.Result.Sim.RemoteLineFills)
	}
	return tw.Flush()
}

// StallRow is one point of the errant-thread experiment (A4): the same
// application stall under Epoch vs ThreadScan.
type StallRow struct {
	Scheme string
	Result ScenarioResult
}

// AblationStall injects a periodically stalled thread (the first worker
// runs one empty operation stalled for stallCycles every stallEvery
// ops) and compares schemes.  Epoch reclaimers inherit the stall;
// ThreadScan's signal handler runs *inside* the stalled thread, so
// collects finish regardless — the paper's central liveness claim
// (§1.2, §2).  The stall is an *application* stall (StallKind "work"):
// the victim still reaches safepoints, so signals are delivered
// mid-stall.  Runs through the scenario engine and its declarative
// stall knobs — the same path the adversarial builtins use.
func AblationStall(p SweepParams, threads int, stallEvery int, stallCycles int64) ([]StallRow, error) {
	p.fill(3)
	if threads <= 0 {
		threads = p.Cores
	}
	if stallEvery <= 0 {
		stallEvery = 200
	}
	if stallCycles <= 0 {
		stallCycles = 2_000_000 // 2ms
	}
	duration := p.Duration
	if duration <= 0 {
		duration = 20_000_000
	}
	var rows []StallRow
	for _, scheme := range []string{"epoch", "threadscan"} {
		spec := workload.Scenario{
			Name:    "a4-errant-stall",
			DS:      "list",
			Scheme:  scheme,
			Threads: threads,
			Cores:   p.Cores,
			// The paper's list shape (§6), as baseConfig sizes it.
			KeyRange: 2048,
			Prefill:  1024,
			Seed:     p.Seed,
			Quantum:  p.Quantum,
			Phases: []workload.Phase{{
				Name: "stalled", Duration: duration,
				Mix: workload.Mix{InsertPct: 10, RemovePct: 10},
			}},
			StallEvery:   stallEvery,
			StallCycles:  stallCycles,
			StallVictims: 1,
			StallKind:    "work",
			// Small batches so reclamation happens often enough to
			// overlap the stall windows.
			Batch:      32,
			BufferSize: 64,
		}
		r, err := RunScenario(spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, StallRow{Scheme: scheme, Result: r})
	}
	return rows, nil
}

// WriteStallTable renders the A4 experiment.
func WriteStallTable(w io.Writer, rows []StallRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "# A4: errant stalled thread (list; first worker stalls mid-operation)")
	fmt.Fprintln(tw, "scheme\tthroughput\treclaim_passes\tgrace_wait_cycles\tfreed\tpeak_garbage")
	for _, row := range rows {
		st := row.Result.SchemeStats
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\t%d\t%d\n",
			row.Scheme, row.Result.Throughput, st.ReclaimPasses,
			st.GraceWaitCycles, st.Freed,
			row.Result.Footprint.ExactPeakRetiredNodes)
	}
	return tw.Flush()
}

// RobustRow is one point of the robustness ablation (A10): one scheme
// at one stall length on the stalled-scanner adversary.
type RobustRow struct {
	Scheme      string
	StallCycles int64
	Result      ScenarioResult
}

// AblationRobust is A10: the bounded-garbage contrast the robust
// family exists for.  A preempted reader (deaf to signals, parked
// mid-operation) holds its position for increasing stall lengths while
// the other workers churn; epoch's grace periods and ThreadScan's scan
// barrier both inherit the stall, so their exact peak retired garbage
// grows with it, while hyaline's per-batch reference counts let every
// batch the victim never entered free underneath it — its peak stays
// bounded, independent of stall length.  Default subject: the
// stalled-scanner builtin; SweepParams pass through as in
// AblationShards (Duration normalizes against the 50ms CLI default,
// Seed and Quantum apply directly; Cores is ignored — the scenario
// fixes its geometry).  The stall lengths are absolute (not scaled by
// Duration).
func AblationRobust(scenarioName string, stallCycles []int64, p SweepParams) ([]RobustRow, error) {
	if scenarioName == "" {
		scenarioName = "stalled-scanner"
	}
	if len(stallCycles) == 0 {
		stallCycles = []int64{1_000_000, 2_000_000, 6_000_000}
	}
	base, ok := workload.ByName(scenarioName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown scenario %q", scenarioName)
	}
	if p.Duration > 0 {
		base = base.Scale(float64(p.Duration) / 50_000_000)
	}
	base.DS = "list"
	if p.Seed != 0 {
		base.Seed = p.Seed
	}
	if p.Quantum > 0 {
		base.Quantum = p.Quantum
	}
	var rows []RobustRow
	for _, scheme := range []string{"epoch", "threadscan", "hyaline"} {
		for _, stall := range stallCycles {
			spec := base
			spec.Scheme = scheme
			spec.StallCycles = stall
			r, err := RunScenario(spec)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RobustRow{Scheme: scheme, StallCycles: stall, Result: r})
		}
	}
	return rows, nil
}

// WriteRobustTable renders the A10 ablation: the exact peak retired
// garbage (the robustness metric) against stall length per scheme,
// with the sampled peak alongside to show the aliasing the exact
// counter fixes.
func WriteRobustTable(w io.Writer, rows []RobustRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(rows) > 0 {
		fmt.Fprintf(tw, "# A10: bounded garbage under preemption (%s, list)\n", rows[0].Result.Name)
	}
	fmt.Fprintln(tw, "scheme\tstall_cycles\tthroughput\texact_peak_nodes\texact_peak_words\tsampled_peak_nodes\tfreed\tpending")
	for _, row := range rows {
		st := row.Result.SchemeStats
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%d\t%d\t%d\t%d\n",
			row.Scheme, row.StallCycles, row.Result.Throughput,
			row.Result.Footprint.ExactPeakRetiredNodes,
			row.Result.Footprint.ExactPeakRetiredWords,
			row.Result.Footprint.PeakRetiredNodes,
			st.Freed, st.Pending)
	}
	return tw.Flush()
}
