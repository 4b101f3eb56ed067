package workload

import (
	"math/rand"
	"testing"

	"threadscan/internal/ds"
)

func TestMixPick(t *testing.T) {
	m := Mix{InsertPct: 10, RemovePct: 20}
	counts := map[Op]int{}
	for r := 0; r < 100; r++ {
		counts[m.Pick(r)]++
	}
	if counts[OpInsert] != 10 || counts[OpRemove] != 20 || counts[OpLookup] != 70 {
		t.Fatalf("mix partition: %v", counts)
	}
}

func TestScenarioFillValidates(t *testing.T) {
	s := Scenario{}
	if err := s.Fill(); err != nil {
		t.Fatal(err)
	}
	if s.TotalDuration() <= 0 || len(s.Phases) == 0 || s.SampleEvery <= 0 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	bad := Scenario{Phases: []Phase{{Mix: Mix{InsertPct: 80, RemovePct: 40}}}}
	if err := bad.Fill(); err == nil {
		t.Fatal("mix over 100% accepted")
	}
	late := Scenario{
		Phases: []Phase{{Duration: 1000}},
		Churn:  &Churn{Workers: 1, Generations: 2, Stagger: 800, Life: 800},
	}
	if err := late.Fill(); err == nil {
		t.Fatal("churn outliving the run accepted")
	}
}

func keyStats(t *testing.T, d Dist, n uint64, draws int) map[uint64]int {
	t.Helper()
	g := NewKeyGen(d, n, rand.New(rand.NewSource(7)))
	counts := map[uint64]int{}
	for i := 0; i < draws; i++ {
		k := g.Key(float64(i) / float64(draws))
		if k < ds.MinKey || k >= ds.MinKey+n {
			t.Fatalf("key %d out of range [%d,%d)", k, ds.MinKey, ds.MinKey+n)
		}
		counts[k]++
	}
	return counts
}

func TestUniformCoversRange(t *testing.T) {
	counts := keyStats(t, Dist{}, 256, 20_000)
	if len(counts) < 250 {
		t.Fatalf("uniform hit only %d of 256 keys", len(counts))
	}
}

func TestZipfConcentrates(t *testing.T) {
	const n, draws = 1024, 20_000
	counts := keyStats(t, Dist{Kind: DistZipf, Theta: 1.3}, n, draws)
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Under theta=1.3 the hottest key takes a large constant fraction;
	// under uniform it would get ~draws/n ≈ 20.
	if max < draws/10 {
		t.Fatalf("zipf hottest key only %d of %d draws", max, draws)
	}
}

func TestHotspotRespectsSplit(t *testing.T) {
	const n, draws = 1024, 40_000
	d := Dist{Kind: DistHotspot, HotPct: 90, HotFrac: 0.1}
	counts := keyStats(t, d, n, draws)
	// The hot set is the scrambled image of indices [0, n/10).
	hot := map[uint64]bool{}
	for i := uint64(0); i < n/10; i++ {
		hot[ds.MinKey+scramble(i, n)] = true
	}
	hotDraws := 0
	for k, c := range counts {
		if hot[k] {
			hotDraws += c
		}
	}
	frac := float64(hotDraws) / draws
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction %.3f, want ~0.90", frac)
	}
}

func TestWindowSlides(t *testing.T) {
	const n = 1024
	d := Dist{Kind: DistWindow, WindowFrac: 0.125, Sweeps: 1}
	g := NewKeyGen(d, n, rand.New(rand.NewSource(3)))
	early, late := map[uint64]bool{}, map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		early[g.Key(0.0)] = true
		late[g.Key(0.5)] = true
	}
	for k := range early {
		if late[k] {
			t.Fatalf("windows at frac 0.0 and 0.5 overlap at key %d", k)
		}
	}
	if len(early) > n/8+1 || len(late) > n/8+1 {
		t.Fatalf("window wider than WindowFrac: %d / %d keys", len(early), len(late))
	}
}

// TestWindowKeyMatchesModFormula pins the sliding window's
// compare-and-reduce arithmetic to the plain % n formula it replaces,
// draw for draw, over seeds, positions in the phase and window sizes
// (the builtins' 1/8 of 1024 keys among them, plus one-key and
// full-range windows and sweeps that wrap more than once).
func TestWindowKeyMatchesModFormula(t *testing.T) {
	fracs := []float64{-0.5, 0, 1e-9, 0.1, 0.2499, 0.25, 0.4999, 0.5, 0.5001, 0.75, 0.9375, 0.999999, 1, 1.7}
	for _, n := range []uint64{1, 3, 1000, 1024, 4096, 1 << 16} {
		for _, wf := range []float64{0.125, 1e-9, 0.5, 1} {
			for _, sweeps := range []float64{1, 2, 3.5} {
				for seed := int64(1); seed <= 4; seed++ {
					d := Dist{Kind: DistWindow, WindowFrac: wf, Sweeps: sweeps}
					g := NewKeyGen(d, n, rand.New(rand.NewSource(seed)))
					ref := rand.New(rand.NewSource(seed))
					for i := 0; i < 40; i++ {
						frac := fracs[i%len(fracs)]
						got := g.Key(frac)
						if frac < 0 {
							frac = 0
						}
						start := uint64(frac*g.d.Sweeps*float64(n)) % n
						want := ds.MinKey + (start+uint64(ref.Int63n(int64(g.winN))))%n
						if got != want {
							t.Fatalf("n=%d frac=%v window=%v sweeps=%v seed=%d draw %d: key %d, %% formula %d",
								n, frac, wf, sweeps, seed, i, got, want)
						}
					}
				}
			}
		}
	}
}

func TestScrambleBijectiveOnPow2(t *testing.T) {
	const n = 512
	seen := map[uint64]bool{}
	for i := uint64(0); i < n; i++ {
		seen[scramble(i, n)] = true
	}
	if len(seen) != n {
		t.Fatalf("scramble collides on power-of-two range: %d of %d", len(seen), n)
	}
}

func TestBuiltinsCoverRequiredShapes(t *testing.T) {
	b := Builtins()
	if len(b) < 6 {
		t.Fatalf("only %d built-in scenarios", len(b))
	}
	names := map[string]bool{}
	oversub := 0
	for i := range b {
		s := b[i]
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		if err := s.Fill(); err != nil {
			t.Fatalf("builtin %s invalid: %v", s.Name, err)
		}
		if s.Threads > s.Cores {
			oversub++
		}
	}
	for _, want := range []string{"zipfian-skew", "delete-storm", "thread-churn"} {
		if !names[want] {
			t.Fatalf("missing required scenario %q", want)
		}
	}
	if oversub < 2 {
		t.Fatalf("want >=2 oversubscribed variants, got %d", oversub)
	}
	if s, ok := ByName("thread-churn"); !ok || s.Churn == nil {
		t.Fatal("thread-churn must carry a churn spec")
	}
	if len(Names()) != len(b) {
		t.Fatal("Names()/Builtins() disagree")
	}
}

func TestTraceDigestOrderSensitive(t *testing.T) {
	a, b := NewTrace(), NewTrace()
	a.Record(OpInsert, 5, true)
	a.Record(OpRemove, 5, true)
	b.Record(OpRemove, 5, true)
	b.Record(OpInsert, 5, true)
	if a.Sum() == b.Sum() {
		t.Fatal("trace digest ignores op order")
	}
	if a.Ops() != 2 {
		t.Fatalf("ops = %d", a.Ops())
	}
	if CombineTraces([]uint64{a.Sum(), b.Sum()}) == CombineTraces([]uint64{b.Sum(), a.Sum()}) {
		t.Fatal("combined digest ignores worker order")
	}
}

func TestScaleStretchesDurations(t *testing.T) {
	s, _ := ByName("thread-churn")
	if err := s.Fill(); err != nil {
		t.Fatal(err)
	}
	d0, st0 := s.TotalDuration(), s.Churn.Stagger
	scaled := s.Scale(2)
	if scaled.TotalDuration() != 2*d0 || scaled.Churn.Stagger != 2*st0 {
		t.Fatalf("scale: %d->%d, stagger %d->%d", d0, scaled.TotalDuration(), st0, scaled.Churn.Stagger)
	}
	if s.TotalDuration() != d0 {
		t.Fatal("Scale mutated the original")
	}
}

func TestPinPolicyPartitionsWorkers(t *testing.T) {
	s := Scenario{Threads: 8, Cores: 8, Nodes: 2}
	if err := s.Fill(); err != nil {
		t.Fatal(err)
	}
	// No policy: nobody pinned.
	for i := 0; i < s.Threads; i++ {
		if s.WorkerNode(i) != -1 {
			t.Fatalf("unpinned policy pins worker %d to %d", i, s.WorkerNode(i))
		}
	}
	// rr interleaves; split assigns contiguous blocks.  Both must map
	// every worker to an in-range node and use every node.
	for _, pin := range []string{"rr", "split"} {
		s.PinPolicy = pin
		used := map[int]int{}
		for i := 0; i < s.Threads; i++ {
			n := s.WorkerNode(i)
			if n < 0 || n >= s.Nodes {
				t.Fatalf("%s: worker %d -> node %d out of range", pin, i, n)
			}
			used[n]++
		}
		if len(used) != s.Nodes {
			t.Fatalf("%s: only %d of %d nodes used", pin, len(used), s.Nodes)
		}
		if used[0] != used[1] {
			t.Fatalf("%s: unbalanced pinning %v", pin, used)
		}
	}
	s.PinPolicy = "split"
	if s.WorkerNode(0) != 0 || s.WorkerNode(3) != 0 || s.WorkerNode(4) != 1 || s.WorkerNode(7) != 1 {
		t.Fatal("split does not assign contiguous halves")
	}
}

func TestWorkerMixGroups(t *testing.T) {
	s := Scenario{Threads: 8, Cores: 8,
		WorkerMix: []Mix{{InsertPct: 80}, {RemovePct: 80}}}
	if err := s.Fill(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if m := s.WorkerGroupMix(i); m == nil || m.InsertPct != 80 {
			t.Fatalf("worker %d not in producer group: %+v", i, m)
		}
	}
	for i := 4; i < 8; i++ {
		if m := s.WorkerGroupMix(i); m == nil || m.RemovePct != 80 {
			t.Fatalf("worker %d not in consumer group: %+v", i, m)
		}
	}
	if s.WorkerGroupMix(100) != nil {
		t.Fatal("out-of-range worker got a mix")
	}
	none := Scenario{Threads: 4, Cores: 4}
	if err := none.Fill(); err != nil {
		t.Fatal(err)
	}
	if none.WorkerGroupMix(0) != nil {
		t.Fatal("scenario without WorkerMix handed out an override")
	}
}

func TestFillRejectsUnknownLookup(t *testing.T) {
	for _, name := range []string{"", "binary", "linear", "hash"} {
		s := Scenario{Lookup: name}
		if err := s.Fill(); err != nil {
			t.Errorf("lookup %q rejected: %v", name, err)
		}
	}
	bad := Scenario{Lookup: "btree"}
	if err := bad.Fill(); err == nil {
		t.Fatal("unknown scan lookup accepted")
	}
}

func TestTopologyKnobValidation(t *testing.T) {
	bad := Scenario{PinPolicy: "diagonal"}
	if err := bad.Fill(); err == nil {
		t.Fatal("bad pin policy accepted")
	}
	bad = Scenario{ClaimPolicy: "greedy"}
	if err := bad.Fill(); err == nil {
		t.Fatal("bad claim policy accepted")
	}
	bad = Scenario{Threads: 2, WorkerMix: []Mix{{}, {}, {}}}
	if err := bad.Fill(); err == nil {
		t.Fatal("more mix groups than workers accepted")
	}
	bad = Scenario{WorkerMix: []Mix{{InsertPct: 90, RemovePct: 90}}}
	if err := bad.Fill(); err == nil {
		t.Fatal("overfull worker mix accepted")
	}
	clamp := Scenario{Threads: 4, Cores: 2, Nodes: 8}
	if err := clamp.Fill(); err != nil {
		t.Fatal(err)
	}
	if clamp.Nodes != 2 {
		t.Fatalf("Nodes not clamped to cores: %d", clamp.Nodes)
	}
	numa, ok := ByName("numa-split")
	if !ok {
		t.Fatal("numa-split builtin missing")
	}
	if err := numa.Fill(); err != nil {
		t.Fatal(err)
	}
	if numa.Nodes != 2 || numa.PinPolicy != "split" || len(numa.WorkerMix) != 2 {
		t.Fatalf("numa-split topology: %d/%s/%d mixes", numa.Nodes, numa.PinPolicy, len(numa.WorkerMix))
	}
}

// TestValueLedgerConservation: the per-element LIFO/FIFO ledger — a
// value may pop as often as prefill plus pushes allow, one more is a
// violation (the signature of a double free resurfacing an element).
func TestValueLedgerConservation(t *testing.T) {
	a, b := NewValueLedger(), NewValueLedger()
	a.Push(7)
	a.Pop(7)
	b.Push(7)
	b.Pop(7)
	b.Pop(9) // covered by prefill only
	m := MergeValueLedgers([]*ValueLedger{a, nil, b})
	if msg := m.CheckConservation(func(v uint64) int {
		if v == 9 {
			return 1
		}
		return 0
	}); msg != "" {
		t.Fatalf("conserved history flagged: %s", msg)
	}
	// One pop too many on value 7: two pushes, three pops, no prefill.
	m.Pop(7)
	msg := m.CheckConservation(func(uint64) int { return 0 })
	if msg == "" {
		t.Fatal("over-pop not flagged")
	}
	// ...and value 9 now also exceeds its zero prefill.
	if want := "2 value(s)"; len(msg) == 0 || msg[:len(want)] != want {
		t.Fatalf("violation message %q does not count both values", msg)
	}
}
