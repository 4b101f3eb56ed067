package threadscan_test

import (
	"errors"
	"testing"

	"threadscan"
)

// Facade-level integration tests: everything a downstream user touches
// goes through the public package.

func newSim(seed int64) *threadscan.Sim {
	return threadscan.NewSimulation(threadscan.SimConfig{
		Cores:     2,
		Seed:      seed,
		MaxCycles: 10_000_000_000,
		Heap:      threadscan.HeapConfig{Words: 1 << 20, Check: true, Poison: true},
	})
}

func TestQuickstartShape(t *testing.T) {
	sim := newSim(1)
	ts := threadscan.New(sim, threadscan.Config{BufferSize: 32})
	list := threadscan.NewList(sim, ts, 0)
	finished := 0
	for i := 0; i < 3; i++ {
		sim.Spawn("w", func(th *threadscan.Thread) {
			rng := th.RNG()
			for j := 0; j < 400; j++ {
				key := uint64(rng.Intn(128)) + 1
				switch rng.Intn(3) {
				case 0:
					list.Insert(th, key)
				case 1:
					list.Remove(th, key)
				default:
					list.Contains(th, key)
				}
			}
			finished++
			if finished == 3 {
				ts.Flush(th)
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := ts.Core().Stats()
	if st.Frees == 0 || st.Collects == 0 {
		t.Fatalf("no reclamation activity: %+v", st)
	}
	if st.Frees != st.Reclaimed+uint64(ts.Core().Buffered()) {
		t.Fatalf("free accounting broken: %+v buffered=%d", st, ts.Core().Buffered())
	}
}

func TestViolationTypeSurfaces(t *testing.T) {
	sim := newSim(2)
	sim.Spawn("bad", func(th *threadscan.Thread) {
		th.Alloc(0, 32)
		th.FreeAddr(th.Reg(0))
		th.Load(1, 0, 0)
	})
	err := sim.Run()
	var v *threadscan.Violation
	if !errors.As(err, &v) {
		t.Fatalf("facade did not surface *Violation: %v", err)
	}
}

func TestAllConstructorsOnHashTable(t *testing.T) {
	builders := []struct {
		name  string
		build func(*threadscan.Sim) threadscan.Scheme
	}{
		{"leaky", func(s *threadscan.Sim) threadscan.Scheme { return threadscan.NewLeaky(s) }},
		{"hazard", func(s *threadscan.Sim) threadscan.Scheme {
			return threadscan.NewHazard(s, threadscan.HazardConfig{Slots: 4, Batch: 32})
		}},
		{"epoch", func(s *threadscan.Sim) threadscan.Scheme {
			return threadscan.NewEpoch(s, threadscan.EpochConfig{Batch: 32})
		}},
		{"slow-epoch", func(s *threadscan.Sim) threadscan.Scheme {
			return threadscan.NewSlowEpoch(s, 32, 50_000)
		}},
		{"threadscan", func(s *threadscan.Sim) threadscan.Scheme {
			return threadscan.New(s, threadscan.Config{BufferSize: 32})
		}},
		{"stacktrack", func(s *threadscan.Sim) threadscan.Scheme {
			return threadscan.NewStackTrack(s, threadscan.StackTrackConfig{Batch: 32})
		}},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			sim := newSim(3)
			sc := b.build(sim)
			h := threadscan.NewHashTable(sim, sc, 8, 0)
			sim.Spawn("w", func(th *threadscan.Thread) {
				for k := uint64(1); k <= 64; k++ {
					if !h.Insert(th, k) {
						t.Errorf("insert %d failed", k)
					}
				}
				for k := uint64(1); k <= 64; k += 2 {
					if !h.Remove(th, k) {
						t.Errorf("remove %d failed", k)
					}
				}
				for r := 0; r < 16; r++ {
					th.SetReg(r, 0)
				}
				sc.Flush(th)
			})
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if h.Len() != 32 {
				t.Fatalf("len = %d", h.Len())
			}
			st := sc.Stats()
			if b.name == "leaky" {
				if st.Leaked != 32 {
					t.Fatalf("leaky stats: %+v", st)
				}
			} else if st.Retired != 32 || st.Freed != 32 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

func TestSkipListViaFacade(t *testing.T) {
	sim := newSim(5)
	sc := threadscan.NewHazard(sim, threadscan.HazardConfig{
		Slots: threadscan.SkipListHazardSlots, Batch: 16})
	sl := threadscan.NewSkipList(sim, sc)
	sim.Spawn("w", func(th *threadscan.Thread) {
		for k := uint64(1); k <= 100; k++ {
			sl.Insert(th, k)
		}
		for k := uint64(1); k <= 100; k++ {
			if !sl.Contains(th, k) {
				t.Errorf("lost key %d", k)
			}
		}
		for k := uint64(2); k <= 100; k += 2 {
			sl.Remove(th, k)
		}
		for r := 0; r < 16; r++ {
			th.SetReg(r, 0)
		}
		sc.Flush(th)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sl.Len() != 50 {
		t.Fatalf("len = %d", sl.Len())
	}
}

func TestExperimentFacade(t *testing.T) {
	s := threadscan.PaperScenario("hash", threadscan.SweepParams{
		Scale: threadscan.ScaleQuick, Duration: 1_000_000, Seed: 1})
	s.Scheme, s.Threads, s.Cores = "threadscan", 2, 2
	s.KeyRange, s.Prefill, s.Buckets = 256, 128, 8
	s.BufferSize, s.Batch = 64, 64
	r, err := threadscan.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.FinalSize == 0 {
		t.Fatalf("empty experiment result: %+v", r)
	}
	if r.Name != "paper-uniform" || r.DS != "hash" || r.Threads != 2 {
		t.Fatalf("paper scenario identity: %s %s/%s t=%d", r.Name, r.DS, r.Scheme, r.Threads)
	}
}

func TestFigureFacade(t *testing.T) {
	fig, err := threadscan.RunFig3("list", threadscan.SweepParams{
		Scale:        threadscan.ScaleQuick,
		ThreadCounts: []int{1},
		Cores:        1,
		Duration:     500_000,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) == 0 || len(fig.Series[0].Results) != 1 {
		t.Fatalf("figure shape: %+v", fig)
	}
}

func TestStackQueueViaFacade(t *testing.T) {
	sim := newSim(6)
	ts := threadscan.New(sim, threadscan.Config{BufferSize: 32})
	st := threadscan.NewStack(sim, ts, 0)
	q := threadscan.NewQueue(sim, ts, 0)
	sim.Spawn("w", func(th *threadscan.Thread) {
		for v := uint64(1); v <= 100; v++ {
			st.Push(th, v)
			q.Enqueue(th, v)
		}
		for v := uint64(100); v >= 51; v-- {
			if got, ok := st.Pop(th); !ok || got != v {
				t.Errorf("Pop = %d,%v want %d (LIFO)", got, ok, v)
			}
		}
		for v := uint64(1); v <= 50; v++ {
			if got, ok := q.Dequeue(th); !ok || got != v {
				t.Errorf("Dequeue = %d,%v want %d (FIFO)", got, ok, v)
			}
		}
		for r := 0; r < 16; r++ {
			th.SetReg(r, 0)
		}
		ts.Flush(th)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 50 || q.Len() != 50 {
		t.Fatalf("lens: stack %d queue %d", st.Len(), q.Len())
	}
	if stats := ts.Stats(); stats.Retired != stats.Freed {
		t.Fatalf("reclaim accounting: %+v", stats)
	}
}

func TestScenarioFacade(t *testing.T) {
	if n := len(threadscan.BuiltinScenarios()); n < 6 {
		t.Fatalf("only %d built-in scenarios", n)
	}
	spec, ok := threadscan.ScenarioByName("zipfian-skew")
	if !ok {
		t.Fatal("zipfian-skew missing")
	}
	spec = spec.Scale(0.1)
	spec.DS = "queue"
	spec.Scheme = "threadscan"
	spec.Threads, spec.Cores = 2, 2
	r, err := threadscan.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.TraceHash == 0 {
		t.Fatalf("empty scenario result: %+v", r)
	}
	if r.Footprint.FinalRetiredNodes != 0 {
		t.Fatalf("garbage left after flush: %d", r.Footprint.FinalRetiredNodes)
	}
}

func TestWorkloadTargetFacade(t *testing.T) {
	sim := newSim(7)
	sc := threadscan.NewLeaky(sim)
	target, err := threadscan.WorkloadTargetFor(threadscan.NewList(sim, sc, 0))
	if err != nil {
		t.Fatal(err)
	}
	sim.Spawn("w", func(th *threadscan.Thread) {
		if !target.Apply(th, threadscan.OpInsert, 9) {
			t.Error("insert via target failed")
		}
		if !target.Apply(th, threadscan.OpLookup, 9) {
			t.Error("lookup via target failed")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if target.Size() != 1 {
		t.Fatalf("target size %d", target.Size())
	}
}

func TestKeyBoundsExported(t *testing.T) {
	if threadscan.MinKey != 1 || threadscan.MaxKey <= threadscan.MinKey {
		t.Fatalf("key bounds: %d..%d", threadscan.MinKey, threadscan.MaxKey)
	}
	if threadscan.DefaultCosts().Fence == 0 {
		t.Fatal("cost model empty")
	}
}
