package harness

import (
	"testing"

	"threadscan/internal/workload"
)

// tinyScenario keeps unit runs fast: short phases, few threads.
func tinyScenario(ds, scheme string) workload.Scenario {
	return workload.Scenario{
		Name:     "tiny",
		DS:       ds,
		Scheme:   scheme,
		Threads:  3,
		Cores:    2,
		KeyRange: 256, Prefill: 128,
		Seed:       1,
		BufferSize: 64, Batch: 64,
		Quantum: 20_000,
		Phases: []workload.Phase{
			{Name: "a", Duration: 400_000, Mix: workload.Mix{InsertPct: 20, RemovePct: 20}},
			{Name: "b", Duration: 400_000, Mix: workload.Mix{InsertPct: 5, RemovePct: 60},
				Dist: workload.Dist{Kind: workload.DistZipf, Theta: 1.3}},
		},
	}
}

func TestRunScenarioBasics(t *testing.T) {
	for _, ds := range []string{"list", "stack", "queue"} {
		for _, scheme := range []string{"leaky", "epoch", "threadscan"} {
			ds, scheme := ds, scheme
			t.Run(ds+"/"+scheme, func(t *testing.T) {
				r, err := RunScenario(tinyScenario(ds, scheme))
				if err != nil {
					t.Fatal(err)
				}
				if r.Ops == 0 || r.Throughput <= 0 {
					t.Fatalf("empty result: ops=%d tput=%f", r.Ops, r.Throughput)
				}
				if n := len(findSeries(t, r.Metrics, "garbage_nodes").Points); n < 4 {
					t.Fatalf("footprint barely sampled: %d points", n)
				}
				st := r.SchemeStats
				if scheme == "leaky" {
					// Leaky's garbage only grows; the final sample must
					// hold the whole graveyard.
					if st.Retired == 0 || r.Footprint.FinalRetiredNodes != st.Retired {
						t.Fatalf("leaky garbage accounting: %+v vs %+v", st, r.Footprint)
					}
				} else {
					if st.Retired != st.Freed {
						t.Fatalf("retired %d != freed %d after flush", st.Retired, st.Freed)
					}
					if r.Footprint.FinalRetiredNodes != 0 {
						t.Fatalf("final garbage %d, want 0", r.Footprint.FinalRetiredNodes)
					}
				}
				if st.Retired > 0 && r.Footprint.PeakRetiredNodes == 0 {
					t.Fatal("peak garbage never observed despite retirements")
				}
			})
		}
	}
}

func TestRunScenarioDeterministicTrace(t *testing.T) {
	for _, ds := range []string{"list", "queue"} {
		ds := ds
		t.Run(ds, func(t *testing.T) {
			spec := tinyScenario(ds, "threadscan")
			spec.Churn = &workload.Churn{Workers: 2, Generations: 2}
			a, err := RunScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			if a.TraceHash != b.TraceHash || a.Ops != b.Ops {
				t.Fatalf("same seed diverged: %x/%d vs %x/%d",
					a.TraceHash, a.Ops, b.TraceHash, b.Ops)
			}
			spec.Seed = 2
			c, err := RunScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			if c.TraceHash == a.TraceHash {
				t.Fatal("different seed produced an identical op trace")
			}
		})
	}
}

// TestRunScenarioChurn is the churn acceptance test: mid-run worker
// exit and spawn on the checked heap must produce zero violations (any
// violation fails Run) and zero leaked registrations, and the scheme
// must still reclaim everything.
func TestRunScenarioChurn(t *testing.T) {
	for _, ds := range []string{"list", "stack", "queue"} {
		ds := ds
		t.Run(ds, func(t *testing.T) {
			spec := tinyScenario(ds, "threadscan")
			spec.Name = "churn-unit"
			spec.Phases = []workload.Phase{{
				Name: "churny", Duration: 1_200_000,
				Mix: workload.Mix{InsertPct: 20, RemovePct: 20},
			}}
			spec.Churn = &workload.Churn{Workers: 2, Generations: 3}
			r, err := RunScenario(spec)
			if err != nil {
				t.Fatal(err) // a heap violation would surface here
			}
			if r.ChurnWorkers != 6 {
				t.Fatalf("churned %d workers, want 6", r.ChurnWorkers)
			}
			if r.LeakedRegistrations != 0 {
				t.Fatalf("leaked %d registrations", r.LeakedRegistrations)
			}
			st := r.SchemeStats
			if st.Retired != st.Freed {
				t.Fatalf("retired %d != freed %d", st.Retired, st.Freed)
			}
		})
	}
}

// TestScenarioEpochTeardownClean is the teardown-leak regression: under
// thread churn, epoch's Flush (run by one worker) must drain every
// still-registered thread's retire list, not just the flusher's own —
// anything left shows up as phantom FinalRetiredNodes.
func TestScenarioEpochTeardownClean(t *testing.T) {
	churn, ok := workload.ByName("thread-churn")
	if !ok {
		t.Fatal("thread-churn builtin missing")
	}
	spec := churn.Scale(0.5)
	spec.DS = "list"
	spec.Scheme = "epoch"
	r, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Footprint.FinalRetiredNodes != 0 {
		t.Fatalf("epoch teardown leaked %d nodes", r.Footprint.FinalRetiredNodes)
	}
	st := r.SchemeStats
	if st.Retired != st.Freed {
		t.Fatalf("retired %d != freed %d after flush", st.Retired, st.Freed)
	}
	if r.AccountingError != "" {
		t.Fatalf("accounting error: %s", r.AccountingError)
	}
}

// TestScenarioGarbageContrast checks the robustness metric does its
// job: under a delete-heavy phase, leaky's peak unreclaimed garbage
// must dwarf threadscan's, and threadscan's peak must stay within the
// same order as its buffering capacity.
func TestScenarioGarbageContrast(t *testing.T) {
	// Long enough that leaky's graveyard outgrows a reclaiming
	// scheme's transient buffer occupancy by a wide margin.
	storm := func(scheme string) workload.Scenario {
		spec := tinyScenario("list", scheme)
		spec.Phases = []workload.Phase{{
			Name: "storm", Duration: 4_000_000,
			Mix: workload.Mix{InsertPct: 30, RemovePct: 40},
		}}
		return spec
	}
	leaky, err := RunScenario(storm("leaky"))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := RunScenario(storm("threadscan"))
	if err != nil {
		t.Fatal(err)
	}
	if leaky.Footprint.PeakRetiredNodes <= 2*ts.Footprint.PeakRetiredNodes {
		t.Fatalf("robustness metric shows no contrast: leaky peak %d, threadscan peak %d",
			leaky.Footprint.PeakRetiredNodes, ts.Footprint.PeakRetiredNodes)
	}
}

func TestRunScenarioOversubscribed(t *testing.T) {
	spec := tinyScenario("stack", "threadscan")
	spec.Threads = 8
	spec.Cores = 2
	r, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 {
		t.Fatal("no ops under oversubscription")
	}
	if r.LeakedRegistrations != 0 {
		t.Fatalf("leaked registrations: %d", r.LeakedRegistrations)
	}
}

func TestRunScenarioRejectsUnknown(t *testing.T) {
	if _, err := RunScenario(workload.Scenario{DS: "btree"}); err == nil {
		t.Error("unknown ds accepted")
	}
	if _, err := RunScenario(workload.Scenario{Scheme: "magic"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestBuiltinSuiteQuick runs every built-in scenario shape (briefly,
// scaled down) on one structure/scheme pair to keep the suite honest.
func TestBuiltinSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep skipped in -short")
	}
	for _, base := range workload.Builtins() {
		base := base
		t.Run(base.Name, func(t *testing.T) {
			spec := base.Scale(0.25)
			spec.DS = "stack"
			spec.Scheme = "threadscan"
			r, err := RunScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.Ops == 0 {
				t.Fatal("no ops")
			}
			if spec.Churn != nil && r.ChurnWorkers == 0 {
				t.Fatal("churn scenario churned nobody")
			}
		})
	}
}

// TestRunScenarioLargeHashArena: a hash scenario whose bucket array
// alone exceeds 64k words must size its arena from the spec and run
// (an earlier draft probed the structure on a tiny throwaway heap and
// panicked here).
func TestRunScenarioLargeHashArena(t *testing.T) {
	spec := tinyScenario("hash", "threadscan")
	spec.KeyRange = 1 << 21
	spec.Prefill = 4096
	spec.HeapWords = 1 << 21 // modest arena; the buggy probe ignored this
	spec.Phases = spec.Phases[:1]
	spec.Phases[0].Duration = 200_000
	r, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 {
		t.Fatal("no ops")
	}
}
