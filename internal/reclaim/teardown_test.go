package reclaim

import (
	"testing"
	"testing/quick"

	"threadscan/internal/core"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

// Teardown under churn: the PR 2 leak fixes (Epoch.Flush stealing
// other threads' retire lists, ThreadScan's flush draining live rings)
// were only ever tested against a *quiescent* thread set.  These tests
// run Flush while churned threads are still mid-collect: spawning,
// retiring, and exiting concurrently with the flusher, on the checked
// heap (any unsound free panics the run).

// TestEpochFlushDuringChurnedThreads: a closer repeatedly flushes
// while churn workers — spawned mid-run from a live parent — retire
// and exit underneath it.  A flush that runs between a worker's last
// Retire and its exit hook sees a registered thread with a non-empty
// retire list; one that races the exit hook sees fresh orphans.  Both
// must drain without leaks or double frees, and the final flush must
// leave nothing.
func TestEpochFlushDuringChurnedThreads(t *testing.T) {
	for _, seed := range []int64{3, 11, 23} {
		s := testSim(3, seed)
		e := NewEpoch(s, EpochConfig{Batch: 16})
		workersDone := 0
		const generations, perGen = 3, 2
		parent := make([]*simt.Thread, 0, generations*perGen)
		s.Spawn("spawner", func(th *simt.Thread) {
			for g := 0; g < generations; g++ {
				for j := 0; j < perGen; j++ {
					w := s.SpawnFrom(th, "churned", func(w *simt.Thread) {
						churn(e, w, 40)
						workersDone++
					})
					parent = append(parent, w)
				}
				th.Work(30_000)
			}
		})
		s.Spawn("closer", func(th *simt.Thread) {
			// Flush continuously while the churn is in flight — not
			// after it settles.
			for workersDone < generations*perGen {
				e.Flush(th)
				th.Work(5_000)
			}
			// The last workers may exit after our last mid-run flush;
			// wait for their exit hooks, then flush the remains.
			for {
				alive := false
				for _, w := range parent {
					if !w.Exited() {
						alive = true
					}
				}
				if !alive && len(parent) == generations*perGen {
					break
				}
				th.Pause()
			}
			if left := e.Flush(th); left != 0 {
				t.Errorf("seed %d: final flush left %d nodes", seed, left)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if live := s.Heap().Stats().LiveBlocks; live != 0 {
			t.Fatalf("seed %d: leaked %d blocks", seed, live)
		}
		st := e.Stats()
		if st.Retired != st.Freed {
			t.Fatalf("seed %d: retired %d freed %d", seed, st.Retired, st.Freed)
		}
	}
}

// TestThreadScanFlushDuringChurnedThreads: same shape through the
// ThreadScan core — FlushAll runs while churned threads fill rings,
// trigger their own collects, and exit (their buffers orphaned or, in
// per-node mode, routed by tag).  Classic, sharded, and per-node
// pipelines all must end empty.
func TestThreadScanFlushDuringChurnedThreads(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
		numa bool
	}{
		{"classic", core.Config{BufferSize: 16}, false},
		{"sharded-help", core.Config{BufferSize: 16, Shards: 8, HelpFree: true}, false},
		{"pernode", core.Config{BufferSize: 16, Shards: 8, HelpFree: true, PerNode: true}, true},
	}
	for _, tc := range cases {
		for _, seed := range []int64{5, 19} {
			cfg := simt.Config{
				Cores: 4, Quantum: 5_000, Seed: seed, Chaos: true,
				MaxCycles: 4_000_000_000,
				Heap:      simmem.Config{Words: 1 << 20, Check: true, Poison: true},
			}
			if tc.numa {
				cfg.Nodes = 2
				cfg.Chaos = false // pinning + chaos quantum jitter is slow; determinism suffices
			}
			s := simt.New(cfg)
			ts := NewThreadScan(s, tc.cfg)
			workersDone := 0
			const total = 6
			s.Spawn("spawner", func(th *simt.Thread) {
				for g := 0; g < 3; g++ {
					for j := 0; j < 2; j++ {
						w := s.SpawnFrom(th, "churned", func(w *simt.Thread) {
							churn(ts, w, 60)
							workersDone++
						})
						if tc.numa {
							w.Pin((g + j) % 2)
						}
					}
					th.Work(40_000)
				}
			})
			s.Spawn("closer", func(th *simt.Thread) {
				for workersDone < total {
					ts.Flush(th)
					th.Work(4_000)
				}
				// All workers have run; let exit hooks land, then drain.
				th.Work(50_000)
				if left := ts.Flush(th); left != 0 {
					t.Errorf("%s seed %d: final flush left %d", tc.name, seed, left)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if live := s.Heap().Stats().LiveBlocks; live != 0 {
				t.Fatalf("%s seed %d: leaked %d blocks", tc.name, seed, live)
			}
			if reg := ts.Core().RegisteredThreads(); reg != 0 {
				t.Fatalf("%s seed %d: %d threads still registered", tc.name, seed, reg)
			}
			st := ts.Stats()
			if st.Retired != st.Freed {
				t.Fatalf("%s seed %d: retired %d freed %d pending %d",
					tc.name, seed, st.Retired, st.Freed, st.Pending)
			}
		}
	}
}

// TestQuickFlushConcurrentWithChurnAllSchemes (property): random
// seeds, every reclaiming scheme, a flusher hammering Flush while
// churned threads live and die.  The checked heap rejects any unsound
// free; the accounting rejects any leak.
func TestQuickFlushConcurrentWithChurnAllSchemes(t *testing.T) {
	f := func(seedRaw uint8, schemeRaw uint8) bool {
		seed := int64(seedRaw) + 1
		name := reclaimingSchemes[int(schemeRaw)%len(reclaimingSchemes)]
		s := simt.New(simt.Config{
			Cores: 2, Quantum: 3_000, Seed: seed, Chaos: true,
			MaxCycles: 4_000_000_000,
			Heap:      simmem.Config{Words: 1 << 19, Check: true, Poison: true},
		})
		sc := makeScheme(name, s)
		workersDone := 0
		const total = 4
		s.Spawn("spawner", func(th *simt.Thread) {
			for g := 0; g < 2; g++ {
				for j := 0; j < 2; j++ {
					s.SpawnFrom(th, "churned", func(w *simt.Thread) {
						churn(sc, w, 25)
						workersDone++
					})
				}
				th.Work(20_000)
			}
		})
		flushLeft := -1
		s.Spawn("closer", func(th *simt.Thread) {
			for workersDone < total {
				sc.Flush(th)
				th.Work(2_000)
			}
			th.Work(30_000)
			flushLeft = sc.Flush(th)
		})
		if err := s.Run(); err != nil {
			t.Logf("%s seed %d: %v", name, seed, err)
			return false
		}
		if flushLeft != 0 {
			t.Logf("%s seed %d: flush left %d", name, seed, flushLeft)
			return false
		}
		if live := s.Heap().Stats().LiveBlocks; live != 0 {
			t.Logf("%s seed %d: leaked %d", name, seed, live)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
