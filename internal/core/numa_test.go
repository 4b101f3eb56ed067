package core

import (
	"testing"
	"testing/quick"

	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

// NUMA shard affinity: home election, claim accounting, and the
// interaction of mid-run thread churn (simt.SpawnFrom) with the
// sharded collect pipeline.

func numaSim(cores, nodes int, seed int64) *simt.Sim {
	return simt.New(simt.Config{
		Cores: cores, Nodes: nodes, Quantum: 10_000, Seed: seed,
		MaxCycles: 60_000_000_000,
		Heap:      simmem.Config{Words: 1 << 20, Check: true, Poison: true},
	})
}

// TestChurnedThreadsInheritHomeAndVote (the SpawnFrom x sharded-collect
// interaction): threads spawned mid-run from a pinned parent must
// inherit its node, and their retires must appear in shard-affinity
// accounting — every shard that received only their addresses is homed
// on the inherited node.
func TestChurnedThreadsInheritHomeAndVote(t *testing.T) {
	s := numaSim(4, 2, 1)
	ts := New(s, Config{BufferSize: 256, Shards: 8})

	// The parent is pinned to node 1 and spawns every retiring worker
	// mid-run; nobody else calls Free, so all shard votes come from
	// inherited-node threads.
	var inherited []int
	collector := s.Spawn("collector", func(th *simt.Thread) {
		th.Work(400_000) // let the churned workers retire first
		ts.Collect(th)
	})
	collector.Pin(0)
	parent := s.Spawn("parent", func(th *simt.Thread) {
		for w := 0; w < 3; w++ {
			c := s.SpawnFrom(th, "churned", func(c *simt.Thread) {
				inherited = append(inherited, c.Pinned())
				churn(ts, c, 40)
			})
			if c.Pinned() != 1 {
				t.Errorf("churned worker pinned to %d at spawn, want 1", c.Pinned())
			}
			th.Work(10_000)
		}
		th.Work(300_000) // keep the domain membership stable through the collect
	})
	parent.Pin(1)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if len(inherited) != 3 {
		t.Fatalf("spawned %d churned workers, want 3", len(inherited))
	}
	for _, p := range inherited {
		if p != 1 {
			t.Fatalf("churned worker ran with pin %d, want inherited 1", p)
		}
	}
	// Every non-empty shard of the last collect was fed exclusively by
	// node-1 threads, so home election must put each on node 1.
	nonEmpty := 0
	for i := range ts.slots[0].shards.sub {
		sh := &ts.slots[0].shards.sub[i]
		if len(sh.buf) == 0 && sh.votes[0] == 0 && sh.votes[1] == 0 {
			continue
		}
		nonEmpty++
		if sh.home != 1 {
			t.Fatalf("shard %d homed on %d (votes %v), want 1", i, sh.home, sh.votes)
		}
		if sh.votes[0] != 0 {
			t.Fatalf("shard %d counts %d node-0 votes; only node-1 threads retired", i, sh.votes[0])
		}
	}
	if nonEmpty == 0 {
		t.Fatal("collect saw no shard votes — churned retires never reached the pipeline")
	}
	st := ts.Stats()
	if st.Frees != 3*40 {
		t.Fatalf("Frees = %d, want %d", st.Frees, 3*40)
	}
}

// TestAffinityClaimAccounting: under ClaimAffinity on a two-node
// machine with retirement on both nodes, voluntary claims happen and
// the local share dominates; under ClaimRoundRobin the same workload
// claims mostly blind.  Both policies reclaim everything.
func TestAffinityClaimAccounting(t *testing.T) {
	run := func(claim ClaimPolicy) Stats {
		s := numaSim(4, 2, 7)
		ts := New(s, Config{BufferSize: 64, Shards: 8, HelpFree: true, Claim: claim})
		for w := 0; w < 4; w++ {
			node := w % 2
			th := s.Spawn("w", func(th *simt.Thread) {
				churn(ts, th, 400)
				ts.FlushAll(th)
			})
			th.Pin(node)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("claim %v: %v", claim, err)
		}
		if lb := s.Heap().Stats().LiveBlocks; lb != 0 {
			t.Fatalf("claim %v leaked %d blocks", claim, lb)
		}
		return ts.Stats()
	}
	aff := run(ClaimAffinity)
	rr := run(ClaimRoundRobin)
	if aff.LocalShardClaims+aff.RemoteShardClaims == 0 {
		t.Fatal("affinity run recorded no voluntary claims")
	}
	if rr.LocalShardClaims+rr.RemoteShardClaims == 0 {
		t.Fatal("round-robin run recorded no voluntary claims")
	}
	if aff.LocalShardClaims <= aff.RemoteShardClaims {
		t.Fatalf("affinity claims not local-dominant: local %d remote %d",
			aff.LocalShardClaims, aff.RemoteShardClaims)
	}
	if aff.Frees != aff.Reclaimed+aff.HelpFreed+aff.DoubleRetires {
		t.Fatalf("affinity lost nodes: %+v", aff)
	}
	if rr.Frees != rr.Reclaimed+rr.HelpFreed+rr.DoubleRetires {
		t.Fatalf("round-robin lost nodes: %+v", rr)
	}
}

// TestQuickHomeAssignmentPartition (property): under random
// topologies — including non-power-of-two node counts — home election
// is a partition of the shard set: every shard gets exactly one
// in-range home, the per-node claim sets are disjoint, and their
// union covers all shards.  Ties break deterministically to the
// lowest node.
func TestQuickHomeAssignmentPartition(t *testing.T) {
	f := func(kRaw, nodesRaw uint8, retires []uint16) bool {
		k := int(kRaw)%32 + 1
		nodes := int(nodesRaw)%7 + 1 // 1..7: exercises 3, 5, 6, 7
		set := newShardSet(k, nodes)
		votes := make([]map[int]uint32, set.k())
		for i := range votes {
			votes[i] = map[int]uint32{}
		}
		for _, r := range retires {
			addr := uint64(r) &^ 7
			node := int(r) % nodes
			set.add(addr, node)
			votes[set.route(addr)][node]++
		}
		set.computeHomes()

		claimSets := make([][]int, nodes)
		for i := range set.sub {
			home := set.sub[i].home
			if home < 0 || home >= nodes {
				return false // out-of-range home
			}
			claimSets[home] = append(claimSets[home], i)
			// Plurality with ties to the lowest node.
			if nodes > 1 {
				best := 0
				for n := 1; n < nodes; n++ {
					if votes[i][n] > votes[i][best] {
						best = n
					}
				}
				if home != best {
					return false
				}
			}
		}
		covered := 0
		seen := map[int]bool{}
		for _, cs := range claimSets {
			for _, i := range cs {
				if seen[i] {
					return false // shard in two claim sets
				}
				seen[i] = true
				covered++
			}
		}
		return covered == set.k() // union covers every shard
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
