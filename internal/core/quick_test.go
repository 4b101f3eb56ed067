package core

import (
	"testing"
	"testing/quick"

	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

// TestQuickShardRoutePartition: routing is a partition of the address
// space — every address maps to exactly one in-range shard,
// deterministically, and adding n addresses distributes exactly n nodes
// with each one findable in (only) its routed shard.
func TestQuickShardRoutePartition(t *testing.T) {
	f := func(kRaw uint8, addrsRaw []uint32) bool {
		set := newShardSet(int(kRaw)%32+1, 1)
		for _, raw := range addrsRaw {
			addr := uint64(raw) &^ 7
			i := set.route(addr)
			if i < 0 || i >= set.k() || i != set.route(addr) {
				return false
			}
			set.add(addr, 0)
		}
		if set.total != len(addrsRaw) {
			return false
		}
		n := 0
		for i := range set.sub {
			for _, a := range set.sub[i].buf {
				if set.route(a) != i {
					return false // landed outside its partition
				}
			}
			n += len(set.sub[i].buf)
		}
		return n == len(addrsRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSortDedupIdempotent: sortDedup yields a sorted duplicate-free
// buffer whose dup count matches the multiset, and applying it to its
// own output changes nothing.
func TestQuickSortDedupIdempotent(t *testing.T) {
	f := func(raw []uint16) bool {
		buf := make([]uint64, len(raw))
		uniq := map[uint64]bool{}
		for i, v := range raw {
			buf[i] = uint64(v) &^ 7
			uniq[buf[i]] = true
		}
		out, dups := sortDedup(buf)
		if len(out) != len(uniq) || dups != len(raw)-len(uniq) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i-1] >= out[i] {
				return false
			}
		}
		again, more := sortDedup(out)
		if more != 0 || len(again) != len(out) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickShardedEquivalent: the sharded pipeline must make the same
// reclamation decisions as the serial collect — K only repartitions the
// master buffer, it never changes the membership predicate.
func TestQuickShardedEquivalent(t *testing.T) {
	run := func(seed int64, shards int) (uint64, uint64) {
		s := simt.New(simt.Config{
			Cores: 2, Quantum: 5_000, Seed: seed,
			MaxCycles: 60_000_000_000,
			Heap:      simmem.Config{Words: 1 << 19, Check: true, Poison: true},
		})
		ts := New(s, Config{BufferSize: 16, Shards: shards})
		for w := 0; w < 3; w++ {
			s.Spawn("worker", func(th *simt.Thread) {
				for j := 0; j < 60; j++ {
					allocNode(th, 2, uint64(j))
					held := th.Reg(2)
					churn(ts, th, 4)
					th.SetReg(2, 0)
					ts.Free(th, held)
				}
				ts.FlushAll(th)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("shards %d seed %d: %v", shards, seed, err)
		}
		if lb := s.Heap().Stats().LiveBlocks; lb != 0 {
			t.Fatalf("shards %d seed %d: leaked %d", shards, seed, lb)
		}
		st := ts.Stats()
		return st.Frees, st.Reclaimed + st.HelpFreed
	}
	f := func(seedRaw uint8, kRaw uint8) bool {
		seed := int64(seedRaw)
		k := 2 << (kRaw % 4) // 2..16
		f1, r1 := run(seed, 1)
		fk, rk := run(seed, k)
		return f1 == fk && r1 == rk && f1 == r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEventualReclamation (Lemma 4): for arbitrary small
// configurations, once references are dropped every retired node is
// freed and nothing leaks.
func TestQuickEventualReclamation(t *testing.T) {
	f := func(seed int64, bufRaw, threadsRaw uint8) bool {
		buf := int(bufRaw)%48 + 4
		n := int(threadsRaw)%4 + 1
		s := simt.New(simt.Config{
			Cores: 2, Quantum: 5_000, Seed: seed, Chaos: seed%2 == 0,
			MaxCycles: 60_000_000_000,
			Heap:      simmem.Config{Words: 1 << 19, Check: true, Poison: true},
		})
		ts := New(s, Config{BufferSize: buf})
		for w := 0; w < n; w++ {
			s.Spawn("worker", func(th *simt.Thread) {
				churn(ts, th, 150)
				ts.FlushAll(th)
			})
		}
		if err := s.Run(); err != nil {
			t.Log(err)
			return false
		}
		return s.Heap().Stats().LiveBlocks == 0 && ts.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
