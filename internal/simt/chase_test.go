package simt

import (
	"errors"
	"testing"

	"threadscan/internal/simmem"
)

// Registers and node layout of the hand-built chains below: word 0 is
// the key, word 1 the successor with the mark in its low bit.
const (
	cPrev, cCurr, cNext, cKey = 0, 1, 2, 3
	chainKeyOff, chainNextOff = 0, 1
)

// chaseByCalls is the per-call sequence ChaseSorted fuses, written with
// the public primitives: the reference the primitive must reproduce.
func chaseByCalls(th *Thread, key uint64, stopOnMark bool) int {
	for {
		if th.Reg(cCurr) == 0 {
			return ChaseEnd
		}
		th.Load(cNext, cCurr, chainNextOff)
		if stopOnMark && th.Reg(cNext)&1 != 0 {
			return ChaseMarked
		}
		th.Load(cKey, cCurr, chainKeyOff)
		if th.Reg(cKey) >= key {
			return ChaseFound
		}
		th.SetReg(cPrev, th.Reg(cCurr)+chainNextOff*simmem.WordSize)
		th.SetReg(cCurr, th.Reg(cNext)&^1)
	}
}

func chaseFused(th *Thread, key uint64, stopOnMark bool) int {
	return th.ChaseSorted(cPrev, cCurr, cNext, cKey, chainNextOff, chainKeyOff, key, stopOnMark)
}

// buildChain links nodes with the given keys, in order, behind a fresh
// head word and marks the nodes whose keys are in marked.  It returns
// the head word's address and the node addresses.
func buildChain(h *simmem.Heap, keys []uint64, marked map[uint64]bool) (head uint64, nodes []uint64) {
	head = h.Alloc(8)
	for _, k := range keys {
		n := h.Alloc(3 * simmem.WordSize)
		h.Store(n+chainKeyOff*simmem.WordSize, k)
		nodes = append(nodes, n)
	}
	h.Store(head, nodes[0])
	for i, n := range nodes {
		var next uint64
		if i+1 < len(nodes) {
			next = nodes[i+1]
		}
		if marked[keys[i]] {
			next |= 1
		}
		h.Store(n+chainNextOff*simmem.WordSize, next)
	}
	return head, nodes
}

// chaseSnap is the machine state compared between the twins: taken at
// every handler entry (reason -1) and after every chase returns.
type chaseSnap struct {
	reason                     int
	regs                       [NumRegs]uint64
	now, cycles, handlerCycles int64
	stats                      SimStats
}

func snapOf(th *Thread, reason int) chaseSnap {
	return chaseSnap{reason, th.regs, th.now, th.cycles, th.handlerCycles, th.sim.stats}
}

// chaseRun walks a sorted chain with marked nodes for many target keys
// in both stop modes, under a tiny quantum and a peer that keeps
// signaling the walker, and returns the walker's snapshots.
func chaseRun(t *testing.T, cfg Config, chase func(*Thread, uint64, bool) int) []chaseSnap {
	t.Helper()
	s := New(cfg)
	var keys []uint64
	for k := uint64(10); k <= 200; k += 10 {
		keys = append(keys, k)
	}
	head, nodes := buildChain(s.Heap(), keys, map[uint64]bool{50: true, 120: true, 130: true})
	last := nodes[len(nodes)-1]

	var snaps []chaseSnap
	var walker *Thread
	s.SetSignalHandler(0, func(th *Thread) {
		if th != walker {
			return
		}
		snaps = append(snaps, snapOf(th, -1))
		// Point rCurr at the tail node and zero rNext.  The per-call
		// sequence reads both from the register file after every
		// safepoint, so a primitive that kept either in a local across
		// one walks a different path: interrupted at a next-load it must
		// compare the tail's key, at a key-load it must advance rPrev
		// past the tail and end the walk at the next step.
		th.regs[cCurr], th.regs[cNext] = last, 0
	})
	walker = s.Spawn("walker", func(th *Thread) {
		for round := 0; round < 20; round++ {
			for _, key := range []uint64{5, 10, 55, 125, 135, 200, 1000} {
				for _, stop := range []bool{true, false} {
					th.SetReg(cPrev, head)
					th.Load(cCurr, cPrev, 0)
					for {
						r := chase(th, key, stop)
						snaps = append(snaps, snapOf(th, r))
						if r != ChaseMarked {
							break
						}
						th.SetReg(cCurr, th.Reg(cNext)&^1) // step over the marked node
					}
				}
			}
		}
	})
	s.Spawn("peer", func(th *Thread) {
		for i := 0; i < 200; i++ {
			th.Work(173)
			th.Signal(walker, 0)
		}
	})
	mustRun(t, s)
	return snaps
}

func chaseConfigs() map[string]Config {
	base := Config{
		Cores:   2,
		Quantum: 60,
		Seed:    1,
		Heap:    simmem.Config{Words: 1 << 14, Check: true, Poison: true},
	}
	cache, numa := base, base
	cache.CacheSim = true
	cache.CacheSets = 16 // small enough that the walk misses
	numa.Nodes = 2
	return map[string]Config{"flat": base, "cache": cache, "numa": numa}
}

// TestChaseMatchesLoadSequence pins ChaseSorted to the per-call
// Load/SetReg sequence it fuses: the same register file, clocks and
// counters at every signal-handler entry and after every return, under
// quantum expiry, signals, the cache model and a two-node topology.
func TestChaseMatchesLoadSequence(t *testing.T) {
	for name, cfg := range chaseConfigs() {
		t.Run(name, func(t *testing.T) {
			want := chaseRun(t, cfg, chaseByCalls)
			got := chaseRun(t, cfg, chaseFused)
			seen := map[int]int{}
			for _, s := range want {
				seen[s.reason]++
			}
			if seen[-1] < 50 || seen[ChaseEnd] == 0 || seen[ChaseMarked] == 0 || seen[ChaseFound] == 0 {
				t.Fatalf("walk too tame (snapshots per reason, -1 = handler entry): %v", seen)
			}
			if len(got) != len(want) {
				t.Fatalf("%d snapshots, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("snapshot %d of %d diverged:\n got %+v\nwant %+v", i, len(want), got[i], want[i])
				}
			}
		})
	}
}

// TestChaseOntoFreedNodeViolates: a walk that reaches a freed node must
// fail exactly as the per-call sequence does, with the same violation.
func TestChaseOntoFreedNodeViolates(t *testing.T) {
	run := func(chase func(*Thread, uint64, bool) int, stop bool) (*simmem.Violation, uint64) {
		s := New(testConfig())
		head, nodes := buildChain(s.Heap(), []uint64{10, 20, 30}, nil)
		s.Heap().Free(nodes[1])
		s.Spawn("walker", func(th *Thread) {
			th.SetReg(cPrev, head)
			th.Load(cCurr, cPrev, 0)
			chase(th, 25, stop)
		})
		var v *simmem.Violation
		if err := s.Run(); !errors.As(err, &v) {
			t.Fatalf("want a heap violation, got %v", err)
		}
		return v, nodes[1]
	}
	for _, stop := range []bool{true, false} {
		want, freed := run(chaseByCalls, stop)
		got, _ := run(chaseFused, stop)
		if got.Kind != want.Kind || got.Addr != want.Addr || got.Op != want.Op {
			t.Errorf("stopOnMark=%v: violation %v, want %v", stop, got, want)
		}
		if want.Kind != simmem.VUseAfterFree || want.Addr != freed+chainNextOff*simmem.WordSize || want.Op != "load" {
			t.Errorf("stopOnMark=%v: reference violation %v is not a use after free of the freed node's link", stop, want)
		}
	}
}
