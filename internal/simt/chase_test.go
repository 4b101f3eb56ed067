package simt

import (
	"errors"
	"fmt"
	"testing"

	"threadscan/internal/simmem"
)

// Registers and node layout of the hand-built chains below: word 0 is
// the key, word 1 the successor with the mark in its low bit.
const (
	cPrev, cCurr, cNext, cKey = 0, 1, 2, 3
	chainKeyOff, chainNextOff = 0, 1
)

// chaser runs one walk over a chain: the fused primitive or the
// per-call reference it must reproduce.
type chaser func(th *Thread, key uint64, stopOnMark bool) int

// chaseByCallsAt is the per-call sequence ChaseSorted fuses, written
// with the public primitives for nodes with the given word layout.
func chaseByCallsAt(nextOff, keyOff int) chaser {
	return func(th *Thread, key uint64, stopOnMark bool) int {
		for {
			if th.Reg(cCurr) == 0 {
				return ChaseEnd
			}
			th.Load(cNext, cCurr, nextOff)
			if stopOnMark && th.Reg(cNext)&1 != 0 {
				return ChaseMarked
			}
			th.Load(cKey, cCurr, keyOff)
			if th.Reg(cKey) >= key {
				return ChaseFound
			}
			th.SetReg(cPrev, th.Reg(cCurr)+uint64(nextOff)*simmem.WordSize)
			th.SetReg(cCurr, th.Reg(cNext)&^1)
		}
	}
}

func chaseFusedAt(nextOff, keyOff int) chaser {
	return func(th *Thread, key uint64, stopOnMark bool) int {
		return th.ChaseSorted(cPrev, cCurr, cNext, cKey, nextOff, keyOff, key, stopOnMark)
	}
}

var (
	chaseByCalls = chaseByCallsAt(chainNextOff, chainKeyOff)
	chaseFused   = chaseFusedAt(chainNextOff, chainKeyOff)
)

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

// markedChain builds the chain the twin runs walk: keys 10, 20, ..., 200
// with 50, 120 and 130 marked.
func markedChain(h *simmem.Heap) (head uint64, nodes []uint64) {
	var keys []uint64
	for k := uint64(10); k <= 200; k += 10 {
		keys = append(keys, k)
	}
	return buildChain(h, keys, map[uint64]bool{50: true, 120: true, 130: true})
}

// chaseSnap is the machine state compared between the twins: taken at
// every handler entry (reason -1) and after every chase returns.
type chaseSnap struct {
	reason                     int
	regs                       [NumRegs]uint64
	now, cycles, handlerCycles int64
	stats                      SimStats
	lines                      uint64    // lineDigest of the cache tags and line homes
	remoteProbes               [3]uint64 // fillProbe's per-thread RemoteLineFill calls
}

func snapOf(th *Thread, reason int) chaseSnap {
	snap := chaseSnap{reason: reason, regs: th.regs, now: th.now, cycles: th.cycles,
		handlerCycles: th.handlerCycles, stats: th.sim.stats, lines: lineDigest(th.sim)}
	if p, ok := th.sim.probe.(*fillProbe); ok {
		snap.remoteProbes = p.remote
	}
	return snap
}

// lineDigest folds every core's cache tags and replacement cursors and
// every line's home node into one FNV-1a word: the state a memory
// access mutates besides the clock and the fill counts.
func lineDigest(s *Sim) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, c := range s.caches {
		for _, tag := range c.tags {
			mix(tag)
		}
		for _, v := range c.victim {
			mix(uint64(v))
		}
	}
	for _, home := range s.lineHome {
		mix(uint64(home))
	}
	return h
}

// fillProbe counts Probe.RemoteLineFill calls per thread id.
type fillProbe struct{ remote [3]uint64 }

func (p *fillProbe) Alloc(*Thread, int64, bool)  {}
func (p *fillProbe) Free(*Thread, int64, bool)   {}
func (p *fillProbe) RemoteLineFill(t *Thread)    { p.remote[t.ID()]++ }
func (p *fillProbe) SignalSent(from, to *Thread) {}

// chaseRun walks a sorted chain with marked nodes for many target keys
// in both stop modes, under a tiny quantum and a peer that keeps
// signaling the walker, and returns the walker's snapshots.
func chaseRun(t *testing.T, cfg Config, chase chaser) []chaseSnap {
	t.Helper()
	s := New(cfg)
	head, nodes := markedChain(s.Heap())
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
	run := func(chase chaser, stop bool) (*simmem.Violation, uint64) {
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

// TestChaseSortedRejectsAliasedRegisters: with a register named twice
// the walk's result would depend on the order of its register writes,
// so ChaseSorted refuses it before touching any state.
func TestChaseSortedRejectsAliasedRegisters(t *testing.T) {
	regs := [4]int{cPrev, cCurr, cNext, cKey}
	for i := range regs {
		for j := i + 1; j < len(regs); j++ {
			r := regs
			r[j] = r[i]
			s := New(testConfig())
			var got any
			var spent int64
			s.Spawn("walker", func(th *Thread) {
				start := th.Now()
				defer func() { got, spent = recover(), th.Now()-start }()
				th.ChaseSorted(r[0], r[1], r[2], r[3], chainNextOff, chainKeyOff, 10, false)
			})
			mustRun(t, s)
			want := fmt.Sprintf("simt: ChaseSorted registers must be distinct (prev %d, curr %d, next %d, key %d)", r[0], r[1], r[2], r[3])
			if got != want || spent != 0 {
				t.Errorf("registers %v: panic %v after %d cycles, want %q after none", r, got, spent, want)
			}
		}
	}
}

// runAheadMachines are the machines the run-ahead twins run on: a flat
// one, one with a cache model small enough that the chain's lines keep
// evicting each other, and two nodes.  The walker runs on core 0.
func runAheadMachines() map[string]Config {
	flat := Config{
		Cores:   1,
		Quantum: 2000,
		Seed:    1,
		Heap:    simmem.Config{Words: 1 << 14, Check: true, Poison: true},
	}
	cache, numa := flat, flat
	cache.CacheSim = true
	cache.CacheSets = 8
	numa.Cores, numa.Nodes = 2, 2
	return map[string]Config{"flat": flat, "cache": cache, "numa": numa}
}

// worstStep is the most one walk step can cost on s's machine: two
// loads that both miss and fill remotely, and two register writes.
func worstStep(s *Sim) int64 {
	c := s.cfg.Costs
	worst := c.Load
	if s.caches != nil {
		worst += c.MissPenalty
	}
	if s.topo.nodes > 1 {
		worst += c.RemoteFill
	}
	return 2*worst + 2*c.RegOp
}

// runAheadRun drives a walker over markedChain with chase on a machine
// built from cfg.  A peer on the walker's core snapshots the walker
// (reason -2) whenever it holds the core, that is after every quantum
// the walker gives up, so a step run ahead past a quantum end, or
// registers and clocks left stale in locals, show in the peer's view.
// On two nodes a third thread on node 1 keeps touching the chain, so
// the walker's fills alternate between remote and local.  body walks
// with the chaser it is handed, which snapshots (reason -3) before each
// walk, and takes its own snapshots through snap.
func runAheadRun(t *testing.T, cfg Config, chase chaser, body func(th *Thread, head uint64, chase chaser, snap func(int))) []chaseSnap {
	t.Helper()
	s := New(cfg)
	s.SetProbe(&fillProbe{})
	head, nodes := markedChain(s.Heap())
	var snaps []chaseSnap
	walker := s.Spawn("walker", func(th *Thread) {
		snap := func(reason int) { snaps = append(snaps, snapOf(th, reason)) }
		walk := func(th *Thread, key uint64, stopOnMark bool) int {
			snap(-3)
			return chase(th, key, stopOnMark)
		}
		body(th, head, walk, snap)
	})
	peer := s.Spawn("peer", func(th *Thread) {
		for !walker.Exited() {
			snaps = append(snaps, snapOf(walker, -2))
			th.Work(2000)
		}
	})
	if cfg.Nodes > 1 {
		walker.Pin(0)
		peer.Pin(0)
		s.Spawn("toucher", func(th *Thread) {
			for !walker.Exited() {
				for _, n := range nodes {
					th.Touch(n + chainKeyOff*simmem.WordSize)
					th.Touch(n + chainNextOff*simmem.WordSize)
				}
				th.Work(3000)
			}
		}).Pin(1)
	}
	mustRun(t, s)
	return snaps
}

// TestChaseRunAheadMatchesLoadSequence pins the run-ahead to the
// per-call sequence at its edges, on a flat machine, under the cache
// model and on two nodes: a quantum ending at every offset of a step
// (among them exactly at the step's end and between its two loads), a
// walk that starts with a signal deliverable, a walk inside a handler
// with a second signal pending, and mark stops.
// The modeled machines must see their walks miss in the cache or fill
// lines from both nodes.
func TestChaseRunAheadMatchesLoadSequence(t *testing.T) {
	cases := map[string]func(th *Thread, head uint64, chase chaser, snap func(int)){
		// Place the clock so that step i of a walk over the whole chain
		// starts slack cycles before the quantum ends (on a modeled
		// machine about i steps in: step costs vary there).
		"quantum end": func(th *Thread, head uint64, chase chaser, snap func(int)) {
			step := worstStep(th.sim)
			for _, i := range []int64{0, 3} {
				for slack := int64(0); slack <= step+1; slack++ {
					th.Yield()
					th.SetReg(cPrev, head)
					th.Load(cCurr, cPrev, 0)
					th.Charge(th.quantumEnd - slack - i*step - th.now)
					snap(chase(th, 1000, false))
				}
			}
		},
		// Signal 1 arrives inside signal 0's handler, so it is pending
		// but masked for the whole walk; every cycle of the walk is
		// handler time.
		"handler, signal pending": func(th *Thread, head uint64, chase chaser, snap func(int)) {
			sim := th.Sim()
			sim.SetSignalHandler(1, func(th *Thread) { snap(-1) })
			sim.SetSignalHandler(0, func(th *Thread) {
				th.Signal(th, 1)
				th.SetReg(cPrev, head)
				th.Load(cCurr, cPrev, 0)
				snap(chase(th, 1000, false))
				if th.sigPending == 0 || th.handlerCycles < 100 {
					t.Errorf("walk ran with pending %b and %d handler cycles", th.sigPending, th.handlerCycles)
				}
			})
			th.Signal(th, 0)
			th.Step()
		},
		// A self-signal is pending, and deliverable, as the walk
		// starts: the walk's first safepoint must run the handler.
		"signal pending": func(th *Thread, head uint64, chase chaser, snap func(int)) {
			th.Sim().SetSignalHandler(0, func(th *Thread) { snap(-1) })
			for _, key := range []uint64{55, 1000} {
				th.SetReg(cPrev, head)
				th.Load(cCurr, cPrev, 0)
				th.Signal(th, 0)
				snap(chase(th, key, false))
			}
		},
		// Stop at each marked node, as search does before its snip.
		"marked": func(th *Thread, head uint64, chase chaser, snap func(int)) {
			th.SetReg(cPrev, head)
			th.Load(cCurr, cPrev, 0)
			for {
				r := chase(th, 1000, true)
				snap(r)
				if r != ChaseMarked {
					return
				}
				th.SetReg(cCurr, th.Reg(cNext)&^1)
			}
		},
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			for machine, cfg := range runAheadMachines() {
				t.Run(machine, func(t *testing.T) {
					want := runAheadRun(t, cfg, chaseByCalls, body)
					got := runAheadRun(t, cfg, chaseFused, body)
					if len(got) != len(want) {
						t.Fatalf("%d snapshots, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("snapshot %d of %d diverged:\n got %+v\nwant %+v", i, len(want), got[i], want[i])
						}
					}
					if name == "quantum end" {
						assertWalksModeled(t, cfg, want)
					}
				})
			}
		})
	}
}

// assertWalksModeled fails unless the walks in snaps exercised cfg's
// line model: under the cache model some walk changed the cache tags,
// that is missed; on two nodes the walker's own walks filled lines
// remotely and the machine filled lines locally.
func assertWalksModeled(t *testing.T, cfg Config, snaps []chaseSnap) {
	t.Helper()
	var before chaseSnap
	var changedLines, remoteWalks int
	for _, s := range snaps {
		switch {
		case s.reason == -3:
			before = s
		case s.reason >= 0:
			if s.lines != before.lines {
				changedLines++
			}
			if s.remoteProbes[0] > before.remoteProbes[0] {
				remoteWalks++
			}
		}
	}
	last := snaps[len(snaps)-1].stats
	if cfg.CacheSim && changedLines == 0 {
		t.Errorf("no walk missed in the cache")
	}
	if cfg.Nodes > 1 && (remoteWalks == 0 || last.LocalLineFills == 0) {
		t.Errorf("%d walks filled remotely, %d local fills: want both", remoteWalks, last.LocalLineFills)
	}
}

// TestChaseRunAheadKeyFault: a node whose link word is live but whose
// key word is freed fails in the middle of a step.  The run-ahead must
// leave that step to the exact loop, which raises the per-call
// sequence's Violation at its clock, register, fill-count, cache and
// line-home state, on every machine.
func TestChaseRunAheadKeyFault(t *testing.T) {
	// Nodes are 16-byte blocks holding the link at word 0; a node's key
	// is word 0 of the adjacent block.
	const nextOff, keyOff = 0, 2
	run := func(cfg Config, chase chaser) (*simmem.Violation, chaseSnap, uint64, uint64) {
		cfg.Quantum = 1 << 40
		s := New(cfg)
		s.SetProbe(&fillProbe{})
		h := s.Heap()
		head := h.Alloc(8)
		var b []uint64
		for i := 0; i < 8; i++ {
			b = append(b, h.Alloc(16))
			if i > 0 && b[i] != b[i-1]+16 {
				t.Fatalf("blocks %#x, %#x are not adjacent", b[i-1], b[i])
			}
		}
		h.Store(head, b[0])
		for i := 0; i < 4; i++ {
			if i < 3 {
				h.Store(b[2*i], b[2*i+2])
			}
			h.Store(b[2*i+1], uint64(10*(i+1)))
		}
		h.Free(b[5]) // node b[4]'s key word
		s.setHome(b[0], 8*16, 1)
		fresh := lineDigest(s)
		walker := s.Spawn("walker", func(th *Thread) {
			th.SetReg(cPrev, head)
			th.Load(cCurr, cPrev, 0)
			chase(th, 1000, false)
		})
		walker.Pin(0)
		var v *simmem.Violation
		if err := s.Run(); !errors.As(err, &v) {
			t.Fatalf("want a heap violation, got %v", err)
		}
		return v, snapOf(walker, 0), b[4], fresh
	}
	for machine, cfg := range runAheadMachines() {
		t.Run(machine, func(t *testing.T) {
			want, wantSnap, node, fresh := run(cfg, chaseByCallsAt(nextOff, keyOff))
			got, gotSnap, _, _ := run(cfg, chaseFusedAt(nextOff, keyOff))
			if want.Kind != simmem.VUseAfterFree || want.Addr != node+keyOff*simmem.WordSize || want.Op != "load" {
				t.Fatalf("reference violation %v is not a use after free of node %#x's key word", want, node)
			}
			if got.Kind != want.Kind || got.Addr != want.Addr || got.Op != want.Op {
				t.Errorf("violation %v, want %v", got, want)
			}
			if gotSnap != wantSnap {
				t.Errorf("state at the fault:\n got %+v\nwant %+v", gotSnap, wantSnap)
			}
			modeled := cfg.CacheSim || cfg.Nodes > 1
			if modeled && wantSnap.lines == fresh {
				t.Errorf("the walk left the cache tags and line homes untouched")
			}
			if cfg.Nodes > 1 && (wantSnap.stats.RemoteLineFills == 0 || wantSnap.stats.LocalLineFills == 0) {
				t.Errorf("fills at the fault: %+v, want local and remote", wantSnap.stats)
			}
		})
	}
}
