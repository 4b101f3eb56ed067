package core

import (
	"errors"
	"testing"

	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

const nodeSize = 64

func testSim(cores int, seed int64) *simt.Sim {
	return simt.New(simt.Config{
		Cores:     cores,
		Quantum:   10_000,
		Seed:      seed,
		MaxCycles: 60_000_000_000, // watchdog
		Heap:      simmem.Config{Words: 1 << 20, Check: true, Poison: true},
	})
}

// allocNode allocates a node into reg dst and tags word 0 with val.
func allocNode(th *simt.Thread, dst int, val uint64) uint64 {
	th.Alloc(dst, nodeSize)
	th.StoreImm(dst, 0, val)
	return th.Reg(dst)
}

// churn allocates and immediately retires n unreferenced nodes, using
// reg 15 as scratch.
func churn(ts *ThreadScan, th *simt.Thread, n int) {
	for i := 0; i < n; i++ {
		allocNode(th, 15, uint64(i))
		addr := th.Reg(15)
		th.SetReg(15, 0) // drop the reference before retiring
		ts.Free(th, addr)
	}
}

func TestUnreferencedNodesReclaimed(t *testing.T) {
	s := testSim(2, 1)
	ts := New(s, Config{BufferSize: 32})
	s.Spawn("worker", func(th *simt.Thread) {
		churn(ts, th, 200)
		if left := ts.FlushAll(th); left != 0 {
			t.Errorf("FlushAll left %d nodes", left)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
	st := ts.Stats()
	if st.Collects == 0 || st.Reclaimed != 200 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCollectTriggersWhenBufferFull(t *testing.T) {
	s := testSim(1, 1)
	ts := New(s, Config{BufferSize: 16})
	s.Spawn("worker", func(th *simt.Thread) {
		churn(ts, th, 16) // fills the buffer exactly; no collect yet
		if got := ts.Stats().Collects; got != 0 {
			t.Errorf("collect before overflow: %d", got)
		}
		churn(ts, th, 1) // 17th free overflows -> collect
		if got := ts.Stats().Collects; got != 1 {
			t.Errorf("collects after overflow: %d", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLemma1ReferencedNodeSurvives is the paper's safety property: a
// node whose address sits in another thread's register must not be
// freed by a collect, and with the checked heap any violation would
// panic the run.
func TestLemma1ReferencedNodeSurvives(t *testing.T) {
	s := testSim(2, 7)
	ts := New(s, Config{BufferSize: 16})
	var shared uint64
	readerHolds := false
	dropRef := false
	collectDone := false

	s.Spawn("reader", func(th *simt.Thread) {
		// Publish a node address, hold it in reg 5, read through it
		// while the other thread retires it and collects.
		shared = allocNode(th, 5, 42)
		readerHolds = true
		for !dropRef {
			th.Load(6, 5, 0) // would be use-after-free if reclaimed
			if th.Reg(6) != 42 {
				t.Error("node contents changed while referenced")
				break
			}
		}
		th.SetReg(5, 0)
		th.SetReg(6, 0)
		for !collectDone {
			th.Pause()
		}
	})
	s.Spawn("writer", func(th *simt.Thread) {
		for !readerHolds {
			th.Pause()
		}
		// The node is now "unlinked" (no shared refs — `shared` is a
		// host-side variable, invisible to scans by design) but the
		// reader still holds a private ref.
		ts.Free(th, shared)
		churn(ts, th, 64) // force several collects
		if got := ts.Stats().Remarked; got == 0 {
			t.Error("referenced node was never marked by a scan")
		}
		if !s.Heap().LiveAt(shared) {
			t.Error("referenced node was freed (Lemma 1 violated)")
		}
		dropRef = true
		// Reader cleared its registers; now reclamation must succeed
		// (Lemma 4: eventual reclamation).
		for s.Heap().LiveAt(shared) {
			churn(ts, th, 16)
			th.Work(1000)
		}
		collectDone = true
		ts.FlushAll(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestLemma3CollectCompletesDespiteSpinningThread: an application
// thread stuck in an infinite loop cannot stall reclamation, because
// the handler runs at instruction boundaries (the decisive advantage
// over epoch schemes, §1.2/§2).
func TestLemma3CollectCompletesDespiteSpinningThread(t *testing.T) {
	s := testSim(2, 3)
	ts := New(s, Config{BufferSize: 16})
	stop := false
	s.Spawn("spinner", func(th *simt.Thread) {
		th.Alloc(0, nodeSize)
		for !stop { // never yields voluntarily, never calls Free
			th.Load(1, 0, 0)
		}
		th.FreeAddr(th.Reg(0))
	})
	s.Spawn("reclaimer", func(th *simt.Thread) {
		churn(ts, th, 100) // triggers collects that must signal spinner
		if ts.Stats().Collects == 0 {
			t.Error("no collect happened")
		}
		if ts.Stats().ScannedThreads < 2*ts.Stats().Collects {
			t.Error("spinner never scanned: collect must have hung")
		}
		stop = true
		ts.FlushAll(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

func TestHeapBlockExtensionProtectsHiddenRef(t *testing.T) {
	// §4.3: a thread stores a private reference in a pre-allocated heap
	// block.  Without registration the node would be reclaimed; with
	// AddHeapBlock the scan finds and protects it.
	s := testSim(2, 5)
	ts := New(s, Config{BufferSize: 16})
	var node uint64
	hidden := false
	release := false
	s.Spawn("hider", func(th *simt.Thread) {
		th.Alloc(0, 256) // the private block
		block := th.Reg(0)
		ts.AddHeapBlock(th, block, 256)
		node = allocNode(th, 1, 9)
		th.Store(0, 3, 1) // stash the ref in the heap block...
		th.SetReg(1, 0)   // ...and drop it from registers
		hidden = true
		for !release {
			th.Pause()
		}
		th.Load(1, 0, 3) // re-load ref and verify the node survived
		th.Load(2, 1, 0)
		if th.Reg(2) != 9 {
			t.Error("hidden-ref node corrupted")
		}
		th.StoreImm(0, 3, 0) // clear the stashed ref
		ts.RemoveHeapBlock(th, block, 256)
		ts.Free(th, th.Reg(1))
		th.SetReg(1, 0)
		th.SetReg(2, 0)
		th.FreeAddr(block)
		th.SetReg(0, 0)
	})
	s.Spawn("collector", func(th *simt.Thread) {
		for !hidden {
			th.Pause()
		}
		churn(ts, th, 64)
		if !s.Heap().LiveAt(node) {
			t.Error("heap-block-protected node was reclaimed")
		}
		release = true
		for ts.Buffered() > 0 || s.Heap().Stats().LiveBlocks > 1 {
			churn(ts, th, 16)
			if ts.FlushAll(th) == 0 {
				break
			}
		}
		ts.FlushAll(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestThreadExitOrphansBufferedNodes(t *testing.T) {
	s := testSim(2, 9)
	ts := New(s, Config{BufferSize: 1024})
	s.Spawn("short-lived", func(th *simt.Thread) {
		churn(ts, th, 50) // buffered, no collect (buffer 1024)
	})
	s.Spawn("survivor", func(th *simt.Thread) {
		th.Work(2_000_000) // outlive the first thread
		ts.Collect(th)
		if left := ts.FlushAll(th); left != 0 {
			t.Errorf("orphans not reclaimed: %d left", left)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestHelpFreeSharesReclamation: under HelpFree a signaled scanner frees
// part of the previous phase's unmarked nodes.  Each phase defers a
// whole ring (256 nodes, one list at K = 1), so the scanner's claim
// exceeds helpFreeChunk: it frees one chunk and the remainder must go
// back for the reclaimer's drain, or those nodes leak.
func TestHelpFreeSharesReclamation(t *testing.T) {
	const retired = 1024
	s := testSim(2, 11)
	ts := New(s, Config{BufferSize: 256, HelpFree: true})
	done := false
	s.Spawn("worker1", func(th *simt.Thread) {
		churn(ts, th, retired)
		done = true
		ts.FlushAll(th)
	})
	s.Spawn("worker2", func(th *simt.Thread) {
		for !done { // scans (and help-frees) when signaled
			th.Work(500)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := ts.Stats()
	if st.HelpFreed == 0 || st.HelpFreed%helpFreeChunk != 0 {
		t.Errorf("scanner help-frees are not whole chunks of %d: %+v", helpFreeChunk, st)
	}
	if st.Reclaimed+st.HelpFreed != retired {
		t.Errorf("reclaimed %d + help-freed %d, want %d", st.Reclaimed, st.HelpFreed, retired)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestHelpFreeChunkRequeuesRemainder: a helper that claims a list
// longer than helpFreeChunk frees one chunk and puts the rest back on
// s.help, where the next helper and then the drain finish it.
func TestHelpFreeChunkRequeuesRemainder(t *testing.T) {
	const retired = 300
	s := testSim(1, 59)
	ts := New(s, Config{BufferSize: 512, HelpFree: true})
	sl := ts.slots[0]
	remaining := func() (n int) {
		for _, l := range sl.help {
			n += len(l.addrs)
		}
		return n
	}
	s.Spawn("worker", func(th *simt.Thread) {
		churn(ts, th, retired)
		ts.Collect(th) // defers all 300 as one list: no peer, no help yet
		if len(sl.pending) != 1 || len(sl.pending[0].addrs) != retired {
			t.Fatalf("deferred lists: %d, want one of %d", len(sl.pending), retired)
		}
		// What the next collect does before signaling its scanners.
		sl.help, sl.pending = sl.pending, nil
		for want := retired - helpFreeChunk; want > 0; want -= helpFreeChunk {
			ts.helpFree(th)
			if got := remaining(); got != want {
				t.Fatalf("after a help-free chunk %d addresses remain on s.help, want %d", got, want)
			}
		}
		if left := ts.FlushAll(th); left != 0 {
			t.Errorf("FlushAll left %d nodes", left)
		}
		if n := remaining(); n != 0 {
			t.Errorf("drain left %d help-queued addresses", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := ts.Stats()
	if st.HelpFreed != 2*helpFreeChunk || st.Reclaimed != retired-2*helpFreeChunk {
		t.Errorf("help-freed %d, reclaimed %d; want %d and %d",
			st.HelpFreed, st.Reclaimed, 2*helpFreeChunk, retired-2*helpFreeChunk)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

func TestAvoidedCollectWhenDrainedWhileWaiting(t *testing.T) {
	// Two threads fill their buffers simultaneously; one becomes the
	// reclaimer and drains everyone, the other should discover its
	// buffer empty and skip its own collect (§4.2).
	s := testSim(2, 13)
	ts := New(s, Config{BufferSize: 64})
	for i := 0; i < 2; i++ {
		s.Spawn("worker", func(th *simt.Thread) {
			churn(ts, th, 400)
		})
	}
	s.Spawn("closer", func(th *simt.Thread) {
		th.Work(50_000_000)
		ts.FlushAll(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// AvoidedCollects is opportunistic — it depends on timing — but
	// with tiny buffers and simultaneous churn it should occur.
	if ts.Stats().AvoidedCollects == 0 {
		t.Logf("note: no avoided collects this run (timing-dependent); stats %+v", ts.Stats())
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

func TestFreeMasksMarkBits(t *testing.T) {
	s := testSim(1, 17)
	ts := New(s, Config{BufferSize: 8})
	s.Spawn("worker", func(th *simt.Thread) {
		addr := allocNode(th, 0, 1)
		th.SetReg(0, 0)
		ts.Free(th, addr|1) // Harris-style marked pointer
		ts.Collect(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("marked-pointer free leaked %d blocks", live)
	}
}

func TestStressManyThreadsNoViolations(t *testing.T) {
	// A battery of seeds, chaos scheduling, with every thread holding
	// transient references while others collect.  The checked heap
	// fails the run on any unsound free.
	for _, seed := range []int64{1, 2, 3} {
		s := simt.New(simt.Config{
			Cores: 3, Quantum: 2_000, Seed: seed, Chaos: true,
			MaxCycles: 60_000_000_000,
			Heap:      simmem.Config{Words: 1 << 20, Check: true, Poison: true},
		})
		ts := New(s, Config{BufferSize: 24})
		nThreads := 6
		for i := 0; i < nThreads; i++ {
			s.Spawn("worker", func(th *simt.Thread) {
				for j := 0; j < 120; j++ {
					// Hold a node in reg 2 while churning others.
					allocNode(th, 2, uint64(j))
					held := th.Reg(2)
					churn(ts, th, 3)
					th.Load(3, 2, 0) // must still be live
					if th.Reg(3) != uint64(j) {
						t.Errorf("seed %d: held node corrupted", seed)
					}
					th.SetReg(2, 0)
					th.SetReg(3, 0)
					ts.Free(th, held)
				}
				ts.FlushAll(th)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if live := s.Heap().Stats().LiveBlocks; live != 0 {
			t.Fatalf("seed %d: leaked %d blocks", seed, live)
		}
	}
}

func TestUnsoundSchemeIsCaught(t *testing.T) {
	// Failure injection: free a node immediately (no protocol) while a
	// reader holds a reference.  The checked heap must catch it — this
	// proves the safety tests above have teeth.
	s := testSim(2, 19)
	var shared uint64
	ready := false
	s.Spawn("reader", func(th *simt.Thread) {
		shared = allocNode(th, 0, 5)
		ready = true
		for i := 0; i < 100_000; i++ {
			th.Load(1, 0, 0)
		}
	})
	s.Spawn("unsound-freer", func(th *simt.Thread) {
		for !ready {
			th.Pause()
		}
		th.FreeAddr(shared) // no reclamation protocol: use-after-free
	})
	err := s.Run()
	var v *simmem.Violation
	if !errors.As(err, &v) {
		t.Fatalf("unsound free not caught, err=%v", err)
	}
	if v.Kind != simmem.VUseAfterFree {
		t.Fatalf("wrong violation kind: %v", v.Kind)
	}
}

// TestDoubleRetireFreedOnce is the dedup regression: the same address
// retired twice lands twice in the master buffer, and the sweep must
// free it exactly once (pre-dedup it called FreeAddr per occurrence —
// a double free the checked heap catches).
func TestDoubleRetireFreedOnce(t *testing.T) {
	s := testSim(1, 29)
	ts := New(s, Config{BufferSize: 32})
	s.Spawn("worker", func(th *simt.Thread) {
		addr := allocNode(th, 0, 1)
		th.SetReg(0, 0)
		ts.Free(th, addr)
		ts.Free(th, addr) // application double retire
		ts.Collect(th)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("double retire reached the allocator: %v", err)
	}
	st := ts.Stats()
	if st.DoubleRetires != 1 {
		t.Fatalf("DoubleRetires = %d, want 1", st.DoubleRetires)
	}
	if st.Reclaimed != 1 {
		t.Fatalf("Reclaimed = %d, want 1", st.Reclaimed)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestDoubleRetireReferencedSurvives covers the nastier half of the
// duplicate bug: with two copies in the master buffer, the binary search
// marks only the first, so the sweep would free the other copy of a
// node a thread still references — a use-after-free, not just a double
// free.  Dedup leaves one copy, the mark protects it, and the node
// survives until released.
func TestDoubleRetireReferencedSurvives(t *testing.T) {
	s := testSim(2, 37)
	ts := New(s, Config{BufferSize: 16})
	var node uint64
	holding, release := false, false
	s.Spawn("reader", func(th *simt.Thread) {
		node = allocNode(th, 5, 11)
		holding = true
		for !release {
			th.Load(6, 5, 0)
			if th.Reg(6) != 11 {
				t.Error("referenced node clobbered")
				break
			}
		}
		th.SetReg(5, 0)
		th.SetReg(6, 0)
	})
	s.Spawn("bug", func(th *simt.Thread) {
		for !holding {
			th.Pause()
		}
		ts.Free(th, node)
		ts.Free(th, node) // double retire while still referenced
		churn(ts, th, 64) // force collects
		if !s.Heap().LiveAt(node) {
			t.Error("referenced double-retired node was freed")
		}
		release = true
		for s.Heap().LiveAt(node) {
			churn(ts, th, 16)
			th.Work(1000)
		}
		ts.FlushAll(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := ts.Stats(); st.DoubleRetires == 0 {
		t.Fatalf("duplicate never counted: %+v", st)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestFlushDrainsHelpQueueWithEmptyRings: a flush whose final collect
// finds every ring empty must still finish the HelpFree work deferred
// by the previous phase — the early return used to skip the drain and
// leak the whole queue at teardown.
func TestFlushDrainsHelpQueueWithEmptyRings(t *testing.T) {
	s := testSim(1, 53)
	ts := New(s, Config{BufferSize: 8, HelpFree: true})
	s.Spawn("worker", func(th *simt.Thread) {
		churn(ts, th, 8)
		ts.Collect(th) // defers all 8 to the classic slot's pending free list; rings now empty
		if left := ts.FlushAll(th); left != 0 {
			t.Errorf("FlushAll left %d help-queued nodes", left)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestWatermarkNoCollectStormWhenPinned: nodes pinned by live
// references are re-buffered as remarked every collect; they must not
// keep the watermark trigger armed, or every subsequent Free runs a
// futile signal-all collect that reclaims nothing.
func TestWatermarkNoCollectStormWhenPinned(t *testing.T) {
	const watermark = 16
	s := testSim(2, 59)
	ts := New(s, Config{BufferSize: 1024, CollectWatermark: watermark})
	release := false
	pinned := false
	s.Spawn("pinner", func(th *simt.Thread) {
		// Hold private references to `watermark` retired nodes: enough
		// pinned garbage to sit exactly at the trigger threshold.
		th.PushFrame(watermark)
		for i := 0; i < watermark; i++ {
			allocNode(th, 15, uint64(i))
			th.SetSlot(i, th.Reg(15))
			addr := th.Reg(15)
			th.SetReg(15, 0)
			ts.Free(th, addr)
		}
		pinned = true
		for !release {
			th.Pause()
		}
		for i := 0; i < watermark; i++ {
			th.SetSlot(i, 0)
		}
		th.PopFrame()
	})
	s.Spawn("worker", func(th *simt.Thread) {
		for !pinned {
			th.Pause()
		}
		churn(ts, th, 100) // 100 fresh frees against 16 pinned nodes
		st := ts.Stats()
		// Fresh retirement re-arms the trigger roughly once per
		// watermark's worth of frees — not once per Free.
		if max := uint64(100/watermark + 3); st.Collects > max {
			t.Errorf("collect storm: %d collects for 100 frees (want <= %d): %+v",
				st.Collects, max, st)
		}
		release = true
		for s.Heap().Stats().LiveBlocks > 0 {
			if ts.FlushAll(th) == 0 {
				break
			}
			th.Work(1000)
		}
		ts.FlushAll(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestWatermarkTriggersCollect: with the adaptive trigger, a collect
// starts when the global buffered count crosses the watermark — long
// before any single ring (here 16x the watermark) fills.
func TestWatermarkTriggersCollect(t *testing.T) {
	s := testSim(2, 41)
	ts := New(s, Config{BufferSize: 1024, CollectWatermark: 64})
	s.Spawn("worker", func(th *simt.Thread) {
		churn(ts, th, 200)
		if left := ts.FlushAll(th); left != 0 {
			t.Errorf("FlushAll left %d nodes", left)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := ts.Stats()
	if st.WatermarkCollects == 0 {
		t.Fatalf("watermark never triggered: %+v", st)
	}
	// No ring ever filled, so every master stayed near the watermark.
	if st.MaxMaster > 2*64 {
		t.Fatalf("MaxMaster = %d despite watermark 64", st.MaxMaster)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestShardedCollectReclaimsAll runs the hold-and-churn stress through
// the sharded pipeline: same safety and liveness as the serial collect,
// with the sort work visibly split into per-shard passes.
func TestShardedCollectReclaimsAll(t *testing.T) {
	s := testSim(3, 43)
	ts := New(s, Config{BufferSize: 24, Shards: 8})
	for i := 0; i < 4; i++ {
		s.Spawn("worker", func(th *simt.Thread) {
			for j := 0; j < 80; j++ {
				allocNode(th, 2, uint64(j))
				held := th.Reg(2)
				churn(ts, th, 3)
				th.Load(3, 2, 0)
				if th.Reg(3) != uint64(j) {
					t.Error("held node corrupted under sharded collect")
				}
				th.SetReg(2, 0)
				th.SetReg(3, 0)
				ts.Free(th, held)
			}
			ts.FlushAll(th)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := ts.Stats()
	if st.Reclaimed+st.HelpFreed != st.Frees {
		t.Fatalf("reclaimed %d+%d of %d frees", st.Reclaimed, st.HelpFreed, st.Frees)
	}
	if st.ShardsSorted <= st.Collects {
		t.Fatalf("sharded collect prepared %d shards over %d collects", st.ShardsSorted, st.Collects)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestShardedHelpProtocol: with sharding plus HelpFree, scanners must
// observably share the pipeline — sorting shards inside their handlers
// and claiming whole per-shard free lists to sweep.
func TestShardedHelpProtocol(t *testing.T) {
	s := simt.New(simt.Config{
		Cores: 3, Quantum: 2_000, Seed: 47,
		MaxCycles: 60_000_000_000,
		Heap:      simmem.Config{Words: 1 << 20, Check: true, Poison: true},
	})
	ts := New(s, Config{BufferSize: 64, Shards: 16, HelpFree: true})
	done := false
	s.Spawn("churner", func(th *simt.Thread) {
		churn(ts, th, 600)
		done = true
		ts.FlushAll(th)
	})
	for i := 0; i < 2; i++ {
		s.Spawn("scanner", func(th *simt.Thread) {
			for !done { // scans (and helps) when signaled
				th.Work(500)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := ts.Stats()
	if st.HelpSortedShards == 0 {
		t.Fatalf("scanners never help-sorted a shard: %+v", st)
	}
	if st.HelpSweptShards == 0 || st.HelpFreed == 0 {
		t.Fatalf("scanners never claimed a sweep list: %+v", st)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := testSim(2, 23)
	ts := New(s, Config{BufferSize: 16})
	s.Spawn("w", func(th *simt.Thread) {
		churn(ts, th, 100)
		ts.FlushAll(th)
	})
	s.Spawn("idle", func(th *simt.Thread) {
		th.Work(10_000_000)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := ts.Stats()
	if st.Frees != 100 {
		t.Errorf("Frees = %d", st.Frees)
	}
	if st.Reclaimed+st.HelpFreed != 100 {
		t.Errorf("Reclaimed = %d", st.Reclaimed)
	}
	if st.ScannedWords == 0 || st.ScannedThreads == 0 {
		t.Errorf("scan counters empty: %+v", st)
	}
	if st.MaxMaster == 0 || st.MaxMaster > 17 {
		t.Errorf("MaxMaster = %d", st.MaxMaster)
	}
	if st.CollectCycles == 0 {
		t.Errorf("no collect cycles recorded")
	}
}
