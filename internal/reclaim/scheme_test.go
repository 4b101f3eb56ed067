package reclaim

import (
	"fmt"
	"testing"

	"threadscan/internal/core"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

const nodeSize = 64

func testSim(cores int, seed int64) *simt.Sim {
	return simt.New(simt.Config{
		Cores:     cores,
		Quantum:   10_000,
		Seed:      seed,
		MaxCycles: 2_000_000_000,
		Heap:      simmem.Config{Words: 1 << 20, Check: true, Poison: true},
	})
}

func allocNode(th *simt.Thread, dst int, val uint64) uint64 {
	th.Alloc(dst, nodeSize)
	th.StoreImm(dst, 0, val)
	return th.Reg(dst)
}

// churn allocates and immediately retires n unreferenced nodes inside
// their own operations.
func churn(s Scheme, th *simt.Thread, n int) {
	for i := 0; i < n; i++ {
		s.BeginOp(th)
		allocNode(th, 15, uint64(i))
		addr := th.Reg(15)
		th.SetReg(15, 0)
		s.Retire(th, addr)
		s.EndOp(th)
	}
}

// makeScheme constructs every scheme under test with small batches so
// unit tests trigger reclamation quickly.
func makeScheme(name string, sim *simt.Sim) Scheme {
	switch name {
	case "leaky":
		return NewLeaky(sim)
	case "hazard":
		return NewHazard(sim, HazardConfig{Slots: 4, Batch: 24})
	case "epoch":
		return NewEpoch(sim, EpochConfig{Batch: 24})
	case "slow-epoch":
		return NewEpoch(sim, EpochConfig{Batch: 24, DelayCycles: 100_000})
	case "threadscan":
		return NewThreadScan(sim, core.Config{BufferSize: 24})
	case "threadscan-help":
		return NewThreadScan(sim, core.Config{BufferSize: 24, HelpFree: true, HelpFreeChunk: 8})
	case "stacktrack":
		return NewStackTrack(sim, StackTrackConfig{SegmentLen: 4, Batch: 24})
	case "hyaline":
		return NewHyaline(sim, HyalineConfig{Batch: 24})
	default:
		panic("unknown scheme " + name)
	}
}

var reclaimingSchemes = []string{
	"hazard", "epoch", "slow-epoch", "threadscan", "threadscan-help", "stacktrack", "hyaline",
}

// TestConformanceReclaimAll: every real scheme must, under a multi-
// threaded hold-and-churn workload on the checked heap, (a) never free
// a node that a thread may still dereference — a violation panics the
// run — and (b) reclaim everything once references are dropped.
func TestConformanceReclaimAll(t *testing.T) {
	for _, name := range reclaimingSchemes {
		name := name
		t.Run(name, func(t *testing.T) {
			s := testSim(2, 99)
			sc := makeScheme(name, s)
			disc := sc.Discipline()
			var flushLeft int
			done := make(chan struct{}) // host-side completion marker
			_ = done
			nWorkers := 3
			finished := 0
			for w := 0; w < nWorkers; w++ {
				s.Spawn("worker", func(th *simt.Thread) {
					for j := 0; j < 40; j++ {
						// Hold a node across churn, inside one op.
						sc.BeginOp(th)
						held := allocNode(th, 2, uint64(j))
						if disc != DisciplineNone {
							sc.Protect(th, 0, 2)
						}
						for k := 0; k < 3; k++ {
							allocNode(th, 14, 7)
							junk := th.Reg(14)
							th.SetReg(14, 0)
							sc.Retire(th, junk)
						}
						th.Load(3, 2, 0) // held node must still be live
						if th.Reg(3) != uint64(j) {
							t.Errorf("%s: held node corrupted", name)
						}
						th.SetReg(2, 0)
						th.SetReg(3, 0)
						sc.EndOp(th)
						// Retire the held node in a fresh op.
						sc.BeginOp(th)
						sc.Retire(th, held)
						sc.EndOp(th)
					}
					finished++
					if finished == nWorkers {
						flushLeft = sc.Flush(th)
					}
				})
			}
			if err := s.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if flushLeft != 0 {
				t.Fatalf("%s: Flush left %d nodes", name, flushLeft)
			}
			if live := s.Heap().Stats().LiveBlocks; live != 0 {
				t.Fatalf("%s: leaked %d blocks", name, live)
			}
			st := sc.Stats()
			want := uint64(nWorkers * 40 * 4)
			if st.Retired != want || st.Freed != want {
				t.Fatalf("%s: retired %d freed %d want %d", name, st.Retired, st.Freed, want)
			}
		})
	}
}

func TestLeakyLeaksEverything(t *testing.T) {
	s := testSim(1, 1)
	sc := NewLeaky(s)
	s.Spawn("w", func(th *simt.Thread) {
		churn(sc, th, 50)
		if sc.Flush(th) != 50 {
			t.Error("leaky should report its graveyard")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if st.Leaked != 50 || st.Freed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 50 {
		t.Fatalf("expected 50 leaked blocks, have %d", live)
	}
}

func TestHazardPinsPublishedNode(t *testing.T) {
	s := testSim(2, 5)
	h := NewHazard(s, HazardConfig{Slots: 2, Batch: 8})
	var node uint64
	published, release := false, false
	s.Spawn("reader", func(th *simt.Thread) {
		node = allocNode(th, 0, 77)
		h.Protect(th, 0, 0) // publish, fence
		published = true
		for !release {
			th.Load(1, 0, 0) // keep dereferencing under hazard
		}
		h.EndOp(th) // clears hazards
		th.SetReg(0, 0)
		th.SetReg(1, 0)
	})
	s.Spawn("reclaimer", func(th *simt.Thread) {
		for !published {
			th.Pause()
		}
		h.Retire(th, node)
		churn(h, th, 30) // many scans
		if !s.Heap().LiveAt(node) {
			t.Error("hazarded node was freed")
		}
		if h.Stats().Freed == 0 {
			t.Error("scans freed nothing at all")
		}
		release = true
		th.Work(50_000) // let the reader clear its hazard
		if left := h.Flush(th); left != 0 {
			t.Errorf("flush left %d", left)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d", live)
	}
}

func TestHazardOwnSlotsRespected(t *testing.T) {
	// A thread that retires while itself holding a hazard must not free
	// its own protected node (Retire can run mid-traversal).
	s := testSim(1, 6)
	h := NewHazard(s, HazardConfig{Slots: 2, Batch: 4})
	s.Spawn("self", func(th *simt.Thread) {
		node := allocNode(th, 0, 1)
		h.Protect(th, 0, 0)
		h.Retire(th, node) // unlinked but still in our hazard
		// Churn *within the same operation* (no EndOp, which would
		// clear our hazard) to force scans.
		for i := 0; i < 12; i++ {
			allocNode(th, 15, uint64(i))
			junk := th.Reg(15)
			th.SetReg(15, 0)
			h.Retire(th, junk)
		}
		if !s.Heap().LiveAt(node) {
			t.Error("own hazard ignored: node freed while protected")
		}
		th.Load(1, 0, 0) // still safe to use
		h.EndOp(th)
		th.SetReg(0, 0)
		th.SetReg(1, 0)
		h.Flush(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d", live)
	}
}

func TestEpochGraceWaitBlocksOnActiveThread(t *testing.T) {
	// A reclaimer must wait out a reader that is mid-operation, and the
	// wait must last until the reader's operation actually ends — the
	// exact dependence ThreadScan eliminates.
	const stall = 500_000
	s := testSim(3, 7)
	e := NewEpoch(s, EpochConfig{Batch: 8})
	inOp, finish := false, false
	var reclaimDone, readerDone int64
	s.Spawn("reader", func(th *simt.Thread) {
		e.BeginOp(th)
		node := allocNode(th, 0, 3)
		inOp = true
		for !finish { // stalled inside the operation
			th.Load(1, 0, 0)
		}
		th.SetReg(0, 0)
		th.SetReg(1, 0)
		e.Retire(th, node)
		e.EndOp(th)
		readerDone = th.Now()
	})
	s.Spawn("reclaimer", func(th *simt.Thread) {
		for !inOp {
			th.Pause()
		}
		churn(e, th, 9) // batch fills; EndOp must wait for the reader
		reclaimDone = th.Now()
	})
	s.Spawn("timer", func(th *simt.Thread) { // independent: breaks the stall
		for !inOp {
			th.Pause()
		}
		th.Work(stall)
		finish = true
	})
	s.Spawn("closer", func(th *simt.Thread) {
		for readerDone == 0 {
			th.Pause()
		}
		e.Flush(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.GraceWaits == 0 {
		t.Fatal("no grace wait recorded")
	}
	if st.GraceWaitCycles < stall/2 {
		t.Fatalf("grace wait %d cycles, expected to absorb most of the %d stall",
			st.GraceWaitCycles, stall)
	}
	if reclaimDone < stall/2 {
		t.Fatalf("reclaimer finished at %d, before the reader was released", reclaimDone)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d", live)
	}
}

// TestEpochFlushDrainsAllThreads is the teardown-leak regression: Flush
// must drain the retire lists of *other* still-registered (quiescent)
// threads, not just the caller's own list plus orphans.  Pre-fix, the
// two workers' lists survived the flush as phantom garbage.
func TestEpochFlushDrainsAllThreads(t *testing.T) {
	s := testSim(3, 12)
	e := NewEpoch(s, EpochConfig{Batch: 1024}) // batch never fills on its own
	const perWorker = 10
	retired := 0
	flushed := false
	for w := 0; w < 2; w++ {
		s.Spawn("worker", func(th *simt.Thread) {
			churn(e, th, perWorker)
			retired++
			for !flushed { // stay registered (alive) across the flush
				th.Pause()
			}
		})
	}
	s.Spawn("flusher", func(th *simt.Thread) {
		for retired < 2 {
			th.Pause()
		}
		if left := e.Flush(th); left != 0 {
			t.Errorf("Flush left %d nodes buffered", left)
		}
		flushed = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Freed != 2*perWorker {
		t.Fatalf("freed %d of %d retired", st.Freed, 2*perWorker)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

func TestSlowEpochStallsReclaimers(t *testing.T) {
	// The paper's Slow Epoch scenario: thread 0 busy-waits during its
	// cleanup phase while still mid-operation, and every concurrent
	// reclaimer inherits the delay as grace-wait time.
	const delay = 500_000
	s := testSim(2, 8)
	e := NewEpoch(s, EpochConfig{Batch: 8, DelayCycles: delay})
	stalling := false
	s.Spawn("victim", func(th *simt.Thread) { // thread 0: errant
		churn(e, th, 7) // fill the batch to one short of the trigger
		e.BeginOp(th)
		allocNode(th, 15, 0)
		junk := th.Reg(15)
		th.SetReg(15, 0)
		e.Retire(th, junk) // 8th retiree: cleanup due
		stalling = true
		e.EndOp(th) // 500k-cycle errant stall, then reclaim
	})
	s.Spawn("worker", func(th *simt.Thread) {
		for !stalling {
			th.Pause()
		}
		churn(e, th, 9) // reclaim at EndOp must wait out the victim
		e.Flush(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.GraceWaits == 0 {
		t.Fatal("no grace waits despite delayed victim")
	}
	if st.GraceWaitCycles < delay/2 {
		t.Fatalf("grace wait %d cycles; expected to inherit much of the %d delay",
			st.GraceWaitCycles, delay)
	}
}

// TestThreadScanUnaffectedByStalledOperation is the A4 contrast: the
// same errant mid-operation stall that cripples Epoch does not delay a
// ThreadScan collect, because the handler runs in the stalled thread
// regardless (signals interrupt the busy-wait).
func TestThreadScanUnaffectedByStalledOperation(t *testing.T) {
	s := testSim(2, 9)
	sc := NewThreadScan(s, core.Config{BufferSize: 8})
	stallDone := false
	var collectFinished int64
	s.Spawn("staller", func(th *simt.Thread) {
		sc.BeginOp(th)
		th.Work(20_000_000) // 20ms stall inside an "operation"
		sc.EndOp(th)
		stallDone = true
	})
	s.Spawn("worker", func(th *simt.Thread) {
		churn(sc, th, 30) // several collects during the stall
		collectFinished = th.Now()
		if stallDone {
			t.Error("collects did not finish during the stall")
		}
		sc.Flush(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if collectFinished == 0 || collectFinished > 20_000_000 {
		t.Fatalf("collects finished at %d; expected well within the stall", collectFinished)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d", live)
	}
}

func TestStackTrackPinsPublishedRef(t *testing.T) {
	s := testSim(2, 10)
	st := NewStackTrack(s, StackTrackConfig{SegmentLen: 2, Batch: 8})
	var node uint64
	holding, release := false, false
	s.Spawn("reader", func(th *simt.Thread) {
		st.BeginOp(th)
		node = allocNode(th, 0, 11)
		st.Protect(th, 0, 0) // steps force publications
		st.Protect(th, 0, 0)
		holding = true
		for !release {
			th.Load(1, 0, 0)
			st.Protect(th, 0, 0)
		}
		th.SetReg(0, 0)
		th.SetReg(1, 0)
		st.EndOp(th)
		st.BeginOp(th)
		st.Retire(th, node)
		st.EndOp(th)
	})
	s.Spawn("reclaimer", func(th *simt.Thread) {
		for !holding {
			th.Pause()
		}
		churn(st, th, 30)
		if !s.Heap().LiveAt(node) {
			t.Error("published reference ignored: node freed")
		}
		release = true
		th.Work(200_000)
		st.Flush(th)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d", live)
	}
}

func TestSchemeNamesAndDisciplines(t *testing.T) {
	s := testSim(1, 11)
	cases := []struct {
		sc   Scheme
		name string
		disc Discipline
	}{
		{NewLeaky(s), "leaky", DisciplineNone},
		{NewHazard(s, HazardConfig{}), "hazard", DisciplineHazard},
		{NewEpoch(s, EpochConfig{}), "epoch", DisciplineNone},
		{NewEpoch(s, EpochConfig{DelayCycles: 1}), "slow-epoch", DisciplineNone},
		{NewThreadScan(s, core.Config{}), "threadscan", DisciplineNone},
		{NewStackTrack(s, StackTrackConfig{}), "stacktrack", DisciplinePublish},
		{NewHyaline(s, HyalineConfig{}), "hyaline", DisciplineEra},
	}
	for _, c := range cases {
		if c.sc.Name() != c.name {
			t.Errorf("name: got %q want %q", c.sc.Name(), c.name)
		}
		if c.sc.Discipline() != c.disc {
			t.Errorf("%s: discipline %v want %v", c.name, c.sc.Discipline(), c.disc)
		}
	}
}

// TestScanningSchemesResolveInteriorPointers: the conservative scan of
// each scanning scheme keeps a node alive while a thread holds only a
// pointer into it (&node.field), not just one to its base.  A pointer
// one past the node's end names the next block and must not pin it.
func TestScanningSchemesResolveInteriorPointers(t *testing.T) {
	for _, name := range []string{"threadscan", "stacktrack"} {
		for _, tc := range []struct {
			off    uint64
			pinned bool
		}{{8, true}, {nodeSize - 8, true}, {nodeSize, false}} {
			t.Run(fmt.Sprintf("%s/base+%d", name, tc.off), func(t *testing.T) {
				s := testSim(2, 3)
				sc := makeScheme(name, s)
				var node uint64
				holding, release, done := false, false, false
				s.Spawn("holder", func(th *simt.Thread) {
					sc.BeginOp(th)
					node = allocNode(th, 0, 7)
					th.SetReg(0, node+tc.off) // the derived pointer is the only reference
					holding = true
					for !release {
						sc.Protect(th, 1, 0) // StackTrack publishes at segment ends
						th.Pause()
					}
					th.SetReg(0, 0)
					sc.EndOp(th)
					done = true
				})
				s.Spawn("reclaimer", func(th *simt.Thread) {
					for !holding {
						th.Pause()
					}
					sc.BeginOp(th)
					sc.Retire(th, node)
					sc.EndOp(th)
					sc.Flush(th)
					if freed := sc.Stats().Freed == 1; freed == tc.pinned {
						t.Errorf("holding base+%d: node freed = %v, want %v", tc.off, freed, !tc.pinned)
					}
					release = true
					for !done {
						th.Pause()
					}
					sc.Flush(th)
				})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if live := s.Heap().Stats().LiveBlocks; live != 0 {
					t.Fatalf("leaked %d", live)
				}
			})
		}
	}
}
