package simt

import (
	"errors"
	"fmt"
	"testing"
)

// inThread runs body inside a one-thread simulation and fails the test
// on simulation error.
func inThread(t *testing.T, body func(th *Thread)) *Sim {
	t.Helper()
	s := New(testConfig())
	s.Spawn("t", body)
	mustRun(t, s)
	return s
}

func TestRegisterFile(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.SetReg(0, 123)
		th.SetReg(15, 456)
		if th.Reg(0) != 123 || th.Reg(15) != 456 {
			t.Error("register round trip failed")
		}
		th.CopyReg(1, 0)
		if th.Reg(1) != 123 {
			t.Error("CopyReg failed")
		}
	})
}

// TestRegisterBounds pins the out-of-range register panic on every
// path that checks a register index: reads, writes, and a load's
// destination.
func TestRegisterBounds(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.Alloc(0, 8)
		for _, tc := range []struct {
			r   int
			use func()
		}{
			{NumRegs, func() { th.SetReg(NumRegs, 1) }},
			{-1, func() { th.SetReg(-1, 1) }},
			{-1, func() { th.Reg(-1) }},
			{NumRegs, func() { th.Reg(NumRegs) }},
			{NumRegs, func() { th.Load(NumRegs, 0, 0) }},
			{-1, func() { th.Load(-1, 0, 0) }},
		} {
			want := fmt.Sprintf("simt: register %d out of range", tc.r)
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("register %d: panic %v, want %q", tc.r, got, want)
					}
				}()
				tc.use()
			}()
		}
	})
}

func TestLoadStoreThroughRegisters(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.Alloc(0, 64)
		th.SetReg(1, 777)
		th.Store(0, 2, 1)
		th.Load(2, 0, 2)
		if th.Reg(2) != 777 {
			t.Errorf("load got %d", th.Reg(2))
		}
		th.StoreImm(0, 3, 42)
		th.Load(3, 0, 3)
		if th.Reg(3) != 42 {
			t.Errorf("imm load got %d", th.Reg(3))
		}
	})
}

func TestCASThroughRegisters(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.Alloc(0, 8)
		th.StoreImm(0, 0, 5)
		th.SetReg(1, 5)
		th.SetReg(2, 9)
		if !th.CAS(0, 0, 1, 2) {
			t.Error("CAS should succeed")
		}
		if th.CAS(0, 0, 1, 2) {
			t.Error("CAS should fail the second time")
		}
		th.Load(3, 0, 0)
		if th.Reg(3) != 9 {
			t.Errorf("after CAS: %d", th.Reg(3))
		}
	})
}

func TestStackFrames(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.PushFrame(4)
		th.SetSlot(0, 10)
		th.SetSlot(3, 13)
		th.PushFrame(2)
		th.SetSlot(0, 99)
		if th.Slot(0) != 99 {
			t.Error("inner frame slot wrong")
		}
		th.PopFrame()
		if th.Slot(0) != 10 || th.Slot(3) != 13 {
			t.Error("outer frame clobbered")
		}
		th.PopFrame()
		if th.StackDepth() != 0 {
			t.Errorf("stack not empty: %d", th.StackDepth())
		}
	})
}

func TestStackOverflowPanics(t *testing.T) {
	inThread(t, func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("stack overflow did not panic")
			}
		}()
		for {
			th.PushFrame(64)
		}
	})
}

func TestFrameSlotsZeroed(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.PushFrame(3)
		th.SetSlot(1, 55)
		th.PopFrame()
		th.PushFrame(3)
		if th.Slot(1) != 0 {
			t.Error("recycled frame slot not zeroed")
		}
		th.PopFrame()
	})
}

func TestScanRootsSeesRegistersAndStack(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.SetReg(4, 0xAAAA0)
		th.PushFrame(2)
		th.SetSlot(1, 0xBBBB0)
		found := map[uint64]bool{}
		th.ScanRoots(func(w uint64) { found[w] = true })
		if !found[0xAAAA0] || !found[0xBBBB0] {
			t.Errorf("scan missed roots: %v", found)
		}
		if th.RootWords() != NumRegs+2 {
			t.Errorf("RootWords = %d", th.RootWords())
		}
		th.PopFrame()
	})
}

func TestScanDoesNotSeePoppedFrame(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.PushFrame(1)
		th.SetSlot(0, 0xCCCC0)
		th.PopFrame()
		th.PushFrame(1) // zeroed
		seen := false
		th.ScanRoots(func(w uint64) {
			if w == 0xCCCC0 {
				seen = true
			}
		})
		if seen {
			t.Error("scan saw a dead stack slot")
		}
		th.PopFrame()
	})
}

func TestLoadResultNeverInFlight(t *testing.T) {
	// A handler delivered during a Load must either see the old register
	// value or the loaded value — the address being loaded *from* is in
	// a register, so the node stays protected throughout.  This is the
	// register-discipline property Lemma 1's proof leans on.
	cfg := testConfig()
	s := New(cfg)
	var observed []uint64
	s.SetSignalHandler(0, func(th *Thread) {
		th.ScanRoots(func(w uint64) {
			if w != 0 {
				observed = append(observed, w)
			}
		})
	})
	var nodeAddr uint64
	target := s.Spawn("reader", func(th *Thread) {
		th.Alloc(0, 16)
		nodeAddr = th.Reg(0)
		th.StoreImm(0, 0, 0)
		for i := 0; i < 30_000; i++ { // long enough to span many quanta
			th.Load(1, 0, 0)
		}
	})
	s.Spawn("signaler", func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Work(1_000)
			th.Signal(target, 0)
		}
	})
	mustRun(t, s)
	// Every observation that is an address must be the node address —
	// at every interruption point the register file held it.
	sawNode := false
	for _, w := range observed {
		if w == nodeAddr {
			sawNode = true
		}
	}
	if !sawNode {
		t.Fatal("handler never observed the node address in the register file")
	}
}

func TestWorkChargesExactly(t *testing.T) {
	inThread(t, func(th *Thread) {
		before := th.Cycles()
		th.Work(12345)
		if got := th.Cycles() - before; got != 12345 {
			t.Errorf("Work charged %d, want 12345", got)
		}
	})
}

func TestAllocFreeViaThread(t *testing.T) {
	s := inThread(t, func(th *Thread) {
		th.Alloc(0, 172)
		th.StoreImm(0, 0, 1)
		th.FreeAddr(th.Reg(0))
	})
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

func TestLoadAddrStoreAddr(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.Alloc(0, 32)
		addr := th.Reg(0)
		th.StoreAddr(addr+8, 31)
		if got := th.LoadAddr(addr + 8); got != 31 {
			t.Errorf("LoadAddr got %d", got)
		}
	})
}

func TestOpsCounter(t *testing.T) {
	inThread(t, func(th *Thread) {
		th.AddOps(3)
		th.AddOps(4)
		if th.Ops() != 7 {
			t.Errorf("ops = %d", th.Ops())
		}
	})
}

func TestHeapViolationIdentifiesThread(t *testing.T) {
	s := New(testConfig())
	s.Spawn("good", func(th *Thread) { th.Work(100) })
	s.Spawn("bad", func(th *Thread) {
		th.SetReg(0, 0)
		th.Load(1, 0, 0) // nil deref
	})
	err := s.Run()
	var tp *ThreadPanic
	if !errors.As(err, &tp) {
		t.Fatalf("want ThreadPanic, got %v", err)
	}
	if tp.Name != "bad" {
		t.Fatalf("blamed wrong thread: %s", tp.Name)
	}
}
