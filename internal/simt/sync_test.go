package simt

import (
	"testing"
	"testing/quick"
)

func TestMutexMutualExclusion(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 4
	s := New(cfg)
	m := s.NewMutex("counter")
	inside := 0
	violations := 0
	counter := 0
	for i := 0; i < 8; i++ {
		s.Spawn("w", func(th *Thread) {
			for j := 0; j < 50; j++ {
				m.Lock(th)
				inside++
				if inside != 1 {
					violations++
				}
				th.Work(100)
				counter++
				inside--
				m.Unlock(th)
				th.Work(50)
			}
		})
	}
	mustRun(t, s)
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
	if counter != 400 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestMutexTryLock(t *testing.T) {
	s := New(testConfig())
	m := s.NewMutex("try")
	s.Spawn("t", func(th *Thread) {
		if !m.TryLock(th) {
			t.Error("TryLock on free mutex failed")
		}
		if m.TryLock(th) {
			t.Error("TryLock on held mutex succeeded")
		}
		m.Unlock(th)
		if !m.TryLock(th) {
			t.Error("TryLock after unlock failed")
		}
		m.Unlock(th)
	})
	mustRun(t, s)
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	s := New(testConfig())
	m := s.NewMutex("owner")
	holder := make(chan struct{}) // host-level: only to sequence spawns
	_ = holder
	s.Spawn("a", func(th *Thread) {
		m.Lock(th)
		th.Work(10_000)
		m.Unlock(th)
	})
	s.Spawn("b", func(th *Thread) {
		th.Work(100)
		defer func() {
			if recover() == nil {
				t.Error("unlock by non-owner did not panic")
			}
		}()
		m.Unlock(th)
	})
	// The panic in b surfaces as a ThreadPanic only if not recovered;
	// we recover inside, so the run can still fail if a was blocked.
	_ = s.Run()
}

func TestWaitQueueFIFO(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 1
	s := New(cfg)
	q := s.NewWaitQueue("fifo")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn("waiter", func(th *Thread) {
			th.Work(int64(i+1) * 1000) // stagger arrival
			q.Wait(th)
			order = append(order, i)
		})
	}
	s.Spawn("waker", func(th *Thread) {
		th.Work(50_000)
		for q.Len() > 0 {
			q.WakeOne(th)
			th.Work(10_000)
		}
	})
	mustRun(t, s)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order: %v", order)
	}
}

func TestWakeAll(t *testing.T) {
	s := New(testConfig())
	q := s.NewWaitQueue("all")
	done := 0
	for i := 0; i < 5; i++ {
		s.Spawn("waiter", func(th *Thread) {
			q.Wait(th)
			done++
		})
	}
	s.Spawn("waker", func(th *Thread) {
		th.Work(50_000)
		if n := q.WakeAll(th); n != 5 {
			t.Errorf("WakeAll woke %d", n)
		}
	})
	mustRun(t, s)
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
}

func TestBarrierAlignsThreads(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 4
	s := New(cfg)
	b := s.NewBarrier("start", 4)
	var after []int64
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn("w", func(th *Thread) {
			th.Work(int64(i) * 100_000) // very uneven arrival
			b.Await(th)
			after = append(after, th.Now())
		})
	}
	mustRun(t, s)
	min, max := after[0], after[0]
	for _, v := range after[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min > 100_000 {
		t.Fatalf("barrier did not align threads: spread %d", max-min)
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	s := New(cfg)
	b := s.NewBarrier("gen", 2)
	counts := [2]int{}
	for i := 0; i < 2; i++ {
		s.Spawn("w", func(th *Thread) {
			for g := 0; g < 2; g++ {
				b.Await(th)
				counts[g]++
			}
		})
	}
	mustRun(t, s)
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("generation counts: %v", counts)
	}
}

// TestQuickMutexNeverCorrupts property-checks mutual exclusion over
// random thread counts, hold times and seeds, including chaos mode.
func TestQuickMutexNeverCorrupts(t *testing.T) {
	f := func(seed int64, nRaw, holdRaw uint8, chaos bool) bool {
		n := int(nRaw)%6 + 2
		hold := int64(holdRaw)%500 + 1
		cfg := testConfig()
		cfg.Cores = 3
		cfg.Seed = seed
		cfg.Chaos = chaos
		s := New(cfg)
		m := s.NewMutex("q")
		inside, bad, total := 0, 0, 0
		for i := 0; i < n; i++ {
			s.Spawn("w", func(th *Thread) {
				for j := 0; j < 20; j++ {
					m.Lock(th)
					inside++
					if inside != 1 {
						bad++
					}
					th.Work(hold)
					inside--
					total++
					m.Unlock(th)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Log(err)
			return false
		}
		return bad == 0 && total == n*20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeScanBarrier: the owner arms the handshake, signals its
// expectations, and Await releases only after every party acked —
// while still answering its own interrupts (Await spins through
// safepoints).  This is the collect's scan barrier extracted.
func TestHandshakeScanBarrier(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 4
	s := New(cfg)
	hs := s.NewHandshake("test")
	const parties = 3
	released := false
	acked := 0
	go1 := false
	interrupts := 0
	var owner *Thread
	s.SetSignalHandler(1, func(th *Thread) {
		if th == owner {
			interrupts++
		}
	})
	var party []*Thread
	for i := 0; i < parties; i++ {
		party = append(party, s.Spawn("party", func(th *Thread) {
			for !go1 {
				th.Pause()
			}
			th.Work(int64(500 * (th.ID() + 1))) // stagger the acks
			if th == party[0] {
				th.Signal(owner, 1) // interrupt the owner's wait
			}
			acked++
			hs.AckFrom(th)
		}))
	}
	owner = s.Spawn("owner", func(th *Thread) {
		hs.Arm()
		for _, p := range party {
			hs.ExpectFrom(p)
		}
		if hs.Need() != parties {
			t.Errorf("armed handshake: need %d, want %d", hs.Need(), parties)
		}
		for _, p := range party {
			if !hs.Wants(p) {
				t.Errorf("armed handshake does not want party %d", p.ID())
			}
		}
		if hs.Wants(th) {
			t.Error("armed handshake wants the owner")
		}
		go1 = true
		hs.Await(th)
		released = true
		if acked != parties {
			t.Errorf("owner released after %d of %d acks", acked, parties)
		}
		if interrupts != 1 {
			t.Errorf("owner answered %d interrupts while waiting, want 1", interrupts)
		}
		for _, p := range party {
			if hs.Wants(p) {
				t.Errorf("party %d still wanted after release", p.ID())
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !released {
		t.Fatal("owner never released")
	}
	// Re-arming resets the generation.
	hs.Arm()
	if hs.Need() != 0 {
		t.Fatalf("re-armed handshake not empty: need %d", hs.Need())
	}
	for _, p := range party {
		if hs.Wants(p) {
			t.Fatalf("re-armed handshake still wants party %d", p.ID())
		}
	}
}
