package simt

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// pauseLoop is the literal per-PAUSE spin SpinWait folds: the reference
// the primitive must reproduce.
func pauseLoop(th *Thread, done func() bool) {
	for !done() {
		th.Pause()
	}
}

func spinWait(th *Thread, done func() bool) { th.SpinWait(done) }

// spinRun is one run of the spin scenario: the event log, and what the
// reference run's done closures saw (the coverage the cases rely on).
type spinRun struct {
	log                           []string
	calls                         int // done evaluations
	pendingOnEntry, overrunEntry  bool
	pendingInHandler, quantumWrap bool
}

// runSpinScenario has a spinner wait, through wait, on flags a setter
// raises one by one while a signaller keeps signalling it:
//
//	A: a plain wait spanning quantum boundaries, signals arriving;
//	B: entered with the quantum already overrun (now >= quantumEnd);
//	C: entered with a self-signal pending;
//	D: a wait during which signal 0 arrives, whose handler itself waits
//	   (E) while signal 1 is sent to the spinner and stays pending.
//
// Every handler entry, every wait's return and every clock advance is
// logged with the spinner's clocks, so twin runs agree only if every
// signal lands and every quantum ends at the same cycle.
func runSpinScenario(cfg Config, wait func(*Thread, func() bool)) spinRun {
	var r spinRun
	s := New(cfg)
	var spinner *Thread
	var flags [5]bool // A..E
	snap := func(tag string) {
		r.log = append(r.log, fmt.Sprintf("%s now=%d cycles=%d wait=%d handler=%d",
			tag, spinner.Now(), spinner.Cycles(), spinner.WaitCycles(), spinner.HandlerCycles()))
	}
	until := func(i int) func() bool {
		return func() bool {
			r.calls++
			if spinner.sigDepth > 0 && spinner.sigPending != 0 {
				r.pendingInHandler = true
			}
			return flags[i]
		}
	}
	s.OnClockAdvance(func(now int64) { r.log = append(r.log, fmt.Sprintf("clock %d", now)) })
	s.SetSignalHandler(0, func(th *Thread) {
		snap("sig0")
		wait(th, until(4))
		snap("sig0 done")
	})
	s.SetSignalHandler(1, func(th *Thread) {
		snap("sig1")
		th.Step()
	})
	spinner = s.Spawn("spinner", func(th *Thread) {
		wait(th, until(0))
		snap("A")

		th.Charge(3 * cfg.Quantum / 2)
		if th.now >= th.quantumEnd {
			r.overrunEntry = true
		}
		wait(th, until(1))
		snap("B")

		th.Signal(th, 1)
		r.pendingOnEntry = th.sigPending != 0
		wait(th, until(2))
		snap("C")

		wait(th, until(3))
		snap("D")
	})
	s.Spawn("setter", func(th *Thread) {
		for i := range flags {
			th.Work(7 * cfg.Quantum / 3)
			if i == 4 {
				// Signal 1 reaches the spinner while it waits inside
				// the signal-0 handler: pending but not deliverable.
				th.Signal(spinner, 1)
				th.Work(cfg.Quantum)
			}
			flags[i] = true
			if i == 3 {
				th.Signal(spinner, 0)
			}
		}
	})
	s.Spawn("signaller", func(th *Thread) {
		for i := 0; i < 12; i++ {
			th.Work(cfg.Quantum / 2)
			th.Signal(spinner, 1)
		}
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	snap("end")
	r.quantumWrap = s.Stats().Dispatches > 3
	r.log = append(r.log, fmt.Sprintf("stats %+v clock %d", s.Stats(), s.Clock()))
	for _, th := range s.Threads() {
		r.log = append(r.log, fmt.Sprintf("thread %d now=%d cycles=%d wait=%d handler=%d",
			th.ID(), th.Now(), th.Cycles(), th.WaitCycles(), th.HandlerCycles()))
	}
	return r
}

// TestSpinWaitMatchesPauseLoop checks SpinWait against the per-PAUSE
// loop it replaces: clocks, cycle accounts and signal delivery points
// must agree at every logged event, on flat and Chaos quanta, while
// SpinWait evaluates its condition far less often.
func TestSpinWaitMatchesPauseLoop(t *testing.T) {
	for _, cfg := range []Config{
		{Cores: 2, Quantum: 1009},
		{Cores: 1, Quantum: 3000},
		{Cores: 2, Quantum: 1009, Chaos: true, Seed: 7},
		{Cores: 3, Quantum: 5000, Chaos: true, Seed: 11},
	} {
		t.Run(fmt.Sprintf("cores%d-q%d-chaos%v", cfg.Cores, cfg.Quantum, cfg.Chaos), func(t *testing.T) {
			ref := runSpinScenario(cfg, pauseLoop)
			got := runSpinScenario(cfg, spinWait)
			if !ref.pendingOnEntry || !ref.overrunEntry || !ref.pendingInHandler || !ref.quantumWrap {
				t.Fatalf("scenario misses a case: pendingOnEntry=%v overrunEntry=%v pendingInHandler=%v quantumWrap=%v",
					ref.pendingOnEntry, ref.overrunEntry, ref.pendingInHandler, ref.quantumWrap)
			}
			if !reflect.DeepEqual(got.log, ref.log) {
				for i := range min(len(got.log), len(ref.log)) {
					if got.log[i] != ref.log[i] {
						t.Fatalf("event %d differs:\n SpinWait:   %s\n Pause loop: %s", i, got.log[i], ref.log[i])
					}
				}
				t.Fatalf("event logs differ in length: SpinWait %d, Pause loop %d", len(got.log), len(ref.log))
			}
			if got.calls*4 > ref.calls {
				t.Errorf("SpinWait evaluated done %d times, Pause loop %d: the futile PAUSEs were not folded", got.calls, ref.calls)
			}
		})
	}
}

// TestReleaseUnwindsParkedThreads checks that an aborted run leaves no
// thread coroutine behind: bodies parked mid-run unwind through their
// deferred calls, and never-dispatched ones never start.
func TestReleaseUnwindsParkedThreads(t *testing.T) {
	cases := []struct {
		name  string
		build func(s *Sim, parked func(*Thread))
		want  any
	}{
		{"deadlock", func(s *Sim, parked func(*Thread)) {
			q := s.NewWaitQueue("never")
			for i := 0; i < 3; i++ {
				s.Spawn("waiter", func(th *Thread) {
					defer parked(th)
					q.Wait(th)
				})
			}
		}, new(*DeadlockError)},
		{"panic", func(s *Sim, parked func(*Thread)) {
			for i := 0; i < 3; i++ {
				s.Spawn("sleeper", func(th *Thread) {
					defer parked(th)
					th.Sleep(1 << 40)
				})
			}
			s.Spawn("panicker", func(th *Thread) {
				th.Step()
				panic("boom")
			})
			s.Spawn("never dispatched", func(th *Thread) {
				defer parked(th)
			})
		}, new(*ThreadPanic)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := New(Config{Cores: 1})
			unwound := 0
			tc.build(s, func(*Thread) { unwound++ })
			err := s.Run()
			if !errors.As(err, tc.want) {
				t.Fatalf("Run returned %v, want %T", err, reflect.ValueOf(tc.want).Elem().Interface())
			}
			if unwound != 3 {
				t.Errorf("%d parked bodies ran their deferred calls, want 3", unwound)
			}
			// Fewer is fine: a goroutine left by an earlier test may
			// finish meanwhile.  More is a leaked thread coroutine.
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before Run, %d after", before, after)
			}
		})
	}
}
