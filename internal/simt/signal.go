package simt

// Signal delivery — the substrate ThreadScan is built on (paper §4.2,
// "Signaling").  Semantics mirror POSIX:
//
//   - A signal to a *running* thread is handled at its next safepoint
//     (the OS interrupts between instructions).
//   - A signal to a thread blocked in an interruptible wait (Sleep,
//     WaitQueue.Wait, Mutex.Lock) wakes it; the handler runs and the
//     wait either resumes or reports interruption (EINTR).
//   - A signal to a *descheduled* thread (oversubscription) is handled
//     when the thread is next dispatched — this queueing delay is the
//     mechanism behind the paper's Figure 4 overheads.
//   - Handlers run in the context of the receiving thread.  Delivery of
//     further signals is masked while a handler runs; pending signals
//     are delivered when it returns.

// Signal sends sig to target.  It must be called from the sending
// thread's own context.  Sending to an exited thread is a no-op that
// reports false.
func (t *Thread) Signal(target *Thread, sig SigNum) bool {
	if sig < 0 || sig >= MaxSignals {
		panic("simt: signal number out of range")
	}
	s := t.sim
	t.charge(s.cfg.Costs.SignalSend)
	if target.exited {
		return false
	}
	s.stats.SignalsSent++
	if p := s.probe; p != nil {
		p.SignalSent(t, target)
	}
	target.sigPending |= 1 << uint(sig)
	if target == t {
		// Self-signal: handled at the sender's next safepoint.
		return true
	}
	wake := t.now + s.cfg.Costs.WakeLatency
	switch {
	case target.waitQ != nil:
		// Blocked in an interruptible wait: wake it to run the handler.
		target.waitQ.remove(target)
		target.waitQ = nil
		target.interrupted = true
		target.runnable = true
		target.readyAt = maxI64(target.now, wake)
		s.stats.Wakeups++
	case target.sleeping:
		// Sleeping: cut the sleep short (EINTR).
		target.interrupted = true
		if wake < target.readyAt {
			target.readyAt = maxI64(target.now, wake)
		}
	}
	// Runnable or running: the pending bit is observed at the target's
	// next safepoint, after it gets (or keeps) a core.
	return true
}

// deliverSignals runs handlers for every pending signal, lowest number
// first.  Called only from safepoints with sigDepth == 0.
func (t *Thread) deliverSignals() {
	for sig := SigNum(0); sig < MaxSignals; sig++ {
		bit := uint32(1) << uint(sig)
		if t.sigPending&bit == 0 {
			continue
		}
		t.sigPending &^= bit
		h := t.sim.handlers[sig]
		t.sim.stats.SignalsDelivered++
		t.sigDepth++
		t.charge(t.sim.cfg.Costs.SignalDeliver)
		if h != nil {
			h(t, sig)
		}
		t.sigDepth--
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
