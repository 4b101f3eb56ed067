package simt

// Synchronization primitives built on the scheduler.  Because exactly
// one simulated thread runs between safepoints, any sequence of Go-level
// state manipulation inside these primitives is atomic with respect to
// the simulation; the primitives only need to manage blocking and
// wakeup ordering.
//
// All waits here are *interruptible*: a signal removes the waiter from
// the queue, runs its handler, and the primitive retries.  This mirrors
// POSIX (futex waits return EINTR) and is load-bearing for ThreadScan —
// a thread blocked on the reclamation lock must still answer a scan
// request, or collect could deadlock (paper §4.2, "Progress").

// WaitQueue is a FIFO queue of blocked threads.
type WaitQueue struct {
	sim     *Sim
	name    string
	waiters []*Thread
}

// NewWaitQueue creates a wait queue; name appears in deadlock reports.
func (s *Sim) NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{sim: s, name: name}
}

// Wait blocks the calling thread until WakeOne/WakeAll releases it or a
// signal interrupts it.  Pending handlers have run by the time Wait
// returns.  Returns true if the wait was interrupted by a signal.
func (q *WaitQueue) Wait(t *Thread) (interrupted bool) {
	q.waiters = append(q.waiters, t)
	t.waitQ = q
	t.yieldCore(yBlock)
	intr := t.interrupted
	t.interrupted = false
	t.safepoint()
	return intr
}

// WakeOne wakes the longest-waiting thread, if any.  Must be called
// from a running thread's context.
func (q *WaitQueue) WakeOne(waker *Thread) bool {
	if len(q.waiters) == 0 {
		return false
	}
	w := q.waiters[0]
	copy(q.waiters, q.waiters[1:])
	q.waiters = q.waiters[:len(q.waiters)-1]
	q.wake(w, waker)
	return true
}

// WakeAll wakes every waiter, returning the number woken.
func (q *WaitQueue) WakeAll(waker *Thread) int {
	n := len(q.waiters)
	for _, w := range q.waiters {
		q.wake(w, waker)
	}
	q.waiters = q.waiters[:0]
	return n
}

func (q *WaitQueue) wake(w *Thread, waker *Thread) {
	w.waitQ = nil
	w.runnable = true
	w.readyAt = maxI64(w.now, waker.now+q.sim.cfg.Costs.WakeLatency)
	q.sim.stats.Wakeups++
}

// Len returns the number of waiters.
func (q *WaitQueue) Len() int { return len(q.waiters) }

// remove deletes t from the queue (signal interruption path).
func (q *WaitQueue) remove(t *Thread) {
	for i, w := range q.waiters {
		if w == t {
			copy(q.waiters[i:], q.waiters[i+1:])
			q.waiters = q.waiters[:len(q.waiters)-1]
			return
		}
	}
}

// Mutex is a blocking, signal-interruptible mutual-exclusion lock.
// Fairness is FIFO-wakeup with competitive reacquire.
type Mutex struct {
	sim    *Sim
	q      *WaitQueue
	locked bool
	owner  *Thread
}

// NewMutex creates a mutex; name appears in deadlock reports.
func (s *Sim) NewMutex(name string) *Mutex {
	return &Mutex{sim: s, q: s.NewWaitQueue("mutex " + name)}
}

// Lock acquires the mutex, blocking as needed.  Signal handlers run
// while blocked (the wait is interruptible), so a thread parked on a
// lock still answers scan requests.
func (m *Mutex) Lock(t *Thread) {
	t.charge(m.sim.cfg.Costs.CAS)
	t.safepoint()
	for m.locked {
		m.q.Wait(t)
		t.charge(m.sim.cfg.Costs.CAS)
	}
	m.locked = true
	m.owner = t
}

// TryLock acquires the mutex if it is free, reporting success.
func (m *Mutex) TryLock(t *Thread) bool {
	t.charge(m.sim.cfg.Costs.CAS)
	t.safepoint()
	if m.locked {
		return false
	}
	m.locked = true
	m.owner = t
	return true
}

// Unlock releases the mutex and wakes one waiter.
func (m *Mutex) Unlock(t *Thread) {
	if !m.locked || m.owner != t {
		panic("simt: Unlock of mutex not held by caller")
	}
	m.locked = false
	m.owner = nil
	t.charge(m.sim.cfg.Costs.Store)
	m.q.WakeOne(t)
}

// Handshake is the one-to-many acknowledgement barrier at the heart of
// a scan phase: an owner arms it, registers one expectation per party
// it signals, and spins until every party has acked.  ThreadScan's
// collect uses it as the scan barrier — and, under per-node
// reclamation, it is the *only* cross-node synchronization a collect
// performs: aggregation and sweep stay node-local, the handshake alone
// spans the machine.
//
// Cycle accounting is deliberately asymmetric, mirroring the protocol:
// AckFrom is free here (the acking side charges its own store+fence at the
// call site, exactly as a real ACK flag write would cost), while Await
// burns the owner's cycles in Pause spin-waits — the reclaimer-side
// wait the paper's Figure 4 charges to oversubscription.
// With concurrent collects, several handshakes can be armed at once
// against the same signal number; signal coalescing then delivers ONE
// handler run for several owners' sends.  ExpectFrom/Wants/AckFrom
// track *which* threads each owner is waiting on, so a handler can
// snapshot every handshake that wants it and satisfy them all with a
// single scan pass (one scan epoch shared across overlapping
// collects).
type Handshake struct {
	sim   *Sim
	name  string
	need  int
	got   int
	wants []bool // thread-id-indexed: owner awaits this thread's ack
}

// NewHandshake creates a handshake; name appears in diagnostics.
func (s *Sim) NewHandshake(name string) *Handshake {
	return &Handshake{sim: s, name: name}
}

// Arm resets the handshake for a new phase: zero expected, zero acked.
func (h *Handshake) Arm() {
	h.need, h.got = 0, 0
	for i := range h.wants {
		h.wants[i] = false
	}
}

// ExpectFrom registers one specific party the owner will wait for, so
// that party's handler can discover the expectation via Wants.
func (h *Handshake) ExpectFrom(t *Thread) {
	id := t.ID()
	for id >= len(h.wants) {
		h.wants = append(h.wants, false)
	}
	h.wants[id] = true
	h.need++
}

// Wants reports whether the owner is waiting on an ack from t.
func (h *Handshake) Wants(t *Thread) bool {
	id := t.ID()
	return id < len(h.wants) && h.wants[id]
}

// AckFrom records t's acknowledgement of an ExpectFrom expectation.
// Bookkeeping only — the caller charges the visible-store cost of its
// ACK itself.
func (h *Handshake) AckFrom(t *Thread) {
	if id := t.ID(); id < len(h.wants) {
		h.wants[id] = false
	}
	h.got++
}

// Await spins (interruptibly — SpinWait passes safepoints, so the owner
// still answers signals) until every expected party has acked.
func (h *Handshake) Await(t *Thread) {
	t.SpinWait(h.acked)
}

func (h *Handshake) acked() bool { return h.got >= h.need }

// Need returns the number of parties the current phase expects.
func (h *Handshake) Need() int { return h.need }

// Barrier blocks threads until n of them arrive, then releases the
// generation together.  Used by workloads to align start lines.
type Barrier struct {
	sim     *Sim
	q       *WaitQueue
	n       int
	arrived int
	gen     int
}

// NewBarrier creates a barrier for n threads.
func (s *Sim) NewBarrier(name string, n int) *Barrier {
	return &Barrier{sim: s, q: s.NewWaitQueue("barrier " + name), n: n}
}

// Await blocks until n threads have called Await for this generation.
func (b *Barrier) Await(t *Thread) {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.q.WakeAll(t)
		t.Step()
		return
	}
	for b.gen == gen {
		b.q.Wait(t)
	}
}
