// Package simdetsched is simdeterminism testdata for the scheduler
// allowlist: a simulated package that IS the cooperative scheduler, so
// real goroutines/coroutines/channels/sync are its implementation — but
// wall clocks and global randomness stay banned.
package simdetsched

import (
	"iter"
	"sync"
	"time"
)

type sched struct {
	yield chan int   // ok: scheduler internals may use channels
	mu    sync.Mutex // ok: scheduler internals may use sync
}

func (s *sched) run() {
	go s.loop() // ok: scheduler internals may spawn goroutines
	s.yield <- 1
	<-s.yield
}

func (s *sched) coroutine(body iter.Seq[struct{}]) {
	next, stop := iter.Pull(body) // ok: scheduler internals may switch coroutines
	defer stop()
	next()
}

func (s *sched) loop() {
	s.mu.Lock()
	defer s.mu.Unlock()
}

func (s *sched) stamp() time.Time {
	return time.Now() // want "call to time.Now in simulated code"
}
