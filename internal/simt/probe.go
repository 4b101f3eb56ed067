package simt

// Probe receives host-side notifications from the simulation's hot
// paths: allocator latencies, cross-node traffic, and signal sends.
// It exists so an observability layer can watch the substrate without
// simt importing it (the recorder lives above simt in the package DAG).
//
// Contract: a probe must never charge virtual cycles or otherwise
// perturb simulation state — callbacks fire after the instrumented
// operation has fully settled, and everything the scheduler decides on
// (clocks, queues, RNGs) must be identical with and without a probe
// attached.  All callbacks run in the acting thread's context, so like
// every other simt surface they need no synchronization.
type Probe interface {
	// Alloc fires after Thread.Alloc: dur is the allocation's full
	// virtual cost (including any remote-fill penalty); remote marks an
	// allocation served by a block resident on another node.
	Alloc(t *Thread, dur int64, remote bool)
	// Free fires after Thread.FreeAddr; flushed marks a free whose
	// staged cross-node batch flushed over the interconnect.
	Free(t *Thread, dur int64, flushed bool)
	// RemoteLineFill fires on each memory access that pulled a cache
	// line from a remote node.  It may fire inside ChaseSorted's
	// run-ahead, where t's clock and registers lag the walk, so it must
	// not read them.
	RemoteLineFill(t *Thread)
	// SignalSent fires after Thread.Signal delivers-or-queues a signal
	// to a live target.
	SignalSent(from, to *Thread)
}

// SetProbe attaches p (nil detaches).  Typically called before Run,
// but safe at any point between safepoints.
func (s *Sim) SetProbe(p Probe) { s.probe = p }
