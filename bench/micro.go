package main

import (
	"math/rand"
	"testing"

	"threadscan/internal/core"
	"threadscan/internal/obs"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
	"threadscan/internal/workload"
)

// micro is one layer primitive timed in isolation: one public function
// of its layer, called b.N times.
type micro struct {
	name  string // per-layer metric name
	unit  string
	perNs float64 // metric units per host nanosecond
	bench func(*testing.B)
}

// micros are the per-layer host primitives.  main runs them through
// testing.Benchmark; BenchmarkLayers runs the same functions under
// go test -bench.
var micros = []micro{
	{"simt.load_host_ns", "ns", 1, benchLoad},
	{"simt.cas_host_ns", "ns", 1, benchCAS},
	{"simt.dispatch_host_ns", "ns", 1, benchDispatch},
	{"simt.signal_host_ns", "ns", 1, benchSignal},
	{"simmem.alloc_free_host_ns", "ns", 1, benchAllocFree},
	{"core.ring_push_host_ns", "ns", 1, benchRingPush},
	{"core.collect_host_us", "us", 1e-3, benchCollect},
	{"workload.keygen_host_ns", "ns", 1, benchKeyGen},
	{"workload.trace_record_host_ns", "ns", 1, benchTraceRecord},
	{"obs.observe_host_ns", "ns", 1, benchObserve},
}

// Sinks keep the compiler from discarding measured results.
var (
	sinkU64  uint64
	sinkBool bool
)

// microHeap is the checked, poisoned heap the scenarios run on, small.
var microHeap = simmem.Config{Words: 1 << 16, Check: true, Poison: true}

// inSim runs body on thread 0 of a fresh simulation, timing only body.
// The clock is read and reset from the simulated thread's goroutine;
// the scheduler's channel handoffs order those accesses with the
// benchmark goroutine's.
func inSim(b *testing.B, cfg simt.Config, setup func(*simt.Sim), body func(*simt.Thread)) {
	cfg.Heap = microHeap
	sim := simt.New(cfg)
	if setup != nil {
		setup(sim)
	}
	sim.Spawn("bench", func(th *simt.Thread) {
		b.ResetTimer()
		body(th)
		b.StopTimer()
	})
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// oneQuantum never expires, so access benchmarks never yield the core.
const oneQuantum = 1 << 62

func benchLoad(b *testing.B) {
	inSim(b, simt.Config{Cores: 1, Quantum: oneQuantum}, nil, func(th *simt.Thread) {
		th.Alloc(0, 64)
		for i := 0; i < b.N; i++ {
			th.Load(1, 0, 0)
		}
	})
}

func benchCAS(b *testing.B) {
	inSim(b, simt.Config{Cores: 1, Quantum: oneQuantum}, nil, func(th *simt.Thread) {
		th.Alloc(0, 64)
		for i := 0; i < b.N; i++ {
			sinkBool = th.CAS(0, 0, 1, 2)
		}
	})
}

// benchDispatch times one scheduler round trip: the thread gives up its
// core and the dispatch loop hands it back.
func benchDispatch(b *testing.B) {
	inSim(b, simt.Config{Cores: 1}, nil, func(th *simt.Thread) {
		for i := 0; i < b.N; i++ {
			th.Yield()
		}
	})
}

// benchSignal times one signal sent and its handler delivered.
func benchSignal(b *testing.B) {
	setup := func(sim *simt.Sim) { sim.SetSignalHandler(0, func(*simt.Thread) {}) }
	inSim(b, simt.Config{Cores: 1, Quantum: oneQuantum}, setup, func(th *simt.Thread) {
		for i := 0; i < b.N; i++ {
			th.Signal(th, 0)
			th.Safepoint()
		}
	})
}

func benchAllocFree(b *testing.B) {
	c := simmem.New(microHeap).NewCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Free(c.Alloc(64))
	}
}

func benchRingPush(b *testing.B) {
	r := core.NewRing(core.DefaultBufferSize)
	drained := make([]uint64, 0, core.DefaultBufferSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Push(uint64(i)) {
			drained, _ = r.Drain(drained[:0])
			r.Push(uint64(i))
		}
	}
}

// collectBatch is how many nodes each timed collect reclaims.
const collectBatch = 64

// benchCollect times one forced ThreadScan collect of collectBatch
// retired nodes — retire, signal, three peers' scans, handshake, sort,
// sweep and free — on a four-core machine whose peers sleep between
// scan requests.
func benchCollect(b *testing.B) {
	var ts *core.ThreadScan
	done := false
	setup := func(sim *simt.Sim) {
		ts = core.New(sim, core.Config{BufferSize: 2 * collectBatch})
		for i := 0; i < 3; i++ {
			sim.Spawn("peer", func(th *simt.Thread) {
				for !done {
					th.Sleep(1_000_000)
				}
			})
		}
	}
	inSim(b, simt.Config{Cores: 4}, setup, func(th *simt.Thread) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < collectBatch; j++ {
				th.Alloc(0, 64)
				ts.Free(th, th.Reg(0))
			}
			th.SetReg(0, 0)
			ts.Collect(th)
		}
		done = true
	})
}

func benchKeyGen(b *testing.B) {
	g := workload.NewKeyGen(workload.Dist{}, 1024, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 = g.Key(0.5)
	}
}

func benchTraceRecord(b *testing.B) {
	tr := workload.NewTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record(workload.OpInsert, uint64(i), true)
	}
	sinkU64 = tr.Sum()
}

func benchObserve(b *testing.B) {
	rec := obs.NewRecorder()
	sim := simt.New(simt.Config{Cores: 1, Heap: microHeap})
	th := sim.Spawn("bench", func(*simt.Thread) {}) // never run: Observe reads only its id and name
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Observe(th, obs.StageOp, int64(i&1023))
	}
}

// nsPerOp is a benchmark result's mean host time per call, unrounded.
func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}
