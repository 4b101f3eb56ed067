package simt

import (
	"testing"

	"threadscan/internal/simmem"
)

// Host cost of the per-access primitives on the checked heap, the
// configuration every scenario runs.  The quantum never expires, so the
// timed access loops never leave the thread's coroutine; only
// BenchmarkThreadYield gives the core back, on purpose.

var (
	benchSinkU64  uint64
	benchSinkBool bool
)

// benchInThread runs body on the only thread of a fresh one-core
// simulation, after placing a live 64-byte block's address in
// register 0, and times body alone.
func benchInThread(b *testing.B, body func(th *Thread)) {
	s := New(Config{
		Cores:   1,
		Quantum: 1 << 62,
		Heap:    simmem.Config{Words: 1 << 16, Check: true, Poison: true},
	})
	s.Spawn("bench", func(th *Thread) {
		th.Alloc(0, 64)
		b.ResetTimer()
		body(th)
		b.StopTimer()
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkThreadLoad(b *testing.B) {
	benchInThread(b, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Load(1, 0, i&7)
		}
		benchSinkU64 = th.Reg(1)
	})
}

func BenchmarkThreadStore(b *testing.B) {
	benchInThread(b, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.StoreImm(0, i&7, uint64(i))
		}
	})
}

func BenchmarkThreadCAS(b *testing.B) {
	benchInThread(b, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			benchSinkBool = th.CAS(0, 0, 1, 2)
		}
	})
}

func BenchmarkThreadSetReg(b *testing.B) {
	benchInThread(b, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.SetReg(i&(NumRegs-1), uint64(i))
		}
	})
}

// BenchmarkThreadYield times one dispatch round trip: the only thread
// hands its core back and the scheduler dispatches it again, one
// coroutine switch each way.
func BenchmarkThreadYield(b *testing.B) {
	benchInThread(b, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Yield()
		}
	})
}

// BenchmarkChaseSorted walks a 1,024-node sorted chain end to end with
// one ChaseSorted call per iteration on the flat machine, and reports
// the host cost per node visited.
func BenchmarkChaseSorted(b *testing.B) {
	const nodes = 1024
	benchInThread(b, func(th *Thread) {
		keys := make([]uint64, nodes)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		head, _ := buildChain(th.Sim().Heap(), keys, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.SetReg(cPrev, head)
			th.Load(cCurr, cPrev, 0)
			if th.ChaseSorted(cPrev, cCurr, cNext, cKey, chainNextOff, chainKeyOff, nodes+1, false) != ChaseEnd {
				b.Fatal("walk stopped before the end of the chain")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
	})
}
