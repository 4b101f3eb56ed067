package threadscan_test

// Benchmark harness: one benchmark family per figure panel of the
// paper's evaluation (Figure 3: throughput scaling; Figure 4:
// oversubscription), plus ablations of the paper's design choices and two
// protocol micro-benchmarks.  Throughput is reported as the custom
// metric "vops/s" (operations per *virtual* second — the simulator's
// clock, comparable across schemes and hosts); ns/op measures host
// simulation cost and is not a result.
//
// Regenerate the full tables with:  go test -bench . -benchmem
// Paper-scale runs:                 go run ./cmd/tsbench -scale paper ...

import (
	"testing"

	"threadscan"
)

// benchPoint runs one scenario per iteration and reports the mean
// virtual throughput.
func benchPoint(b *testing.B, s threadscan.Scenario) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		r, err := threadscan.RunScenario(s)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Throughput
	}
	b.ReportMetric(total/float64(b.N), "vops/s")
	b.ReportMetric(0, "ns/op") // host time is not a result; silence it
}

// fig3Point builds a quick-scale Figure 3 data point on 4 cores:
// the paper scenario, 10 virtual ms per iteration.
func fig3Point(dsName, scheme string, threads int) threadscan.Scenario {
	s := threadscan.PaperScenario(dsName, threadscan.SweepParams{
		Scale:    threadscan.ScaleQuick,
		Duration: 10_000_000,
		CacheSim: true,
	})
	s.Scheme, s.Threads, s.Cores = scheme, threads, 4
	return s
}

// benchFig3 runs one Figure 3 panel: every §6 scheme at 4 threads on 4
// cores.
func benchFig3(b *testing.B, dsName string) {
	for _, scheme := range []string{"leaky", "hazard", "epoch", "slow-epoch", "threadscan", "stacktrack"} {
		b.Run(scheme, func(b *testing.B) {
			benchPoint(b, fig3Point(dsName, scheme, 4))
		})
	}
}

// BenchmarkFig3List regenerates the linked-list panel of Figure 3.
func BenchmarkFig3List(b *testing.B) { benchFig3(b, "list") }

// BenchmarkFig3Hash regenerates the hash-table panel of Figure 3.
func BenchmarkFig3Hash(b *testing.B) { benchFig3(b, "hash") }

// BenchmarkFig3Skiplist regenerates the skip-list panel of Figure 3.
func BenchmarkFig3Skiplist(b *testing.B) { benchFig3(b, "skiplist") }

// benchFig4 runs one Figure 4 panel: the oversubscribed system (16
// threads on 4 cores) for the schemes the paper keeps, plus the tuned
// 4x-buffer ThreadScan variant on the hash table.
func benchFig4(b *testing.B, dsName string) {
	schemes := []string{"leaky", "epoch", "threadscan"}
	for _, scheme := range schemes {
		b.Run(scheme, func(b *testing.B) {
			benchPoint(b, fig3Point(dsName, scheme, 16))
		})
	}
	if dsName == "hash" {
		b.Run("threadscan-tuned", func(b *testing.B) {
			cfg := fig3Point(dsName, "threadscan", 16)
			cfg.BufferSize *= 4 // the paper's 1024 -> 4096 tuning
			benchPoint(b, cfg)
		})
	}
}

// BenchmarkFig4List regenerates the linked-list panel of Figure 4.
func BenchmarkFig4List(b *testing.B) { benchFig4(b, "list") }

// BenchmarkFig4Hash regenerates the hash-table panel of Figure 4,
// including the tuned delete-buffer variant.
func BenchmarkFig4Hash(b *testing.B) { benchFig4(b, "hash") }

// BenchmarkFig4Skiplist regenerates the skip-list panel of Figure 4.
func BenchmarkFig4Skiplist(b *testing.B) { benchFig4(b, "skiplist") }

// BenchmarkAblationBufferSize is A1: the delete-buffer tuning of §6 on
// the oversubscribed hash table.
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, size := range []int{64, 256, 1024, 4096} {
		b.Run(map[int]string{64: "64", 256: "256", 1024: "1024", 4096: "4096"}[size], func(b *testing.B) {
			cfg := fig3Point("hash", "threadscan", 16)
			cfg.BufferSize = size
			benchPoint(b, cfg)
		})
	}
}

// BenchmarkAblationLookup is A3: the TS-Scan membership structure
// (paper's sorted binary search vs linear vs hash set).
func BenchmarkAblationLookup(b *testing.B) {
	for _, kind := range []string{"binary", "linear", "hash"} {
		b.Run(kind, func(b *testing.B) {
			cfg := fig3Point("list", "threadscan", 4)
			cfg.Lookup = kind
			cfg.BufferSize = 64 // keep linear mode tractable
			benchPoint(b, cfg)
		})
	}
}

// BenchmarkAblationHelpFree is the §7 future-work extension: sharing
// free() calls with scanners, versus the default reclaimer-frees-all.
func BenchmarkAblationHelpFree(b *testing.B) {
	for _, help := range []bool{false, true} {
		name := "reclaimer-frees"
		if help {
			name = "scanners-help"
		}
		b.Run(name, func(b *testing.B) {
			cfg := fig3Point("list", "threadscan", 8)
			cfg.HelpFree = help
			benchPoint(b, cfg)
		})
	}
}

// BenchmarkAblationStall is A4: an errant thread stalled mid-operation
// under Epoch vs ThreadScan (the paper's liveness contrast).
func BenchmarkAblationStall(b *testing.B) {
	for _, scheme := range []string{"epoch", "threadscan"} {
		b.Run(scheme, func(b *testing.B) {
			cfg := fig3Point("list", scheme, 4)
			cfg.StallEvery = 100
			cfg.StallCycles = 1_000_000
			cfg.Batch, cfg.BufferSize = 32, 64
			benchPoint(b, cfg)
		})
	}
}

// BenchmarkCollect measures one TS-Collect in isolation: N retired
// nodes, single thread, per-collect virtual cost.
func BenchmarkCollect(b *testing.B) {
	cfg := fig3Point("list", "threadscan", 1)
	cfg.Phases[0].Duration = 5_000_000
	benchPoint(b, cfg)
}

// BenchmarkSignalStorm measures the oversubscribed signal path: 32
// threads on 2 cores with small buffers, maximizing collect frequency.
func BenchmarkSignalStorm(b *testing.B) {
	cfg := fig3Point("list", "threadscan", 32)
	cfg.Cores = 2
	cfg.BufferSize = 64
	cfg.Phases[0].Duration = 5_000_000
	benchPoint(b, cfg)
}
