package main

import "testing"

// BenchmarkLayers runs the per-layer primitives the benchmark reports,
// one sub-benchmark per metric.
func BenchmarkLayers(b *testing.B) {
	for _, m := range micros {
		b.Run(m.name, m.bench)
	}
}
