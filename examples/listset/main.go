// Listset: the paper's Figure 3 story in miniature.
//
// Runs the 1024-node Harris list workload (20% updates, §6) under every
// reclamation technique the paper evaluates and prints a comparison
// table.  Every run is on the checked heap, so an unsound free would
// abort it.  Expect: ThreadScan ≈ Epoch ≈ Leaky; Hazard several times
// slower (a fence per traversal step on a 512-step average traversal);
// Slow Epoch degraded by its errant thread; StackTrack in between.
//
// Run with:  go run ./examples/listset
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"threadscan"
)

func main() {
	schemes := []string{"leaky", "hazard", "epoch", "slow-epoch", "threadscan", "stacktrack"}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tthroughput(vops/s)\tvs leaky\tretired\tfreed")
	var leakyTp float64
	for _, scheme := range schemes {
		s := threadscan.PaperScenario("list", threadscan.SweepParams{
			Scale:    threadscan.ScaleQuick, // the paper's list; 128-entry buffers
			Duration: 20_000_000,            // 20 virtual ms
			Seed:     42,
			CacheSim: true,
		})
		s.Scheme, s.Threads, s.Cores = scheme, 4, 4
		s.SlowDelay = 2_000_000
		r, err := threadscan.RunScenario(s)
		if err != nil {
			log.Fatal(err)
		}
		if scheme == "leaky" {
			leakyTp = r.Throughput
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.2fx\t%d\t%d\n",
			scheme, r.Throughput, r.Throughput/leakyTp, r.SchemeStats.Retired, r.SchemeStats.Freed)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n(leaky frees nothing by design; every other scheme reclaims all it retires)")
}
