// Oversubscribe: the paper's Figure 4 story — what happens when the
// system runs many more threads than cores.
//
// A descheduled thread answers a scan signal only when the scheduler
// next runs it, so the reclaimer's wait grows with the subscription
// ratio; enlarging the delete buffer amortizes collects over more
// retirements and wins the overhead back ("Increasing the size of the
// delete buffer ... is a useful way of amortizing the cost of signals
// and of waiting", §6).
//
// Run with:  go run ./examples/oversubscribe
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"threadscan"
)

func run(threads, buffer int) threadscan.ScenarioResult {
	s := threadscan.PaperScenario("hash", threadscan.SweepParams{
		Scale:    threadscan.ScaleQuick, // 16k-key table, 256 buckets
		Duration: 30_000_000,            // 30 virtual ms
		Quantum:  1_000_000,             // OS-like 1ms timeslice
		Seed:     7,
		CacheSim: true,
	})
	s.Scheme, s.Threads, s.Cores = "threadscan", threads, 4
	s.BufferSize = buffer
	r, err := threadscan.RunScenario(s)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	fmt.Println("hash table, 4 virtual cores, ThreadScan")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "threads\tbuffer\tthroughput\tcollects\tsignals\tavg_scan_words")
	for _, threads := range []int{4, 16, 32} {
		for _, buffer := range []int{128, 512} {
			r := run(threads, buffer)
			c := r.Core
			var avgWords uint64
			if c.ScannedThreads > 0 {
				avgWords = c.ScannedWords / c.ScannedThreads
			}
			fmt.Fprintf(tw, "%d\t%d\t%.0f\t%d\t%d\t%d\n",
				threads, buffer, r.Throughput, c.Collects, r.Sim.SignalsSent, avgWords)
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nLarger buffers => fewer collects and fewer signals per operation,")
	fmt.Println("the amortization the paper tunes for the oversubscribed hash table.")
}
