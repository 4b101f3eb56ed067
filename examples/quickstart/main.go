// Quickstart: the smallest complete ThreadScan program.
//
// Four simulated threads hammer a shared lock-free list while
// ThreadScan reclaims the removed nodes automatically — no hazard
// pointers, no epochs, just Retire on unlink (which the list does
// internally).  The checked heap would panic the run if the protocol
// ever freed a node a thread could still reach.
//
// Run with:  go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"threadscan"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; the smoke test drives it directly.
func run() error {
	sim := threadscan.NewSimulation(threadscan.SimConfig{
		Cores: 4,
		Seed:  1,
		Heap:  threadscan.HeapConfig{Words: 1 << 20, Check: true, Poison: true},
	})

	// One reclamation domain shared by every thread (installs the scan
	// signal handler and thread hooks; must precede Spawn/Run).
	ts := threadscan.New(sim, threadscan.Config{BufferSize: 64})

	// A Harris lock-free list that retires unlinked nodes to ThreadScan.
	list := threadscan.NewList(sim, ts, 0)

	const nThreads, opsEach = 4, 2000
	done := 0
	for i := 0; i < nThreads; i++ {
		sim.Spawn(fmt.Sprintf("worker-%d", i), func(th *threadscan.Thread) {
			rng := th.RNG()
			for j := 0; j < opsEach; j++ {
				key := uint64(rng.Intn(256)) + 1
				switch rng.Intn(3) {
				case 0:
					list.Insert(th, key)
				case 1:
					list.Remove(th, key) // unlink, then Retire -> ThreadScan
				default:
					list.Contains(th, key) // unsynchronized traversal
				}
			}
			done++
			if done == nThreads {
				// Last worker out flushes whatever is still buffered.
				ts.Flush(th)
			}
		})
	}

	if err := sim.Run(); err != nil {
		return err
	}

	st := ts.Core().Stats()
	fmt.Println("quickstart: all operations completed with automatic reclamation")
	fmt.Printf("  virtual time     %.2f ms\n", sim.Seconds(sim.Clock())*1e3)
	fmt.Printf("  list size        %d\n", list.Len())
	fmt.Printf("  nodes retired    %d\n", st.Frees)
	fmt.Printf("  nodes reclaimed  %d (in %d collect phases)\n", st.Reclaimed, st.Collects)
	fmt.Printf("  still buffered   %d\n", ts.Core().Buffered())
	fmt.Printf("  scans performed  %d (%d words examined, %d of parked threads by the reclaimer)\n",
		st.ScannedThreads, st.ScannedWords, st.ParkedScans)
	heap := sim.Heap().Stats()
	fmt.Printf("  heap             %d allocs, %d frees, %d live blocks\n",
		heap.Allocs, heap.Frees, heap.LiveBlocks)
	return nil
}
