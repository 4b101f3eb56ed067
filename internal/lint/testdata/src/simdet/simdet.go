// Package simdet is simdeterminism analyzer testdata: a "simulated"
// package that must not consult wall clocks, global randomness, real
// concurrency, or map-iteration order.
package simdet

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"iter"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// wallNow is the sanctioned wall-clock entry point (allowlisted in the
// test config).
func wallNow() time.Time {
	return time.Now() // ok: inside the allowlisted helper
}

func wallClockViolations() time.Duration {
	start := time.Now()      // want "call to time.Now in simulated code"
	time.Sleep(1)            // want "call to time.Sleep in simulated code"
	return time.Since(start) // want "call to time.Since in simulated code"
}

func usesSanctionedHelper() time.Time {
	return wallNow() // ok: the helper is the single entry point
}

func globalRand() int {
	return rand.Intn(10) // want "call to global math/rand.Intn in simulated code"
}

func seededRand() int {
	r := rand.New(rand.NewSource(1)) // ok: explicitly seeded
	return r.Intn(10)                // ok: method on a seeded generator
}

func realConcurrency() {
	go seededRand()   // want "go statement in simulated code"
	var mu sync.Mutex // want "sync.Mutex in simulated code"
	mu.Lock()
	mu.Unlock()
}

func channels(ch chan int) { // want "channel type in simulated code"
	ch <- 1 // want "channel send in simulated code"
	<-ch    // want "channel receive in simulated code"
}

func coroutines(seq iter.Seq[int], seq2 iter.Seq2[int, int]) {
	next, stop := iter.Pull(seq) // want "call to iter.Pull in simulated code"
	defer stop()
	next()
	next2, stop2 := iter.Pull2(seq2) // want "call to iter.Pull2 in simulated code"
	defer stop2()
	next2()
	for v := range seq { // ok: a range-over-func loop runs on the caller's stack
		_ = v
	}
}

// --- map iteration -------------------------------------------------

func countValues(m map[int]int) int {
	n := 0
	for _, v := range m { // ok: commutative accumulation
		n += v
	}
	return n
}

func keyedWrites(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m { // ok: writes keyed by the element
		out[v] = k
	}
	return out
}

func collectThenSort(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m { // ok: sorted after the loop
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func collectUnsorted(m map[int]int) []int {
	var keys []int
	for k := range m { // want "iteration over map with order-sensitive body"
		keys = append(keys, k)
	}
	return keys
}

func formatsInOrder(m map[int]int) {
	for k := range m { // want "iteration over map with order-sensitive body"
		fmt.Println(k)
	}
}

func buildsString(m map[int]int) string {
	s := ""
	for k := range m { // want "iteration over map with order-sensitive body"
		s += strconv.Itoa(k)
	}
	return s
}

func firstKey(m map[int]int) int {
	for k := range m { // want "iteration over map with order-sensitive body"
		return k
	}
	return 0
}

func anyNegative(m map[int]int) bool {
	for _, v := range m { // ok: constant-valued return
		if v < 0 {
			return true
		}
	}
	return false
}

func encodesJSON(m map[int]int) {
	enc := json.NewEncoder(io.Discard)
	for k := range m { // want "iteration over map with order-sensitive body"
		enc.Encode(k)
	}
}

func feedsHash(m map[int]int) uint64 {
	var h maphash.Hash
	for k := range m { // want "iteration over map with order-sensitive body"
		h.WriteByte(byte(k))
	}
	return h.Sum64()
}

type accumulator struct{ total int }

func fieldAccumulate(m map[int]int, a *accumulator) {
	for _, v := range m { // ok: commutative accumulation into a field
		a.total += v
	}
}

func sortsPerEntry(m map[int][]int) {
	for _, vs := range m { // ok: the returns belong to the comparator closure
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
}

func lastWriteWins(m map[int]int) int {
	last := 0
	for k := range m { // want "iteration over map with order-sensitive body"
		last = k
	}
	return last
}
