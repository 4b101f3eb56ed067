package simmem

import (
	"testing"
)

func checkedHeap() *Heap {
	return New(Config{Words: 1 << 16, Check: true, Poison: true})
}

// expectViolation runs f and asserts it panics with a *Violation of the
// given kind, which it returns.
func expectViolation(t *testing.T, kind ViolationKind, f func()) (v *Violation) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected %v violation, got none", kind)
		}
		var ok bool
		v, ok = r.(*Violation)
		if !ok {
			panic(r)
		}
		if v.Kind != kind {
			t.Fatalf("expected %v violation, got %v (%s)", kind, v.Kind, v.Error())
		}
	}()
	f()
	return nil
}

func TestAllocReturnsAlignedInArena(t *testing.T) {
	h := checkedHeap()
	for _, size := range []int{1, 8, 9, 16, 100, 172, 1024, 4096} {
		addr := h.Alloc(size)
		if addr%WordSize != 0 {
			t.Errorf("Alloc(%d) returned unaligned address %#x", size, addr)
		}
		if !h.Contains(addr) {
			t.Errorf("Alloc(%d) returned address %#x outside arena", size, addr)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	h := checkedHeap()
	addr := h.Alloc(64)
	for i := uint64(0); i < 8; i++ {
		h.Store(addr+i*WordSize, i*i+1)
	}
	for i := uint64(0); i < 8; i++ {
		if got := h.Load(addr + i*WordSize); got != i*i+1 {
			t.Errorf("word %d: got %d want %d", i, got, i*i+1)
		}
	}
}

func TestAllocZeroesBlock(t *testing.T) {
	h := checkedHeap()
	a := h.Alloc(64)
	for i := uint64(0); i < 8; i++ {
		h.Store(a+i*WordSize, PoisonWord)
	}
	h.Free(a)
	b := h.Alloc(64)
	if b != a {
		t.Fatalf("expected address reuse, got %#x then %#x", a, b)
	}
	for i := uint64(0); i < 8; i++ {
		if got := h.Load(b + i*WordSize); got != 0 {
			t.Errorf("word %d not zeroed after realloc: %#x", i, got)
		}
	}
}

func TestCASSemantics(t *testing.T) {
	h := checkedHeap()
	addr := h.Alloc(8)
	h.Store(addr, 5)
	if h.CompareAndSwap(addr, 4, 9) {
		t.Error("CAS with wrong expected value succeeded")
	}
	if got := h.Load(addr); got != 5 {
		t.Errorf("failed CAS modified memory: %d", got)
	}
	if !h.CompareAndSwap(addr, 5, 9) {
		t.Error("CAS with correct expected value failed")
	}
	if got := h.Load(addr); got != 9 {
		t.Errorf("after CAS: got %d want 9", got)
	}
}

func TestUseAfterFreeDetected(t *testing.T) {
	h := checkedHeap()
	addr := h.Alloc(32)
	h.Free(addr)
	expectViolation(t, VUseAfterFree, func() { h.Load(addr) })
	expectViolation(t, VUseAfterFree, func() { h.Store(addr, 1) })
	expectViolation(t, VUseAfterFree, func() { h.CompareAndSwap(addr, 0, 1) })
}

func TestDoubleFreeDetected(t *testing.T) {
	h := checkedHeap()
	addr := h.Alloc(32)
	h.Free(addr)
	expectViolation(t, VDoubleFree, func() { h.Free(addr) })
}

func TestInteriorFreeDetected(t *testing.T) {
	h := checkedHeap()
	addr := h.Alloc(64)
	expectViolation(t, VBadFree, func() { h.Free(addr + 8) })
}

// TestNilAndWildAccess drives every bad-address class through all three
// access primitives: each must raise the same kind, tagged with its op.
func TestNilAndWildAccess(t *testing.T) {
	h := checkedHeap()
	ops := []struct {
		name   string
		access func(addr uint64)
	}{
		{"load", func(a uint64) { h.Load(a) }},
		{"store", func(a uint64) { h.Store(a, 1) }},
		{"cas", func(a uint64) { h.CompareAndSwap(a, 0, 1) }},
	}
	cases := []struct {
		addr uint64
		kind ViolationKind
	}{
		{0, VNilDeref},
		{h.Base() + 3, VUnaligned},
		{h.Limit(), VWildAccess},
		{h.Limit() + 8, VWildAccess},
		{8, VWildAccess},
		{h.Base() - 8, VWildAccess},
	}
	for _, op := range ops {
		for _, tc := range cases {
			v := expectViolation(t, tc.kind, func() { op.access(tc.addr) })
			if v.Op != op.name || v.Addr != tc.addr {
				t.Errorf("%s(%#x): violation op %q addr %#x", op.name, tc.addr, v.Op, v.Addr)
			}
		}
	}
}

// TestUncheckedHeapStillRejectsBadAddresses pins that only the liveness
// test depends on Check: bounds and alignment are enforced regardless.
func TestUncheckedHeapStillRejectsBadAddresses(t *testing.T) {
	h := New(Config{Words: 1 << 14})
	expectViolation(t, VNilDeref, func() { h.Store(0, 1) })
	expectViolation(t, VUnaligned, func() { h.CompareAndSwap(h.Base()+4, 0, 1) })
	expectViolation(t, VWildAccess, func() { h.Load(h.Limit()) })
	h.Store(h.Base(), 7) // never allocated, but unchecked
	if got := h.Load(h.Base()); got != 7 {
		t.Fatalf("unchecked load got %d", got)
	}
}

// TestTryLoadAgreesWithLoad: TryLoad reports ok=false exactly where
// Load panics, and otherwise returns Load's value, on a checked and an
// unchecked heap.
func TestTryLoadAgreesWithLoad(t *testing.T) {
	for _, check := range []bool{true, false} {
		h := New(Config{Words: 1 << 14, Check: check, Poison: true})
		live := h.Alloc(32)
		h.Store(live+8, 42)
		freed := h.Alloc(32)
		h.Free(freed)
		addrs := map[string]uint64{
			"nil":        0,
			"unaligned":  live + 3,
			"limit":      h.Limit(),
			"limit+8":    h.Limit() + 8,
			"below base": h.Base() - 8,
			"freed":      freed + 8,
			"live":       live + 8,
			"last word":  h.Limit() - 8,
		}
		faults := 0
		for name, addr := range addrs {
			var want uint64
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				want = h.Load(addr)
				return false
			}()
			got, ok := h.TryLoad(addr)
			if ok == panicked || (ok && got != want) {
				t.Errorf("check=%v %s %#x: TryLoad = %d, %v; Load panicked %v, returned %d", check, name, addr, got, ok, panicked, want)
			}
			if panicked {
				faults++
			}
		}
		// nil, unaligned, limit, limit+8 and below base always fault;
		// the freed word and the never-allocated last word only when
		// checked.
		if wantFaults := map[bool]int{true: 7, false: 5}[check]; faults != wantFaults {
			t.Errorf("check=%v: %d of %d addresses faulted, want %d", check, faults, len(addrs), wantFaults)
		}
		if v, ok := h.TryLoad(live + 8); !ok || v != 42 {
			t.Errorf("check=%v: TryLoad(live) = %d, %v, want 42, true", check, v, ok)
		}
	}
}

func TestFreePoisons(t *testing.T) {
	h := New(Config{Words: 1 << 14, Check: false, Poison: true})
	addr := h.Alloc(32)
	h.Store(addr, 42)
	h.Free(addr)
	// Without Check, the load succeeds but must observe poison.
	if got := h.Load(addr); got != PoisonWord {
		t.Errorf("freed word not poisoned: %#x", got)
	}
}

func TestSizeOf(t *testing.T) {
	h := checkedHeap()
	for _, tc := range []struct{ req, want int }{
		{8, 16}, {16, 16}, {17, 24}, {172, 192}, {104, 112},
	} {
		addr := h.Alloc(tc.req)
		if got := h.SizeOf(addr); got != tc.want {
			t.Errorf("SizeOf(Alloc(%d)) = %d, want %d", tc.req, got, tc.want)
		}
	}
}

func TestLargeSpanAllocFree(t *testing.T) {
	h := checkedHeap()
	size := 3 * PageWords * WordSize // 3 pages
	addr := h.Alloc(size)
	if got := h.SizeOf(addr); got != size {
		t.Fatalf("span SizeOf = %d, want %d", got, size)
	}
	last := addr + uint64(size) - WordSize
	h.Store(last, 7)
	if h.Load(last) != 7 {
		t.Fatal("span tail word lost")
	}
	h.Free(addr)
	expectViolation(t, VUseAfterFree, func() { h.Load(addr) })
	// The span is recycled for the next same-size request.
	again := h.Alloc(size)
	if again != addr {
		t.Errorf("span not recycled: %#x then %#x", addr, again)
	}
}

func TestSpanInteriorFreeDetected(t *testing.T) {
	h := checkedHeap()
	addr := h.Alloc(2 * PageWords * WordSize)
	expectViolation(t, VBadFree, func() { h.Free(addr + PageWords*WordSize) })
}

func TestOutOfMemory(t *testing.T) {
	h := New(Config{Words: 2 * PageWords, Check: true})
	h.Alloc(PageWords * WordSize)
	h.Alloc(PageWords * WordSize)
	expectViolation(t, VOutOfMemory, func() { h.Alloc(8) })
}

func TestAddressReuseLIFO(t *testing.T) {
	h := checkedHeap()
	a := h.Alloc(100)
	h.Free(a)
	b := h.Alloc(100)
	if a != b {
		t.Errorf("same-class realloc did not reuse freed block: %#x vs %#x", a, b)
	}
}

func TestStatsAccounting(t *testing.T) {
	h := checkedHeap()
	var addrs []uint64
	for i := 0; i < 10; i++ {
		addrs = append(addrs, h.Alloc(48))
	}
	s := h.Stats()
	if s.Allocs != 10 || s.LiveBlocks != 10 {
		t.Fatalf("after 10 allocs: %+v", s)
	}
	if s.LiveBytes != 10*48 {
		t.Fatalf("LiveBytes = %d, want %d", s.LiveBytes, 10*48)
	}
	for _, a := range addrs {
		h.Free(a)
	}
	s = h.Stats()
	if s.Frees != 10 || s.LiveBlocks != 0 || s.LiveBytes != 0 {
		t.Fatalf("after frees: %+v", s)
	}
}

func TestCacheAllocFree(t *testing.T) {
	h := checkedHeap()
	c := h.NewCache()
	var addrs []uint64
	for i := 0; i < 200; i++ {
		a := c.Alloc(172)
		h.Store(a, uint64(i))
		addrs = append(addrs, a)
	}
	seen := map[uint64]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate live address %#x", a)
		}
		seen[a] = true
	}
	for _, a := range addrs {
		c.Free(a)
	}
	if got := h.Stats().LiveBlocks; got != 0 {
		t.Fatalf("LiveBlocks after freeing all = %d", got)
	}
	s := h.Stats()
	if s.CacheHits == 0 {
		t.Error("cache never hit across 200 allocations")
	}
}

func TestCacheFlush(t *testing.T) {
	h := checkedHeap()
	c := h.NewCache()
	a := c.Alloc(64)
	c.Free(a)
	c.Flush()
	// After a flush the same block is reachable from central lists.
	b := h.Alloc(64)
	if !h.Contains(b) {
		t.Fatal("central alloc after flush failed")
	}
}

func TestCacheCrossThreadFree(t *testing.T) {
	// Thread A allocates, thread B frees: the block lands in B's cache
	// and is reusable from there.  This is the malloc pattern the
	// reclamation schemes create (the reclaimer frees other threads'
	// nodes).
	h := checkedHeap()
	ca, cb := h.NewCache(), h.NewCache()
	a := ca.Alloc(172)
	cb.Free(a)
	b := cb.Alloc(172)
	if b != a {
		t.Errorf("cross-thread freed block not reused: %#x vs %#x", a, b)
	}
}

// TestLivenessBitsStraddleWords frees every other 3-word block so block
// edges land inside and across the bitmap's 64-bit words, then checks
// every word's liveness.
func TestLivenessBitsStraddleWords(t *testing.T) {
	h := checkedHeap()
	var blocks []uint64
	for i := 0; i < 100; i++ {
		blocks = append(blocks, h.Alloc(24))
	}
	for i := 0; i < len(blocks); i += 2 {
		h.Free(blocks[i])
	}
	for i, b := range blocks {
		for w := uint64(0); w < 3; w++ {
			if got, want := h.LiveAt(b+w*WordSize), i%2 == 1; got != want {
				t.Fatalf("block %d word %d: LiveAt = %v, want %v", i, w, got, want)
			}
		}
	}
	expectViolation(t, VDoubleFree, func() { h.Free(blocks[98]) })

	// Blocks covering more than two bitmap words: 160-word blocks start
	// and end mid-word around whole middle words; a span is whole words.
	sizes := []int{160, 160, 160, 3 * PageWords}
	var wide []uint64
	for _, words := range sizes {
		wide = append(wide, h.Alloc(words*WordSize))
	}
	h.Free(wide[1])
	h.Free(wide[3])
	for i, b := range wide {
		for w := 0; w < sizes[i]; w++ {
			if got, want := h.LiveAt(b+uint64(w)*WordSize), i%2 == 0; got != want {
				t.Fatalf("wide block %d word %d: LiveAt = %v, want %v", i, w, got, want)
			}
		}
	}
	expectViolation(t, VDoubleFree, func() { h.Free(wide[1]) })
	// A freed span is no longer a span base, so its double free is
	// refused before the liveness check.
	expectViolation(t, VBadFree, func() { h.Free(wide[3]) })
}

func TestLiveAt(t *testing.T) {
	h := checkedHeap()
	a := h.Alloc(32)
	if !h.LiveAt(a) || !h.LiveAt(a+24) {
		t.Error("LiveAt false for live block words")
	}
	h.Free(a)
	if h.LiveAt(a) {
		t.Error("LiveAt true after free")
	}
	if h.LiveAt(0) || h.LiveAt(h.Limit()) {
		t.Error("LiveAt true outside arena")
	}
}

func TestClassSizeBytes(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{1, 16}, {16, 16}, {17, 24}, {172, 192},
		{4096, 4096},
		{PageWords*WordSize + 1, 2 * PageWords * WordSize},
	} {
		if got := ClassSizeBytes(tc.req); got != tc.want {
			t.Errorf("ClassSizeBytes(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
}

var benchSink uint64

// BenchmarkHeapLoad times one checked load of a live word: the bounds,
// alignment and liveness test every simulated access pays.
func BenchmarkHeapLoad(b *testing.B) {
	h := checkedHeap()
	addr := h.Alloc(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += h.Load(addr + uint64(i&7)*WordSize)
	}
}

// TestBlockBase: every byte address inside a block, tagged or not,
// resolves to the block's base; the first address past a block is the
// next block's; addresses in no block resolve to 0.
func TestBlockBase(t *testing.T) {
	h := checkedHeap()
	small := h.Alloc(24) // class of 3 words: 1024 % 3 leaves a 1-word page tail
	span := h.Alloc(3 * PageWords * WordSize)
	for _, tc := range []struct {
		name       string
		addr, want uint64
	}{
		{"small base", small, small},
		{"small tagged", small | 1, small},
		{"small interior", small + 8, small},
		{"small last word", small + 16 + 7, small},
		{"small one past end", small + 24, small + 24},
		{"small page tail", small + (PageWords-1)*WordSize, 0},
		{"span base", span, span},
		{"span interior", span + 8, span},
		{"span third page", span + (2*PageWords+5)*WordSize, span},
		{"span one past end", span + 3*PageWords*WordSize, 0}, // uncarved page
		{"below arena", h.Base() - 8, 0},
		{"past arena", h.Limit(), 0},
		{"nil", 0, 0},
	} {
		if got := h.BlockBase(tc.addr); got != tc.want {
			t.Errorf("%s: BlockBase(%#x) = %#x, want %#x", tc.name, tc.addr, got, tc.want)
		}
	}
}
