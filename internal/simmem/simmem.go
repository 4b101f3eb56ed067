// Package simmem implements the simulated heap that underlies the
// ThreadScan reproduction: a word-addressable arena managed by a
// size-class allocator with per-thread caches, modeled on TCMalloc
// (the allocator used in the paper's evaluation, §6).
//
// Why a simulated heap at all?  The paper's mechanism — scanning thread
// stacks for words that equal malloc'd node addresses — requires that
// "addresses" be plain comparable words and that premature frees be
// observable.  Go's real heap offers neither (the GC owns it), so the
// reproduction allocates nodes at simulated addresses inside this arena.
// In checked mode every access verifies that the target word belongs to
// a live allocation, which turns any unsound reclamation decision into a
// detected access violation rather than silent corruption.  This is the
// property all of the repository's safety tests rest on.
//
// On a multi-node machine the heap can further split into per-node
// arenas: pages are carved from node-homed regions, central free lists
// and span lists live per node, and Config.Policy decides which node's
// pool serves an allocation (see policy.go).  Frees route to the freed
// block's *home* pool — same-node frees push the central list directly,
// cross-node frees land in the home pool's remote-free inbox (the
// TCMalloc remote-free pattern) for the owner to drain — so reclamation
// that sweeps node-locally also *recycles* node-locally.  With a single
// pool (Policy global, or one node) the allocator is bit-identical to
// the pre-NUMA version.
//
// The heap is deliberately NOT goroutine-safe: the discrete-event
// scheduler in package simt serializes all simulated threads, so the
// allocator needs no locks and the whole simulation stays deterministic.
package simmem

import "fmt"

// WordSize is the size of a heap word in bytes.  All addresses are
// word-aligned; the low three bits of a node address are always zero,
// which is what lets data structures steal them for mark bits and lets
// the ThreadScan scanner mask them off (paper §4.2, "Pointer
// Operations").
const WordSize = 8

// PageWords is the number of words per allocator page.  Small size
// classes carve pages into equal blocks; large allocations take whole
// page runs (spans).
const PageWords = 1024 // 8 KiB pages

// PoisonWord is written over every word of a freed block when poisoning
// is enabled.  A thread that reads a stale reference sees this pattern,
// and any attempt to follow it as a pointer lands outside the arena.
const PoisonWord = 0xDEADBEEFDEADBEEF

// Config describes a heap instance.
type Config struct {
	// Words is the arena capacity in 8-byte words.  The arena is
	// allocated up front; the simulation fails loudly if it is
	// exhausted.  Defaults to 1<<22 (32 MiB) if zero.
	Words int

	// Base is the byte address of the first arena word.  It must be
	// word-aligned and nonzero (address 0 is the simulated nil).
	// Defaults to 1<<20.
	Base uint64

	// Check enables per-word liveness tracking: loads and stores verify
	// that the word belongs to a live allocation, frees verify block
	// identity, and double frees are detected.  Costs one bit of host
	// memory per arena word.
	Check bool

	// Poison fills freed blocks with PoisonWord and newly allocated
	// blocks with zeroes.  Independent of Check.
	Poison bool

	// Nodes is the number of NUMA nodes whose threads share the heap.
	// With Policy != PolicyGlobal and Nodes > 1 the arena splits into
	// that many contiguous node regions, each with its own central free
	// lists; otherwise the heap keeps one machine-wide pool.  Defaults
	// to 1.
	Nodes int

	// Policy selects which node's pool serves an allocation (see
	// policy.go).  PolicyGlobal — the default — keeps the single-pool
	// allocator, bit-identical to the pre-NUMA heap regardless of
	// Nodes.
	Policy Policy
}

func (c *Config) fill() {
	if c.Words == 0 {
		c.Words = 1 << 22
	}
	if c.Base == 0 {
		c.Base = 1 << 20
	}
	if c.Base%WordSize != 0 {
		panic("simmem: Config.Base must be word-aligned")
	}
	if c.Nodes < 1 {
		c.Nodes = 1
	}
}

// Stats reports allocator activity since creation.
type Stats struct {
	Allocs       uint64 // successful allocations
	Frees        uint64 // successful frees
	LiveBlocks   uint64 // currently allocated blocks
	LiveBytes    uint64 // currently allocated bytes (rounded to class size)
	PagesCarved  uint64 // pages handed to size classes or spans
	CacheHits    uint64 // allocations served from a thread cache
	CacheMisses  uint64 // allocations that had to refill from central lists
	CentralFrees uint64 // frees that overflowed a cache back to central

	// Per-node pool traffic (zero on a single-pool heap).
	RemoteAllocs   uint64 `json:"remote_allocs,omitempty"`   // blocks handed to a node other than their home
	HomeFrees      uint64 `json:"home_frees,omitempty"`      // frees routed into the freeing node's own pool
	RemoteFrees    uint64 `json:"remote_frees,omitempty"`    // frees routed cross-node via a remote-free inbox
	RemoteDrained  uint64 `json:"remote_drained,omitempty"`  // inbox blocks reclassified by their home pool
	PagesReclaimed uint64 `json:"pages_reclaimed,omitempty"` // wholly-free pages recycled into a new class after region exhaustion
}

// Heap is a simulated word-addressable heap.
type Heap struct {
	cfg   Config
	span  uint64   // arena size in bytes: addr is in the arena iff addr-Base < span
	words []uint64 // the arena payload
	live  []uint64 // liveness bitmap, one bit per word; nil unless Check

	pools    []pool         // one per node region (one machine-wide pool under PolicyGlobal)
	spanLive map[uint64]int // span base addr -> pages
	pagemap  []uint16       // per page: 0 free, 1+class, spanStart, spanCont
	pageNode []int8         // per page: resident node, fixed at carve time (-1 uncarved)

	rr       int // PolicyInterleave rotor
	stats    Stats
	observer Observer // batch-traffic hooks; nil when detached
}

// pool is one node's share of the arena: a contiguous page region with
// its own bump pointer, central free lists, span lists, and a
// remote-free inbox that other nodes push freed blocks onto (TCMalloc's
// remote-free pattern — the freeing thread never touches the owner's
// central lists; the owner reclassifies the inbox on its next refill).
type pool struct {
	node     int
	nextPage int // bump pointer within the region
	endPage  int // one past the region's last page
	central  []freeList
	spanFree map[int][]uint64
	remote   []uint64 // cross-node freed blocks awaiting the owner's drain
}

const (
	pageFree     = 0
	pageSpanBase = 0xFFFF
	pageSpanCont = 0xFFFE
)

type freeList struct {
	blocks []uint64 // LIFO of block base addresses
}

// New creates a heap from cfg.
func New(cfg Config) *Heap {
	cfg.fill()
	totalPages := cfg.Words / PageWords
	np := 1
	if cfg.Policy != PolicyGlobal && cfg.Nodes > 1 {
		np = cfg.Nodes
		if np > totalPages {
			np = totalPages
		}
		if np < 1 {
			np = 1
		}
	}
	h := &Heap{
		cfg:      cfg,
		span:     uint64(cfg.Words) * WordSize,
		words:    make([]uint64, cfg.Words),
		pools:    make([]pool, np),
		spanLive: make(map[uint64]int),
		pagemap:  make([]uint16, (cfg.Words+PageWords-1)/PageWords),
		pageNode: make([]int8, (cfg.Words+PageWords-1)/PageWords),
	}
	for i := range h.pageNode {
		h.pageNode[i] = -1
	}
	for n := range h.pools {
		h.pools[n] = pool{
			node:     n,
			nextPage: n * totalPages / np,
			endPage:  (n + 1) * totalPages / np,
			central:  make([]freeList, numClasses),
			spanFree: make(map[int][]uint64),
		}
	}
	if cfg.Check {
		h.live = make([]uint64, (cfg.Words+63)/64)
	}
	return h
}

// Base returns the byte address of the first arena word.
func (h *Heap) Base() uint64 { return h.cfg.Base }

// Limit returns one past the last valid byte address.
func (h *Heap) Limit() uint64 { return h.cfg.Base + h.span }

// Contains reports whether addr falls inside the arena.
func (h *Heap) Contains(addr uint64) bool {
	return addr-h.cfg.Base < h.span
}

// Stats returns a snapshot of allocator counters.
func (h *Heap) Stats() Stats { return h.stats }

// Pools returns the number of node pools the arena is split into (1 =
// the single-pool heap, where every NUMA routing path is inert).
func (h *Heap) Pools() int { return len(h.pools) }

// Policy returns the allocation policy the heap was built with.
func (h *Heap) Policy() Policy { return h.cfg.Policy }

// HomeNode returns the node whose arena region contains addr — the
// pool frees route back to (0 on a single-pool heap).
func (h *Heap) HomeNode(addr uint64) int {
	if len(h.pools) == 1 {
		return 0
	}
	page := int((addr - h.cfg.Base) / WordSize / PageWords)
	for n := range h.pools {
		if page < h.pools[n].endPage {
			return n
		}
	}
	return len(h.pools) - 1
}

// ResidentNode returns the node the block's page is resident on, fixed
// when the page was carved: the region's node under per-node pools, the
// carving thread's node under the global policy (Linux's first-touch
// page placement).  This is the notion the alloc-side locality counters
// compare against — a global pool hands one node's resident memory to
// another node's malloc; per-node pools do not.
func (h *Heap) ResidentNode(addr uint64) int {
	page := int((addr - h.cfg.Base) / WordSize / PageWords)
	if page < 0 || page >= len(h.pageNode) || h.pageNode[page] < 0 {
		return 0
	}
	return int(h.pageNode[page])
}

// clampResident bounds a requester node to the configured node count
// (independent of the pool count, so residency is tracked even on the
// global policy's single pool).
func (h *Heap) clampResident(node int) int {
	if node < 0 {
		return 0
	}
	if node >= h.cfg.Nodes {
		return h.cfg.Nodes - 1
	}
	return node
}

func (h *Heap) homePool(addr uint64) *pool {
	return &h.pools[h.HomeNode(addr)]
}

// clampNode maps an arbitrary node index onto the pool range, so a
// simulation with more nodes than the heap has pools (or an unpinned
// thread reporting -1) still routes deterministically.
func (h *Heap) clampNode(node int) int {
	if node < 0 {
		return 0
	}
	if node >= len(h.pools) {
		return len(h.pools) - 1
	}
	return node
}

// wordIndex converts a byte address to an arena word index, checking
// bounds and alignment.
func (h *Heap) wordIndex(addr uint64, op string) int {
	if addr == 0 {
		panic(&Violation{Kind: VNilDeref, Addr: addr, Op: op})
	}
	if addr%WordSize != 0 {
		panic(&Violation{Kind: VUnaligned, Addr: addr, Op: op})
	}
	if !h.Contains(addr) {
		panic(&Violation{Kind: VWildAccess, Addr: addr, Op: op})
	}
	return int((addr - h.cfg.Base) / WordSize)
}

// liveWord reports whether arena word i belongs to a live allocation
// (always true when checking is disabled).
func (h *Heap) liveWord(i uint64) bool {
	return h.live == nil || h.live[i/64]&(1<<(i%64)) != 0
}

// setLive sets or clears the liveness bits of words [i, i+n), n > 0, a
// bitmap word at a time: the head and tail words are masked to the
// range, the words between them are written whole.
func (h *Heap) setLive(i, n int, on bool) {
	first, last := i/64, (i+n-1)/64
	for w := first; w <= last; w++ {
		m := ^uint64(0)
		if w == first {
			m <<= uint(i % 64)
		}
		if w == last {
			m &= ^uint64(0) >> uint(63-(i+n-1)%64)
		}
		if on {
			h.live[w] |= m
		} else {
			h.live[w] &^= m
		}
	}
}

// access returns the word index of addr for a load, store or CAS.  One
// combined test covers every check: off is unsigned, so nil and
// below-base addresses wrap past span.  Any failure goes to fault,
// which classifies it.
func (h *Heap) access(addr uint64, op string) uint64 {
	off := addr - h.cfg.Base
	if off >= h.span || off%WordSize != 0 || !h.liveWord(off/WordSize) {
		h.fault(addr, op)
	}
	return off / WordSize
}

// fault classifies a failed access and panics with its Violation,
// re-running the checks in wordIndex's order: nil, unaligned, wild,
// then use after free.
//
//go:noinline
func (h *Heap) fault(addr uint64, op string) {
	h.wordIndex(addr, op)
	panic(&Violation{Kind: VUseAfterFree, Addr: addr, Op: op})
}

// Load reads the word at addr.  In checked mode it verifies the word
// belongs to a live allocation.
func (h *Heap) Load(addr uint64) uint64 {
	return h.words[h.access(addr, "load")]
}

// Store writes val to the word at addr, with the same checks as Load.
func (h *Heap) Store(addr uint64, val uint64) {
	h.words[h.access(addr, "store")] = val
}

// CompareAndSwap atomically (with respect to simulated threads, which
// the scheduler serializes) replaces the word at addr with new if it
// currently equals old.  It reports whether the swap happened.
func (h *Heap) CompareAndSwap(addr uint64, old, new uint64) bool {
	i := h.access(addr, "cas")
	if h.words[i] != old {
		return false
	}
	h.words[i] = new
	return true
}

// Alloc allocates a block of at least size bytes directly from the
// central lists (no thread cache), on behalf of node 0.  It returns the
// block's base address.
func (h *Heap) Alloc(size int) uint64 { return h.AllocOn(0, size) }

// AllocOn allocates a block of at least size bytes on behalf of a
// thread on the given node, routed by the heap's policy: the node's own
// pool under localalloc/membind, a round-robin pool under interleave,
// the single pool otherwise.
func (h *Heap) AllocOn(node int, size int) uint64 {
	if size <= 0 {
		panic("simmem: Alloc of non-positive size")
	}
	words := (size + WordSize - 1) / WordSize
	if words > maxSmallWords {
		return h.allocSpan(node, words)
	}
	cls := classFor(words)
	p := h.allocPool(node, cls)
	blocks := p.central[cls].blocks
	addr := blocks[len(blocks)-1]
	p.central[cls].blocks = blocks[:len(blocks)-1]
	h.finishAlloc(addr, classWords[cls])
	h.noteAlloc(node, addr)
	return addr
}

// noteAlloc counts a handed-out block against the requesting node: a
// block resident on another node is a remote alloc — its memory lives
// across the interconnect from the requester.  Counted whenever the
// machine has more than one node, *including* under the global policy
// (whose single pool is exactly what makes these hand-outs common);
// pure accounting, so the global cost model is untouched.
func (h *Heap) noteAlloc(node int, addr uint64) {
	if h.cfg.Nodes > 1 && h.ResidentNode(addr) != h.clampResident(node) {
		h.stats.RemoteAllocs++
	}
}

// allocPool selects — and readies — the pool that serves one
// small-class allocation for a thread on node, per the policy.
func (h *Heap) allocPool(node, cls int) *pool {
	if len(h.pools) == 1 {
		p := &h.pools[0]
		if len(p.central[cls].blocks) == 0 {
			h.carvePage(p, cls, h.clampResident(node))
		}
		return p
	}
	return h.routePool(node, "size class", func(p *pool, carve bool) bool {
		return h.classReady(p, cls, carve)
	})
}

// routePool implements the policy dispatch shared by small-class and
// span allocation: membind tries the node's own pool only, interleave
// advances the round-robin rotor, localalloc prefers the node with
// region fallback.  ready reports — and, when carve is allowed, makes
// — a pool able to serve the request; what labels the request in OOM
// messages.
func (h *Heap) routePool(node int, what string, ready func(p *pool, carve bool) bool) *pool {
	node = h.clampNode(node)
	switch h.cfg.Policy {
	case PolicyMembind:
		p := &h.pools[node]
		if !ready(p, true) {
			panic(&Violation{Kind: VOutOfMemory, Op: "alloc",
				Detail: fmt.Sprintf("membind: node %d arena exhausted (%s)", node, what)})
		}
		return p
	case PolicyInterleave:
		pref := h.rr
		h.rr = (h.rr + 1) % len(h.pools)
		if p := h.scanPools(pref, ready); p != nil {
			return p
		}
	default: // PolicyLocal
		if p := h.scanPools(node, ready); p != nil {
			return p
		}
	}
	panic(&Violation{Kind: VOutOfMemory, Op: "alloc",
		Detail: fmt.Sprintf("%s exhausted on every node", what)})
}

// scanPools readies a pool starting from the preferred node: the
// preferred pool is tried exhaustively first (free blocks, inbox
// drain, then a fresh local page — a local carve beats remote reuse),
// then the remaining pools in ascending wrap-around order, a cheap
// no-carve pass before a carving one.  Deterministic by construction;
// nil means every region is exhausted.
func (h *Heap) scanPools(pref int, ready func(p *pool, carve bool) bool) *pool {
	p := &h.pools[pref]
	if ready(p, true) {
		return p
	}
	n := len(h.pools)
	for pass := 0; pass < 2; pass++ {
		carve := pass == 1
		for i := 1; i < n; i++ {
			q := &h.pools[(pref+i)%n]
			if ready(q, carve) {
				return q
			}
		}
	}
	return nil
}

// classReady reports whether p can serve one block of cls, draining the
// remote-free inbox and — when carve is set — carving a fresh region
// page to make it so.
func (h *Heap) classReady(p *pool, cls int, carve bool) bool {
	if len(p.central[cls].blocks) > 0 {
		return true
	}
	if len(p.remote) > 0 {
		h.drainRemote(p)
		if len(p.central[cls].blocks) > 0 {
			return true
		}
	}
	if carve && p.nextPage < p.endPage {
		h.carvePage(p, cls, p.node)
		return true
	}
	if carve && h.reclaimPage(p, cls) {
		return true
	}
	return false
}

// reclaimPage recycles one wholly-free page out of p's central free
// lists into class cls.  It only runs once the region's bump pointer is
// exhausted: without it, a node whose region was carved up by a
// transient spike of one size class would serve every later request for
// another class from a *remote* pool forever — a permanent locality
// poisoning that a real TCMalloc's page heap never exhibits.  The
// lowest-addressed whole page wins, deterministically.  Blocks parked
// in thread caches keep their page unreclaimed, so nothing live moves.
func (h *Heap) reclaimPage(p *pool, cls int) bool {
	counts := make(map[int]int)
	best := -1
	for c := range p.central {
		whole := PageWords / classWords[c]
		for _, a := range p.central[c].blocks {
			page := int((a - h.cfg.Base) / WordSize / PageWords)
			counts[page]++
			if counts[page] == whole && (best == -1 || page < best) {
				best = page
			}
		}
	}
	if best == -1 {
		return false
	}
	oldCls := int(h.pagemap[best]) - 1
	kept := p.central[oldCls].blocks[:0]
	for _, a := range p.central[oldCls].blocks {
		if int((a-h.cfg.Base)/WordSize/PageWords) != best {
			kept = append(kept, a)
		}
	}
	p.central[oldCls].blocks = kept
	h.pagemap[best] = uint16(cls + 1)
	w := classWords[cls]
	base := h.cfg.Base + uint64(best*PageWords)*WordSize
	for k := PageWords/w - 1; k >= 0; k-- {
		p.central[cls].blocks = append(p.central[cls].blocks, base+uint64(k*w)*WordSize)
	}
	h.stats.PagesReclaimed++
	return true
}

// drainRemote reclassifies every inbox block into the owner's central
// lists.  It runs on the owner's allocation path, which is the whole
// point of the inbox: the cross-node freer appended one word and never
// touched the central lists.
func (h *Heap) drainRemote(p *pool) {
	for _, addr := range p.remote {
		i := h.wordIndex(addr, "drain")
		cls := int(h.pagemap[i/PageWords]) - 1
		p.central[cls].blocks = append(p.central[cls].blocks, addr)
	}
	h.stats.RemoteDrained += uint64(len(p.remote))
	if h.observer != nil {
		h.observer.InboxDrain(p.node, len(p.remote))
	}
	p.remote = p.remote[:0]
}

// Free returns the block at addr (which must be a block base returned
// by Alloc or a cache) to its home pool's central list.
func (h *Heap) Free(addr uint64) {
	words := h.checkFree(addr)
	if words > maxSmallWords {
		h.freeSpanTo(h.HomeNode(addr), addr, words)
		return
	}
	cls := classFor(words)
	p := h.homePool(addr)
	p.central[cls].blocks = append(p.central[cls].blocks, addr)
}

// FreeToNode returns the block at addr to its *home* node's pool on
// behalf of a thread on node from.  A same-node free pushes the home
// pool's central list directly; a cross-node free appends to the home
// pool's remote-free inbox — the freeing thread never touches the
// remote pool's central state, and the owner drains the inbox on its
// next refill.  Reports whether the free was routed cross-node.
func (h *Heap) FreeToNode(from int, addr uint64) bool {
	words := h.checkFree(addr)
	if words > maxSmallWords {
		return h.freeSpanTo(from, addr, words)
	}
	return h.releaseBlock(from, addr, classFor(words))
}

// releaseBlock routes an already-checked small block to its home pool,
// counting the routing direction.  Reports a cross-node routing.
func (h *Heap) releaseBlock(from int, addr uint64, cls int) bool {
	p := h.homePool(addr)
	if len(h.pools) == 1 {
		p.central[cls].blocks = append(p.central[cls].blocks, addr)
		return false
	}
	if p.node == h.clampNode(from) {
		p.central[cls].blocks = append(p.central[cls].blocks, addr)
		h.stats.HomeFrees++
		return false
	}
	p.remote = append(p.remote, addr)
	h.stats.RemoteFrees++
	return true
}

// SizeOf returns the usable size in bytes of the live block at addr,
// which must be a block base.
func (h *Heap) SizeOf(addr uint64) int {
	return h.blockWords(addr, "sizeof") * WordSize
}

// blockWords returns the size in words of the block containing addr and
// verifies addr is the block base.
func (h *Heap) blockWords(addr uint64, op string) int {
	i := h.wordIndex(addr, op)
	page := i / PageWords
	switch pm := h.pagemap[page]; {
	case pm == pageFree:
		panic(&Violation{Kind: VWildAccess, Addr: addr, Op: op, Detail: "address in uncarved page"})
	case pm == pageSpanBase:
		pages, ok := h.spanLive[addr]
		if !ok {
			panic(&Violation{Kind: VBadFree, Addr: addr, Op: op, Detail: "not a span base"})
		}
		return pages * PageWords
	case pm == pageSpanCont:
		panic(&Violation{Kind: VBadFree, Addr: addr, Op: op, Detail: "interior of large span"})
	default:
		cls := int(pm - 1)
		w := classWords[cls]
		offInPage := i % PageWords
		if offInPage%w != 0 {
			panic(&Violation{Kind: VBadFree, Addr: addr, Op: op, Detail: "not a block base"})
		}
		return w
	}
}

// checkFree validates a free of addr and updates liveness state.  It
// returns the block size in words.
func (h *Heap) checkFree(addr uint64) int {
	words := h.blockWords(addr, "free")
	i := h.wordIndex(addr, "free")
	if h.live != nil {
		if !h.liveWord(uint64(i)) {
			panic(&Violation{Kind: VDoubleFree, Addr: addr, Op: "free"})
		}
		h.setLive(i, words, false)
	}
	if h.cfg.Poison {
		for j := i; j < i+words; j++ {
			h.words[j] = PoisonWord
		}
	}
	h.stats.Frees++
	h.stats.LiveBlocks--
	h.stats.LiveBytes -= uint64(words) * WordSize
	return words
}

// finishAlloc marks a block live and clears it.
func (h *Heap) finishAlloc(addr uint64, words int) {
	i := int((addr - h.cfg.Base) / WordSize)
	if h.live != nil {
		h.setLive(i, words, true)
	}
	if h.cfg.Poison {
		for j := i; j < i+words; j++ {
			h.words[j] = 0
		}
	}
	h.stats.Allocs++
	h.stats.LiveBlocks++
	h.stats.LiveBytes += uint64(words) * WordSize
}

// carvePage assigns p's next region page to class cls and splits it
// into blocks, failing loudly if the region is exhausted (policy-level
// fallback probes the region bound before calling).  The page becomes
// resident on the given node: the region's own node under per-node
// pools, the requesting thread's node on the global single pool
// (first-touch).
func (h *Heap) carvePage(p *pool, cls int, resident int) {
	page := h.takePages(p, 1)
	h.pagemap[page] = uint16(cls + 1)
	h.pageNode[page] = int8(resident)
	w := classWords[cls]
	base := h.cfg.Base + uint64(page*PageWords)*WordSize
	n := PageWords / w
	// Push in reverse so blocks pop in address order; deterministic and
	// friendlier to the sorted master buffers built on top.
	for k := n - 1; k >= 0; k-- {
		p.central[cls].blocks = append(p.central[cls].blocks, base+uint64(k*w)*WordSize)
	}
	h.stats.PagesCarved++
}

// allocSpan allocates a run of whole pages for a large block on behalf
// of a thread on node, routed by the policy like small classes.
func (h *Heap) allocSpan(node, words int) uint64 {
	pages := (words + PageWords - 1) / PageWords
	p := h.spanPool(node, pages)
	var addr uint64
	if free := p.spanFree[pages]; len(free) > 0 {
		addr = free[len(free)-1]
		p.spanFree[pages] = free[:len(free)-1]
	} else {
		page := h.takePages(p, pages)
		h.pagemap[page] = pageSpanBase
		resident := p.node
		if len(h.pools) == 1 {
			resident = h.clampResident(node)
		}
		h.pageNode[page] = int8(resident)
		for q := page + 1; q < page+pages; q++ {
			h.pagemap[q] = pageSpanCont
			h.pageNode[q] = int8(resident)
		}
		addr = h.cfg.Base + uint64(page*PageWords)*WordSize
		h.stats.PagesCarved += uint64(pages)
	}
	h.spanLive[addr] = pages
	h.finishAlloc(addr, pages*PageWords)
	h.noteAlloc(node, addr)
	return addr
}

// spanPool selects the pool that serves one span of the given page
// count, per the policy (the span analog of allocPool).
func (h *Heap) spanPool(node, pages int) *pool {
	if len(h.pools) == 1 {
		return &h.pools[0]
	}
	return h.routePool(node, fmt.Sprintf("span of %d pages", pages),
		func(p *pool, carve bool) bool { return h.spanReady(p, pages, carve) })
}

// spanReady reports whether p can serve a span of the given page count:
// a recycled span of that size, or (when carve) a fresh region run.
func (h *Heap) spanReady(p *pool, pages int, carve bool) bool {
	if len(p.spanFree[pages]) > 0 {
		return true
	}
	return carve && p.nextPage+pages <= p.endPage
}

// freeSpanTo returns a span to its home pool's span list, reporting a
// cross-node routing.  Spans skip the remote-free inbox: returning one
// is a single append on the home pool's side table, and mixing
// page-granular spans into the block-granular inbox would complicate
// the drain for no modeled benefit.
func (h *Heap) freeSpanTo(from int, addr uint64, words int) bool {
	pages := words / PageWords
	p := h.homePool(addr)
	delete(h.spanLive, addr)
	p.spanFree[pages] = append(p.spanFree[pages], addr)
	if len(h.pools) > 1 {
		if p.node == h.clampNode(from) {
			h.stats.HomeFrees++
			return false
		}
		h.stats.RemoteFrees++
		return true
	}
	return false
}

// takePages advances p's bump pointer by n pages, failing loudly if the
// region is exhausted.
func (h *Heap) takePages(p *pool, n int) int {
	page := p.nextPage
	if page+n > p.endPage {
		panic(&Violation{Kind: VOutOfMemory, Op: "alloc",
			Detail: fmt.Sprintf("arena exhausted: need %d pages, %d words total", n, h.cfg.Words)})
	}
	p.nextPage += n
	return page
}

// MisplacedBlocks counts free blocks parked in a pool other than their
// home region's — always zero when free routing is sound, whatever the
// policy or churn pattern.  Diagnostic; the pool-accounting regression
// tests assert on it.
func (h *Heap) MisplacedBlocks() int {
	if len(h.pools) == 1 {
		return 0
	}
	n := 0
	for pi := range h.pools {
		p := &h.pools[pi]
		for cls := range p.central {
			for _, a := range p.central[cls].blocks {
				if h.HomeNode(a) != p.node {
					n++
				}
			}
		}
		for _, a := range p.remote {
			if h.HomeNode(a) != p.node {
				n++
			}
		}
		for _, spans := range p.spanFree {
			for _, a := range spans {
				if h.HomeNode(a) != p.node {
					n++
				}
			}
		}
	}
	return n
}

// LiveAt reports whether the word at addr currently belongs to a live
// allocation.  It always returns true when checking is disabled.
func (h *Heap) LiveAt(addr uint64) bool {
	if h.live == nil {
		return h.Contains(addr)
	}
	if !h.Contains(addr) || addr%WordSize != 0 {
		return false
	}
	return h.liveWord((addr - h.cfg.Base) / WordSize)
}
