package ds

import (
	"threadscan/internal/reclaim"
	"threadscan/internal/simt"
)

// Harris lock-free linked list [20], in the Herlihy–Shavit formulation
// the paper uses [25].  The list is sorted, with logical deletion via a
// mark bit stolen from the low-order bit of a node's next pointer —
// precisely the bit ThreadScan's scan masks off (§4.2).
//
// Links are represented by the *address of the pointer word*: the head
// word for the first position, or a node's next field otherwise.  This
// lets the same code serve the standalone list and every hash-table
// bucket without sentinel nodes.
//
// Node layout (word offsets):
//
//	0: key
//	1: next | markBit
//	2: value
//	3+: padding to NodeBytes (172 by default, as in §6)

const (
	listKey  = 0
	listNext = 1
	listVal  = 2
)

// DefaultNodeBytes pads list nodes as the paper does ("Each node was
// padded to 172 bytes to avoid false sharing", §6).
const DefaultNodeBytes = 172

// minNodeBytes covers the three mandatory fields.
const minNodeBytes = 24

// List is the standalone Harris list.
type List struct {
	lc       listCore
	headLink uint64 // address of the head pointer word
}

// listCore carries what the shared list algorithm needs; the hash table
// embeds one too.
type listCore struct {
	sim       *simt.Sim
	scheme    reclaim.Scheme
	nodeBytes int
}

// NewList creates an empty list bound to sim and scheme.  nodeBytes of
// 0 selects the paper's 172-byte padding.  Must be called from outside
// the simulation (setup time) before Run, or from a thread via
// NewListAt.
func NewList(sim *simt.Sim, scheme reclaim.Scheme, nodeBytes int) *List {
	if nodeBytes <= 0 {
		nodeBytes = DefaultNodeBytes
	}
	if nodeBytes < minNodeBytes {
		nodeBytes = minNodeBytes
	}
	l := &List{lc: listCore{sim: sim, scheme: scheme, nodeBytes: nodeBytes}}
	l.headLink = sim.Heap().Alloc(8)
	sim.Heap().Store(l.headLink, 0)
	return l
}

// Name implements Set.
func (l *List) Name() string { return "list" }

// Insert implements Set.
func (l *List) Insert(th *simt.Thread, key uint64) bool {
	l.lc.scheme.BeginOp(th)
	ok := l.lc.insert(th, l.headLink, key, key)
	l.lc.scheme.EndOp(th)
	return ok
}

// Remove implements Set.
func (l *List) Remove(th *simt.Thread, key uint64) bool {
	l.lc.scheme.BeginOp(th)
	ok := l.lc.remove(th, l.headLink, key)
	l.lc.scheme.EndOp(th)
	return ok
}

// Contains implements Set.
func (l *List) Contains(th *simt.Thread, key uint64) bool {
	l.lc.scheme.BeginOp(th)
	ok := l.lc.contains(th, l.headLink, key)
	l.lc.scheme.EndOp(th)
	return ok
}

// Len walks the list outside the simulation (test/diagnostic use only)
// and returns the number of unmarked nodes.
func (l *List) Len() int { return l.lc.length(l.headLink) }

// Keys returns the unmarked keys in order (test use only).
func (l *List) Keys() []uint64 { return l.lc.keys(l.headLink) }

// ---------------------------------------------------------------------
// Shared Harris-list algorithm over a link address.

// checkKey panics on keys that would collide with sentinels.
func checkKey(key uint64) {
	if key < MinKey || key > MaxKey {
		panic("ds: key out of [MinKey, MaxKey]")
	}
}

// search positions rPrev at the link whose target is the first node
// with key >= target (rCurr; 0 if none), snipping marked nodes along
// the way (Harris' physical deletion during traversal).  The caller
// receives rPrev/rCurr ready for a CAS.
//
// Without a per-step discipline the walk between snips is a plain load
// sequence, run as one Thread.ChaseSorted; hazard and era schemes
// publish and validate every node, so they step one node at a time.
func (c *listCore) search(th *simt.Thread, headLink, key uint64) {
	disc := disciplined(c.scheme)
retry:
	for {
		th.SetReg(rPrev, headLink)
		th.Load(rCurr, rPrev, 0)
		for !disc {
			if th.ChaseSorted(rPrev, rCurr, rNext, rTmp, listNext, listKey, key, true) != simt.ChaseMarked {
				return
			}
			if !c.snip(th) {
				continue retry
			}
		}
		slot := hpA
		for {
			if th.Reg(rCurr) == 0 {
				return // end of list
			}
			if c.scheme.Protect(th, slot, rCurr) && !validate(th) {
				continue retry
			}
			slot ^= 1 // keep the previous node's hazard alive
			th.Load(rNext, rCurr, listNext)
			if th.Reg(rNext)&1 != 0 {
				if !c.snip(th) {
					continue retry
				}
				continue
			}
			th.Load(rTmp, rCurr, listKey)
			if th.Reg(rTmp) >= key {
				return
			}
			// Advance: the link becomes curr's next field.
			th.SetReg(rPrev, th.Reg(rCurr)+listNext*8)
			th.SetReg(rCurr, th.Reg(rNext))
		}
	}
}

// snip unlinks the logically deleted node in rCurr, whose successor
// word is in rNext, from the link in rPrev, and advances rCurr to the
// successor.  Whoever wins the CAS owns the retirement; false means the
// link changed under us and the search must restart.
func (c *listCore) snip(th *simt.Thread) bool {
	th.SetReg(rTmp, th.Reg(rNext)&^1)
	if !th.CAS(rPrev, 0, rCurr, rTmp) {
		return false
	}
	c.scheme.Retire(th, th.Reg(rCurr))
	th.CopyReg(rCurr, rTmp)
	return true
}

// insert adds key with the given value, reporting false if present.
func (c *listCore) insert(th *simt.Thread, headLink, key, val uint64) bool {
	checkKey(key)
	allocated := false
	for {
		c.search(th, headLink, key)
		if th.Reg(rCurr) != 0 {
			th.Load(rTmp, rCurr, listKey)
			if th.Reg(rTmp) == key {
				if allocated { // lost the race; node was never published
					th.FreeAddr(th.Reg(rNode))
					th.SetReg(rNode, 0)
				}
				return false
			}
		}
		if !allocated {
			th.Alloc(rNode, c.nodeBytes)
			stamp(th, c.scheme, rNode)
			th.StoreImm(rNode, listKey, key)
			th.StoreImm(rNode, listVal, val)
			allocated = true
		}
		th.Store(rNode, listNext, rCurr) // node.next = curr
		if th.CAS(rPrev, 0, rCurr, rNode) {
			return true
		}
		// Link changed under us (insert, remove, or mark): retry.
	}
}

// remove deletes key, reporting false if absent.
func (c *listCore) remove(th *simt.Thread, headLink, key uint64) bool {
	checkKey(key)
	for {
		c.search(th, headLink, key)
		if th.Reg(rCurr) == 0 {
			return false
		}
		th.Load(rTmp, rCurr, listKey)
		if th.Reg(rTmp) != key {
			return false
		}
		th.Load(rNext, rCurr, listNext)
		if th.Reg(rNext)&1 != 0 {
			continue // already logically deleted; re-search (helps snip)
		}
		// Logical deletion: mark curr's next pointer.
		th.SetReg(rTmp, th.Reg(rNext)|1)
		if !th.CAS(rCurr, listNext, rNext, rTmp) {
			continue // contention on curr; retry
		}
		// Physical deletion: unlink; on failure a traversal will snip
		// it (and own the retirement).
		if th.CAS(rPrev, 0, rCurr, rNext) {
			c.scheme.Retire(th, th.Reg(rCurr))
		}
		return true
	}
}

// contains is the unsynchronized traversal: a pure read sequence, no
// helping, no stores (except hazard publication under that discipline).
func (c *listCore) contains(th *simt.Thread, headLink, key uint64) bool {
	checkKey(key)
	disc := disciplined(c.scheme)
retry:
	for {
		th.SetReg(rPrev, headLink)
		th.Load(rCurr, rPrev, 0)
		if !disc {
			if th.ChaseSorted(rPrev, rCurr, rNext, rTmp, listNext, listKey, key, false) == simt.ChaseEnd {
				return false
			}
			return th.Reg(rTmp) == key && th.Reg(rNext)&1 == 0
		}
		slot := hpA
		for {
			if th.Reg(rCurr) == 0 {
				return false
			}
			if c.scheme.Protect(th, slot, rCurr) && !validate(th) {
				continue retry
			}
			slot ^= 1
			th.Load(rNext, rCurr, listNext)
			th.Load(rTmp, rCurr, listKey)
			if th.Reg(rTmp) >= key {
				return th.Reg(rTmp) == key && th.Reg(rNext)&1 == 0
			}
			th.SetReg(rPrev, th.Reg(rCurr)+listNext*8)
			th.SetReg(rCurr, th.Reg(rNext)&^1)
		}
	}
}

// length and keys are host-side structure walks for tests; they bypass
// the cost model and must only run while the simulation is quiescent.
func (c *listCore) length(headLink uint64) int {
	n := 0
	h := c.sim.Heap()
	for p := h.Load(headLink) &^ 1; p != 0; {
		next := h.Load(p + listNext*8)
		if next&1 == 0 {
			n++
		}
		p = next &^ 1
	}
	return n
}

func (c *listCore) keys(headLink uint64) []uint64 {
	var out []uint64
	h := c.sim.Heap()
	for p := h.Load(headLink) &^ 1; p != 0; {
		next := h.Load(p + listNext*8)
		if next&1 == 0 {
			out = append(out, h.Load(p+listKey*8))
		}
		p = next &^ 1
	}
	return out
}
