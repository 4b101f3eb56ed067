package ds

import (
	"threadscan/internal/reclaim"
	"threadscan/internal/simt"
)

// SkipList is the paper's lock-based data structure (§6): the lazy
// skip list of Herlihy–Shavit [23, 25].  Traversals (including the
// find phase of updates) are wait-free unsynchronized reads; updates
// lock the affected predecessor nodes, validate, and splice.  Removal
// is lazy: mark, then unlink top-down, then retire.
//
// Nodes are fixed size regardless of height, as in the paper ("104 byte
// nodes (representing the maximum size due to height)"); with
// MaxLevel = 10 the node is 15 words = 120 bytes, the closest word
// multiple to the paper's layout.
//
// Node layout (word offsets):
//
//	0: key
//	1: topLevel (highest valid next index)
//	2: marked flag
//	3: fullyLinked flag
//	4: lock word (0 free / 1 held)
//	5..5+MaxLevel-1: next pointers per level
//
// Lock ordering: victim first, then predecessors from level 0 upward.
// Every predecessor key is smaller than the victim key and level-0
// predecessors have the largest keys, so all threads acquire locks in
// globally descending key order — no deadlock.
//
// Hazard discipline: the skip list needs many more hazard slots than
// the list — per-level slots for the preds/succs arrays plus two
// alternating traversal slots ("Actual hazard pointers were already
// provided in the skip list implementation", §6).  SkipListHazardSlots
// is the slot count a Hazard domain must be configured with.

// MaxLevel is the number of skip-list levels.
const MaxLevel = 10

const (
	slKey         = 0
	slTop         = 1
	slMarked      = 2
	slFullyLinked = 3
	slLock        = 4
	slNext        = 5 // next[level] = slNext + level
)

const slNodeBytes = (slNext + MaxLevel) * 8

// Frame slot layout for find(): preds then succs.
const (
	fpPreds = 0
	fpSuccs = MaxLevel
	fpSize  = 2 * MaxLevel
)

// Hazard slot layout: preds per level, succs per level, two traversal
// slots.  (The shared list code uses slots 0 and 1, which alias the
// level-0/1 pred slots — never concurrently within one thread, since a
// thread runs one operation at a time.)
const (
	hzPreds = 0
	hzSuccs = MaxLevel
	hzTravA = 2 * MaxLevel
	hzTravB = 2*MaxLevel + 1
)

// SkipListHazardSlots is the per-thread hazard-slot count the skip list
// requires.
const SkipListHazardSlots = 2*MaxLevel + 2

// SkipList implements Set with fine-grained per-node locks.
type SkipList struct {
	sim    *simt.Sim
	scheme reclaim.Scheme
	head   uint64 // full-height sentinel, key < MinKey
	tail   uint64 // full-height sentinel, key > MaxKey
}

// NewSkipList creates an empty skip list bound to sim and scheme.
func NewSkipList(sim *simt.Sim, scheme reclaim.Scheme) *SkipList {
	sl := &SkipList{sim: sim, scheme: scheme}
	h := sim.Heap()
	sl.head = h.Alloc(slNodeBytes)
	sl.tail = h.Alloc(slNodeBytes)
	for _, n := range []uint64{sl.head, sl.tail} {
		h.Store(n+slTop*8, MaxLevel-1)
		h.Store(n+slMarked*8, 0)
		h.Store(n+slFullyLinked*8, 1)
		h.Store(n+slLock*8, 0)
	}
	h.Store(sl.head+slKey*8, 0)          // -infinity
	h.Store(sl.tail+slKey*8, ^uint64(0)) // +infinity
	for lv := 0; lv < MaxLevel; lv++ {
		h.Store(sl.head+uint64(slNext+lv)*8, sl.tail)
		h.Store(sl.tail+uint64(slNext+lv)*8, 0)
	}
	return sl
}

// Name implements Set.
func (sl *SkipList) Name() string { return "skiplist" }

// randomLevel draws a geometric(1/2) height in [1, MaxLevel].
func (sl *SkipList) randomLevel(th *simt.Thread) int {
	lvl := 1
	for lvl < MaxLevel && th.RNG().Intn(2) == 0 {
		lvl++
	}
	return lvl
}

// lockNode spin-acquires the lock word of the node in reg.  Spinning
// passes safepoints, so a thread stuck behind a lock still answers
// scans.
func (sl *SkipList) lockNode(th *simt.Thread, reg int) {
	for !th.CASImm(reg, slLock, 0, 1) {
		th.Pause()
	}
}

// unlockNode releases the lock word of the node in reg.
func (sl *SkipList) unlockNode(th *simt.Thread, reg int) {
	th.StoreImm(reg, slLock, 0)
}

// descend walks one level: starting from the node in rPrev (protected
// by predSlot under the hazard discipline), it advances until
// rPrev.key < key <= rCurr.key at the given level.  It returns the new
// predSlot (the slot protecting rPrev) or -1 to signal a restart.
// After return, rTmp holds rCurr's key.
func (sl *SkipList) descend(th *simt.Thread, level int, key uint64, predSlot int, disc bool) int {
	th.Load(rCurr, rPrev, slNext+level)
	for {
		if disc {
			currSlot := hzTravA
			if predSlot == hzTravA {
				currSlot = hzTravB
			}
			if sl.scheme.Protect(th, currSlot, rCurr) {
				// Validate: pred.next[level] is still curr, and pred is
				// unmarked.  A removed pred's links are frozen, so its
				// next[level] can still name a node that was unlinked
				// and retired before the hazard was published.
				th.Load(rVal, rPrev, slNext+level)
				if th.Reg(rVal) != th.Reg(rCurr) {
					return -1
				}
				th.Load(rVal, rPrev, slMarked)
				if th.Reg(rVal) != 0 {
					return -1
				}
			}
			th.Load(rTmp, rCurr, slKey)
			if th.Reg(rTmp) < key {
				th.CopyReg(rPrev, rCurr)
				predSlot = currSlot
				th.Load(rCurr, rPrev, slNext+level)
				continue
			}
			return predSlot
		}
		th.Load(rTmp, rCurr, slKey)
		if th.Reg(rTmp) < key {
			th.CopyReg(rPrev, rCurr)
			th.Load(rCurr, rPrev, slNext+level)
			continue
		}
		return predSlot
	}
}

// find populates the current frame's preds/succs slots for key and
// returns the highest level at which key was found, or -1.  Under the
// hazard discipline it additionally publishes per-level hazards for
// every pred/succ it records, so the nodes stay protected after the
// traversal moves on.
func (sl *SkipList) find(th *simt.Thread, key uint64) int {
	disc := disciplined(sl.scheme)
retry:
	for {
		lFound := -1
		th.SetReg(rPrev, sl.head)
		predSlot := hzTravA
		if disc {
			sl.scheme.Protect(th, predSlot, rPrev)
		}
		for level := MaxLevel - 1; level >= 0; level-- {
			predSlot = sl.descend(th, level, key, predSlot, disc)
			if predSlot < 0 {
				continue retry
			}
			if disc {
				// Hand the pair off to per-level hazards; both nodes
				// are currently protected by traversal slots, so no
				// re-validation is needed.
				sl.scheme.Protect(th, hzPreds+level, rPrev)
				sl.scheme.Protect(th, hzSuccs+level, rCurr)
			}
			if lFound == -1 && th.Reg(rTmp) == key {
				lFound = level
			}
			th.SetSlot(fpPreds+level, th.Reg(rPrev))
			th.SetSlot(fpSuccs+level, th.Reg(rCurr))
		}
		return lFound
	}
}

// Insert implements Set.
func (sl *SkipList) Insert(th *simt.Thread, key uint64) bool {
	checkKey(key)
	sl.scheme.BeginOp(th)
	defer sl.scheme.EndOp(th)
	topLevel := sl.randomLevel(th) - 1
	th.PushFrame(fpSize)
	defer th.PopFrame()
	for {
		lFound := sl.find(th, key)
		if lFound != -1 {
			// Present (or mid-insert/mid-remove): the lazy algorithm
			// waits for fullyLinked unless marked.  The node is
			// protected by the hzSuccs+lFound hazard / frame slot.
			th.SetReg(rNode, th.Slot(fpSuccs+lFound))
			th.Load(rTmp, rNode, slMarked)
			if th.Reg(rTmp) == 0 {
				for {
					th.Load(rTmp, rNode, slFullyLinked)
					if th.Reg(rTmp) != 0 {
						return false
					}
					th.Pause()
				}
			}
			continue // marked: it will disappear; retry
		}
		// Lock predecessors bottom-up and validate.
		valid := true
		highestLocked := -1
		for level := 0; level <= topLevel; level++ {
			th.SetReg(rTmp2, th.Slot(fpPreds+level))
			if level == 0 || th.Slot(fpPreds+level) != th.Slot(fpPreds+level-1) {
				sl.lockNode(th, rTmp2)
				highestLocked = level
			}
			// valid ⇔ pred unmarked ∧ pred.next[level] == succ.
			th.Load(rTmp, rTmp2, slMarked)
			if th.Reg(rTmp) != 0 {
				valid = false
				break
			}
			th.Load(rTmp, rTmp2, slNext+level)
			if th.Reg(rTmp) != th.Slot(fpSuccs+level) {
				valid = false
				break
			}
		}
		if !valid {
			sl.unlockPreds(th, highestLocked)
			continue
		}
		// Splice in a new node.
		th.Alloc(rNode, slNodeBytes)
		stamp(th, sl.scheme, rNode)
		th.StoreImm(rNode, slKey, key)
		th.StoreImm(rNode, slTop, uint64(topLevel))
		th.StoreImm(rNode, slMarked, 0)
		th.StoreImm(rNode, slFullyLinked, 0)
		th.StoreImm(rNode, slLock, 0)
		for level := 0; level <= topLevel; level++ {
			th.SetReg(rTmp, th.Slot(fpSuccs+level))
			th.Store(rNode, slNext+level, rTmp)
		}
		for level := 0; level <= topLevel; level++ {
			th.SetReg(rTmp2, th.Slot(fpPreds+level))
			th.Store(rTmp2, slNext+level, rNode)
		}
		th.StoreImm(rNode, slFullyLinked, 1)
		sl.unlockPreds(th, highestLocked)
		return true
	}
}

// unlockPreds releases the distinct predecessor locks up to level.
func (sl *SkipList) unlockPreds(th *simt.Thread, highestLocked int) {
	for level := 0; level <= highestLocked; level++ {
		if level == 0 || th.Slot(fpPreds+level) != th.Slot(fpPreds+level-1) {
			th.SetReg(rTmp2, th.Slot(fpPreds+level))
			sl.unlockNode(th, rTmp2)
		}
	}
}

// Remove implements Set (lazy removal).
func (sl *SkipList) Remove(th *simt.Thread, key uint64) bool {
	checkKey(key)
	sl.scheme.BeginOp(th)
	defer sl.scheme.EndOp(th)
	th.PushFrame(fpSize)
	defer th.PopFrame()
	isMarker := false // we marked the victim; we must finish the removal
	topLevel := -1
	for {
		lFound := sl.find(th, key)
		if !isMarker {
			if lFound == -1 {
				return false
			}
			// The victim is protected by the hzSuccs+lFound hazard.
			th.SetReg(rNode, th.Slot(fpSuccs+lFound))
			// Eligible only if fully linked at its top level, unmarked.
			th.Load(rTmp, rNode, slFullyLinked)
			if th.Reg(rTmp) == 0 {
				return false
			}
			th.Load(rTmp, rNode, slTop)
			if int(th.Reg(rTmp)) != lFound {
				return false
			}
			topLevel = lFound
			sl.lockNode(th, rNode)
			th.Load(rTmp, rNode, slMarked)
			if th.Reg(rTmp) != 0 {
				sl.unlockNode(th, rNode)
				return false // someone else is removing it
			}
			th.StoreImm(rNode, slMarked, 1)
			isMarker = true
			// From here the victim is ours: marked and locked, nobody
			// else can retire it, so re-finds need no extra hazard.
		} else {
			// Re-find path: restore the victim register.  It is still
			// linked (our unlink has not happened), marked, and locked.
			if lFound == -1 {
				panic("ds: marked and locked skip-list victim vanished")
			}
			th.SetReg(rNode, th.Slot(fpSuccs+lFound))
		}
		// Lock predecessors and validate pred.next[level] == victim.
		valid := true
		highestLocked := -1
		for level := 0; level <= topLevel; level++ {
			th.SetReg(rTmp2, th.Slot(fpPreds+level))
			if level == 0 || th.Slot(fpPreds+level) != th.Slot(fpPreds+level-1) {
				sl.lockNode(th, rTmp2)
				highestLocked = level
			}
			th.Load(rTmp, rTmp2, slMarked)
			if th.Reg(rTmp) != 0 {
				valid = false
				break
			}
			th.Load(rTmp, rTmp2, slNext+level)
			if th.Reg(rTmp) != th.Reg(rNode) {
				valid = false
				break
			}
		}
		if !valid {
			sl.unlockPreds(th, highestLocked)
			continue // re-find and retry the splice (victim stays marked)
		}
		// Unlink top-down.
		for level := topLevel; level >= 0; level-- {
			th.Load(rTmp, rNode, slNext+level)
			th.SetReg(rTmp2, th.Slot(fpPreds+level))
			th.Store(rTmp2, slNext+level, rTmp)
		}
		sl.unlockNode(th, rNode)
		sl.unlockPreds(th, highestLocked)
		sl.scheme.Retire(th, th.Reg(rNode))
		return true
	}
}

// Contains implements Set: the wait-free unsynchronized traversal.
func (sl *SkipList) Contains(th *simt.Thread, key uint64) bool {
	checkKey(key)
	sl.scheme.BeginOp(th)
	defer sl.scheme.EndOp(th)
	disc := disciplined(sl.scheme)
retry:
	for {
		th.SetReg(rPrev, sl.head)
		predSlot := hzTravA
		if disc {
			sl.scheme.Protect(th, predSlot, rPrev)
		}
		for level := MaxLevel - 1; level >= 0; level-- {
			predSlot = sl.descend(th, level, key, predSlot, disc)
			if predSlot < 0 {
				continue retry
			}
			if th.Reg(rTmp) == key {
				// rCurr is the candidate, protected by a traversal slot.
				th.Load(rTmp, rCurr, slFullyLinked)
				th.Load(rTmp2, rCurr, slMarked)
				return th.Reg(rTmp) != 0 && th.Reg(rTmp2) == 0
			}
		}
		return false
	}
}

// Len counts unmarked, fully linked nodes at level 0 (test use only).
func (sl *SkipList) Len() int {
	n := 0
	h := sl.sim.Heap()
	for p := h.Load(sl.head + slNext*8); p != 0 && p != sl.tail; p = h.Load(p + slNext*8) {
		if h.Load(p+slMarked*8) == 0 && h.Load(p+slFullyLinked*8) != 0 {
			n++
		}
	}
	return n
}

// Keys returns the unmarked keys in order (test use only).
func (sl *SkipList) Keys() []uint64 {
	var out []uint64
	h := sl.sim.Heap()
	for p := h.Load(sl.head + slNext*8); p != 0 && p != sl.tail; p = h.Load(p + slNext*8) {
		if h.Load(p+slMarked*8) == 0 && h.Load(p+slFullyLinked*8) != 0 {
			out = append(out, h.Load(p+slKey*8))
		}
	}
	return out
}
