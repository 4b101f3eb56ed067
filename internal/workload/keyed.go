package workload

import (
	"cmp"
	"fmt"
	"slices"
)

// Commutativity-aware op histories: the differential checker's lever
// for *concurrent* runs.
//
// The flat trace digest (trace.go) folds every worker's (op, key,
// result) stream in execution order, so two schemes agree only when
// their schedules interleave identically — which restricts exact
// cross-scheme comparison to serialized runs.  The keyed trace relaxes
// that: under an op budget (Scenario.OpsPerWorker) each worker's (op,
// key) stream is a function of the seed alone, so sorting the ops *per
// key* into the canonical (worker, per-worker index) order yields a
// history every scheme must reproduce bit-for-bit even when the
// schedules differ — only the success bits are schedule-dependent.
// Combining per-key hashes commutatively (addition) makes the digest
// independent of key-discovery order too.
//
// What the success bits lose in comparability they regain as a
// *semantic* invariant: for a set, any linearization of one key's
// history alternates successful inserts and removes, so the net
// successful count over initial presence p0 must land back in {0, 1}.
// A double-successful insert (or a remove that freed a node twice — the
// corruption reclamation bugs cause) breaks it immediately.

// keyedOp is one recorded operation on one key.
type keyedOp struct {
	worker int // worker index in spawn order
	idx    int // per-worker, per-key sequence number
	op     Op
	ok     bool
}

// KeyedTrace accumulates one worker's per-key op history.
type KeyedTrace struct {
	worker int
	ops    map[uint64][]keyedOp
}

// NewKeyedTrace returns an empty per-key accumulator for the given
// worker index (spawn order).
func NewKeyedTrace(worker int) *KeyedTrace {
	return &KeyedTrace{worker: worker, ops: make(map[uint64][]keyedOp)}
}

// Record folds one executed operation into the per-key history.
func (k *KeyedTrace) Record(op Op, key uint64, ok bool) {
	k.ops[key] = append(k.ops[key], keyedOp{
		worker: k.worker, idx: len(k.ops[key]), op: op, ok: ok})
}

// KeyedSummary is the merged, canonicalized view of every worker's
// per-key history.
type KeyedSummary struct {
	// Digest hashes each key's canonical (worker, index, op) history
	// and combines the per-key hashes commutatively.  Equal seeds and
	// op budgets must yield equal digests across schemes and schedules;
	// success bits are deliberately excluded.
	Digest uint64

	perKey map[uint64]*keyTally
}

// keyTally is the per-key semantic ledger.
type keyTally struct {
	succIns, succRem int
	attempts         int
}

// MergeKeyed canonicalizes and merges per-worker keyed traces, in
// worker spawn order.
func MergeKeyed(traces []*KeyedTrace) *KeyedSummary {
	s := &KeyedSummary{perKey: make(map[uint64]*keyTally)}
	hist := make(map[uint64][]keyedOp)
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		for key, ops := range tr.ops {
			hist[key] = append(hist[key], ops...)
			t := s.perKey[key]
			if t == nil {
				t = &keyTally{}
				s.perKey[key] = t
			}
			for _, o := range ops {
				t.attempts++
				if o.ok {
					switch o.op {
					case OpInsert:
						t.succIns++
					case OpRemove:
						t.succRem++
					}
				}
			}
		}
	}
	for key, ops := range hist {
		// Canonical order: worker, then per-worker sequence.  The merge
		// appended workers in spawn order and Record assigned idx in
		// execution order, so the concatenation is already sorted; the
		// sort is kept as the normative definition (and guards future
		// merge-order changes).
		slices.SortFunc(ops, func(a, b keyedOp) int {
			return cmp.Or(cmp.Compare(a.worker, b.worker), cmp.Compare(a.idx, b.idx))
		})
		h := uint64(fnvOffset)
		h = fnvWord(h, key)
		for _, o := range ops {
			h = fnvWord(h, uint64(o.worker)<<32|uint64(o.idx))
			h = fnvWord(h, uint64(o.op))
		}
		s.Digest += h // commutative across keys
	}
	return s
}

// Keys returns the number of distinct keys touched.
func (s *KeyedSummary) Keys() int { return len(s.perKey) }

// NetInserts returns the total successful inserts minus successful
// removes across all keys — for a set, exactly the final size minus the
// initial size.
func (s *KeyedSummary) NetInserts() int {
	n := 0
	for _, t := range s.perKey {
		n += t.succIns - t.succRem
	}
	return n
}

// CheckSetSemantics verifies the per-key alternation invariant of a
// linearizable set: with initial presence p0(key), the net successful
// inserts over removes must land back in {0, 1} — succIns - succRem +
// p0 is the key's final presence, and presence is a bit.  It returns a
// description of the first few violating keys, or "" when every key is
// consistent.  Only meaningful for set-semantics structures (list,
// hash, skiplist); stacks and queues track their removes by *value*
// instead (ValueLedger below), since which element a pop observes is
// schedule-dependent.
func (s *KeyedSummary) CheckSetSemantics(present func(key uint64) bool) string {
	type bad struct {
		key      uint64
		p0, net  int
		attempts int
	}
	var bads []bad
	keys := make([]uint64, 0, len(s.perKey))
	for key := range s.perKey {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		t := s.perKey[key]
		p0 := 0
		if present(key) {
			p0 = 1
		}
		if pf := p0 + t.succIns - t.succRem; pf < 0 || pf > 1 {
			bads = append(bads, bad{key: key, p0: p0, net: t.succIns - t.succRem, attempts: t.attempts})
			if len(bads) >= 4 {
				break
			}
		}
	}
	if len(bads) == 0 {
		return ""
	}
	msg := fmt.Sprintf("%d key(s) violate set alternation:", len(bads))
	for _, b := range bads {
		msg += fmt.Sprintf(" key %d (p0=%d net=%+d over %d ops)", b.key, b.p0, b.net, b.attempts)
	}
	return msg
}

// Value-tracked remove histories: the LIFO/FIFO analog of the set
// ledger above.  A stack or queue does not key its removes — which
// element a pop observes depends on the schedule, so pop values can
// never join the cross-scheme digest.  What *is* schedule-independent
// is conservation: an element can only come out of the structure as
// many times as it went in.  ValueLedger counts pushes and observed pop
// values per element; a reclamation bug that frees a node twice (or
// resurrects a freed node into the structure) surfaces as some value
// popping more often than initial presence plus pushes allow.

// ValueLedger accumulates one worker's per-element push/pop counts on a
// LIFO/FIFO target.
type ValueLedger struct {
	pushes map[uint64]int
	pops   map[uint64]int
}

// NewValueLedger returns an empty per-element ledger.
func NewValueLedger() *ValueLedger {
	return &ValueLedger{pushes: make(map[uint64]int), pops: make(map[uint64]int)}
}

// Push records one element pushed with value v.
func (l *ValueLedger) Push(v uint64) { l.pushes[v]++ }

// Pop records one successful pop that observed value v.
func (l *ValueLedger) Pop(v uint64) { l.pops[v]++ }

// MergeValueLedgers folds per-worker ledgers into one machine-wide
// ledger (conservation is a global property — one worker's pop may
// observe another worker's push).
func MergeValueLedgers(ledgers []*ValueLedger) *ValueLedger {
	m := NewValueLedger()
	for _, l := range ledgers {
		if l == nil {
			continue
		}
		for v, n := range l.pushes {
			m.pushes[v] += n
		}
		for v, n := range l.pops {
			m.pops[v] += n
		}
	}
	return m
}

// CheckConservation verifies pops(v) <= initial(v) + pushes(v) for
// every observed pop value, where initial reports how many elements of
// value v the structure held before the measured window.  It returns a
// description of the first few violating values, or "" when every
// element is conserved.
func (l *ValueLedger) CheckConservation(initial func(v uint64) int) string {
	vals := make([]uint64, 0, len(l.pops))
	for v := range l.pops {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	var bads []string
	for _, v := range vals {
		if cap := initial(v) + l.pushes[v]; l.pops[v] > cap {
			bads = append(bads, fmt.Sprintf("value %d popped %d times, only %d ever present", v, l.pops[v], cap))
			if len(bads) >= 4 {
				break
			}
		}
	}
	if len(bads) == 0 {
		return ""
	}
	return fmt.Sprintf("%d value(s) violate element conservation: %s", len(bads), bads[0])
}
