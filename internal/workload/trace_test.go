package workload

import (
	"math"
	"math/rand"
	"testing"
)

// fnvWordBytes is the plain FNV-1a byte loop over a word, low byte
// first: the reference fnvWord must match bit for bit.
func fnvWordBytes(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xFF
		h *= fnvPrime
		w >>= 8
	}
	return h
}

func fnvTestWords() []uint64 {
	words := []uint64{0, 1, 0xFF, 0x100, 1 << 56, math.MaxUint64}
	for b := 0; b < 64; b++ {
		words = append(words, 1<<b, (1<<b)-1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		words = append(words, rng.Uint64()>>(rng.Intn(64)))
	}
	return words
}

// TestFnvWordMatchesByteLoop pins the zero-byte-skipping fnvWord, and
// the three digests built on it, to the byte-loop definition.
func TestFnvWordMatchesByteLoop(t *testing.T) {
	words := fnvTestWords()
	for _, h := range []uint64{fnvOffset, 0, math.MaxUint64, 0x0123456789abcdef} {
		for _, w := range words {
			if got, want := fnvWord(h, w), fnvWordBytes(h, w); got != want {
				t.Fatalf("fnvWord(%#x, %#x) = %#x, want %#x", h, w, got, want)
			}
		}
	}

	tr := NewTrace()
	want := uint64(fnvOffset)
	for i, w := range words {
		op, ok := Op(i%3), i%2 == 0
		tr.Record(op, w, ok)
		want = fnvWordBytes(fnvWordBytes(want, uint64(op)), w)
		if ok {
			want = fnvWordBytes(want, 1)
		} else {
			want = fnvWordBytes(want, 2)
		}
	}
	if tr.Sum() != want {
		t.Fatalf("Trace.Record digest %#x, want %#x", tr.Sum(), want)
	}

	want = fnvOffset
	for _, w := range words {
		want = fnvWordBytes(want, w)
	}
	if got := CombineTraces(words); got != want {
		t.Fatalf("CombineTraces = %#x, want %#x", got, want)
	}

	// Keyed digest: one op per key per worker, so each key's canonical
	// history is (worker 0, idx 0), (worker 1, idx 0).
	traces := []*KeyedTrace{NewKeyedTrace(0), NewKeyedTrace(1)}
	var keyed uint64
	seen := map[uint64]bool{}
	for i, w := range words {
		if seen[w] {
			continue
		}
		seen[w] = true
		op := Op(i % 3)
		h := fnvWordBytes(fnvOffset, w)
		for worker, tr := range traces {
			tr.Record(op, w, true)
			h = fnvWordBytes(h, uint64(worker)<<32)
			h = fnvWordBytes(h, uint64(op))
		}
		keyed += h
	}
	if got := MergeKeyed(traces).Digest; got != keyed {
		t.Fatalf("keyed digest %#x, want %#x", got, keyed)
	}
}
