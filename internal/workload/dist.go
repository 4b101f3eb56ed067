package workload

import (
	"fmt"
	"math/rand"

	"threadscan/internal/ds"
)

// DistKind selects a key distribution.
type DistKind uint8

const (
	// DistUniform draws keys uniformly over the range (the paper's §6
	// workload).
	DistUniform DistKind = iota
	// DistZipf draws Zipf-distributed ranks (parameter Theta) and
	// scatters them over the range, so a few keys absorb most of the
	// traffic — contended hot nodes are retired and re-inserted over
	// and over.
	DistZipf
	// DistHotspot sends HotPct percent of operations to a hot subset
	// covering HotFrac of the range, and the rest uniformly everywhere.
	DistHotspot
	// DistWindow draws uniformly from a contiguous window covering
	// WindowFrac of the range that slides Sweeps times across the key
	// space over the phase — the churning-working-set pattern: behind
	// the window, nodes die; ahead of it, fresh nodes are born.
	DistWindow
)

func (k DistKind) String() string {
	switch k {
	case DistUniform:
		return "uniform"
	case DistZipf:
		return "zipf"
	case DistHotspot:
		return "hotspot"
	case DistWindow:
		return "window"
	default:
		return fmt.Sprintf("DistKind(%d)", int(k))
	}
}

// Dist is a key distribution description.  Zero value = uniform.
type Dist struct {
	Kind DistKind

	Theta float64 // zipf skew s > 1 (default 1.2)

	HotPct  int     // hotspot: percent of ops hitting the hot set (default 90)
	HotFrac float64 // hotspot: hot-set size as a fraction of the range (default 0.1)

	WindowFrac float64 // window width as a fraction of the range (default 0.125)
	Sweeps     float64 // full sweeps across the range per phase (default 1)
}

func (d *Dist) fill() {
	if d.Theta <= 1 {
		d.Theta = 1.2
	}
	if d.HotPct <= 0 || d.HotPct > 100 {
		d.HotPct = 90
	}
	if d.HotFrac <= 0 || d.HotFrac > 1 {
		d.HotFrac = 0.1
	}
	if d.WindowFrac <= 0 || d.WindowFrac > 1 {
		d.WindowFrac = 0.125
	}
	if d.Sweeps <= 0 {
		d.Sweeps = 1
	}
}

// scramble spreads an index over [0, n) with an odd multiplier, so hot
// ranks do not cluster at the head of sorted structures.  For
// power-of-two n it is a bijection.
func scramble(idx, n uint64) uint64 {
	return (idx * 0x9E3779B97F4A7C15) % n
}

// KeyGen generates keys for one worker within one phase.  It is driven
// by the worker's deterministic RNG, so a scenario's op trace is a pure
// function of its seed.
type KeyGen struct {
	d    Dist
	n    uint64 // key range size
	rng  *rand.Rand
	zipf *rand.Zipf
	hotN uint64
	winN uint64
}

// NewKeyGen builds a generator for dist over keyRange keys.
func NewKeyGen(d Dist, keyRange uint64, rng *rand.Rand) *KeyGen {
	d.fill()
	g := &KeyGen{d: d, n: keyRange, rng: rng}
	if g.n < 1 {
		g.n = 1
	}
	switch d.Kind {
	case DistZipf:
		g.zipf = rand.NewZipf(rng, d.Theta, 1, g.n-1)
	case DistHotspot:
		g.hotN = uint64(float64(g.n) * d.HotFrac)
		if g.hotN < 1 {
			g.hotN = 1
		}
	case DistWindow:
		g.winN = uint64(float64(g.n) * d.WindowFrac)
		if g.winN < 1 {
			g.winN = 1
		}
	}
	return g
}

// Key draws the next key.  frac is the worker's position within the
// phase in [0,1), consulted only by the sliding-window distribution.
func (g *KeyGen) Key(frac float64) uint64 {
	var idx uint64
	switch g.d.Kind {
	case DistZipf:
		idx = scramble(g.zipf.Uint64(), g.n)
	case DistHotspot:
		if g.rng.Intn(100) < g.d.HotPct {
			idx = scramble(uint64(g.rng.Int63n(int64(g.hotN))), g.n)
		} else {
			idx = uint64(g.rng.Int63n(int64(g.n)))
		}
	case DistWindow:
		if frac < 0 {
			frac = 0
		}
		// The residues of % n without a divide per key: start needs
		// reducing only past the first sweep, and then start + r < 2n
		// (start < n, r < winN <= n) needs at most one subtraction.
		start := uint64(frac * g.d.Sweeps * float64(g.n))
		if start >= g.n {
			start %= g.n
		}
		idx = start + uint64(g.rng.Int63n(int64(g.winN)))
		if idx >= g.n {
			idx -= g.n
		}
	default:
		idx = uint64(g.rng.Int63n(int64(g.n)))
	}
	return ds.MinKey + idx
}
