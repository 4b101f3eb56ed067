// Package lint is the tslint analyzer suite: five project-specific
// static checks that turn the simulator's convention-enforced
// invariants — deterministic replay, zero-cost observability, tagged
// ring-entry hygiene, atomic-access consistency, and no
// use-after-retire — into compile-time errors.
//
// The analyzers are built on the in-repo go/analysis mirror
// (internal/lint/analysis) and configured through a Config so their
// tests can point them at self-contained testdata packages while
// cmd/tslint points them at the real module.
package lint

// Config names the packages and symbols each analyzer polices.
// Function symbols use the types.Func.FullName form: "pkgpath.Func"
// for package functions, "(*pkgpath.Type).Method" for methods.
type Config struct {
	// SimPackages are the import paths whose code runs inside the
	// simulation (or computes results from it) and therefore must be
	// deterministic: no wall clocks, no global randomness, no real
	// concurrency, no order-sensitive map iteration.
	SimPackages []string

	// SchedulerPackages may use real goroutines, coroutines (iter.Pull),
	// channels, and sync primitives: the cooperative scheduler's own
	// machinery.
	SchedulerPackages []string

	// WallclockFuncs are the sanctioned wall-time entry points; calls
	// to banned time functions are allowed only inside them.
	WallclockFuncs []string

	// TagPackages are policed by the tagptr analyzer.
	TagPackages []string
	// TagProducers create node-tagged ring entries (addr | node).
	TagProducers []string
	// TagAccessors are the only functions that may mask a tagged entry.
	TagAccessors []string
	// TagCarriers may receive tagged entries unmasked (the SPSC ring).
	TagCarriers []string
	// TagMask is the low-bit mask the accessors own; inline uses of it
	// outside producers/accessors are diagnosed.
	TagMask int64

	// RecorderTypes are the zero-cost recorder types ("pkgpath.Type").
	RecorderTypes []string
	// RecorderHotMethods are the recording methods bound by the
	// zero-alloc-when-disabled contract: each must open with a
	// nil/enabled guard and stay free of closures, fmt, and string
	// building.
	RecorderHotMethods []string
	// RecorderCallerPackages have their calls into recorder methods
	// checked for allocating argument expressions.
	RecorderCallerPackages []string

	// RetireFuncs are the names of functions/methods that consume a
	// node address or pointer (Retire/Free family); using a value after
	// passing it to one is diagnosed.
	RetireFuncs []string
	// RetireIgnoreTypes are argument types RetireFuncs do not consume
	// (e.g. the simulated-thread handle every call threads through).
	RetireIgnoreTypes []string
	// DerefFuncs are the simulated-memory accessors whose address
	// arguments count as dereferences for use-after-retire purposes.
	DerefFuncs []string
}

// DefaultConfig returns the configuration for this repository — the
// one cmd/tslint enforces in CI.
func DefaultConfig() *Config {
	return &Config{
		SimPackages: []string{
			"threadscan/internal/core",
			"threadscan/internal/reclaim",
			"threadscan/internal/simmem",
			"threadscan/internal/simt",
			"threadscan/internal/ds",
			"threadscan/internal/workload",
			// The harness is host-side but computes digests, results,
			// and JSON from simulation output, so it is held to the
			// same determinism bar; its one sanctioned wall-clock
			// entry point is WallclockFuncs below.
			"threadscan/internal/harness",
		},
		SchedulerPackages: []string{"threadscan/internal/simt"},
		WallclockFuncs:    []string{"threadscan/internal/harness.wallNow"},

		TagPackages:  []string{"threadscan/internal/core"},
		TagProducers: []string{"threadscan/internal/core.tagEntry"},
		TagAccessors: []string{
			"threadscan/internal/core.entryAddr",
			"threadscan/internal/core.entryNode",
		},
		TagCarriers: []string{"(*threadscan/internal/core.Ring).Push"},
		TagMask:     7,

		RecorderTypes: []string{
			"threadscan/internal/obs.Recorder",
			// The metrics engine and its push handles honor the same
			// zero-cost contract on their sampling/read paths; source
			// *registration* (Counter/Gauge/Rate/Quantile/Pushed) is
			// cold-path setup and deliberately not listed.
			"threadscan/internal/obs.Metrics",
			"threadscan/internal/obs.PushedSeries",
		},
		RecorderHotMethods: []string{
			"Begin", "BeginNode", "End", "Observe", "Window", "Instant",
			"Alloc", "Free", "RemoteLineFill", "SignalSent", "RemoteFlush",
			"InboxDrain", "MergeStageInto",
			// Metrics engine sampling and in-run read paths.
			"Tick", "sample", "Ticks", "Latest", "LatestDelta", "SlopeOver",
			"points",
			// PushedSeries hot surface.
			"Put", "Points",
		},
		RecorderCallerPackages: []string{
			"threadscan/internal/core",
			"threadscan/internal/reclaim",
		},

		RetireFuncs: []string{"Retire", "Free", "FreeAddr", "FreeToNode"},
		RetireIgnoreTypes: []string{
			"*threadscan/internal/simt.Thread",
		},
		DerefFuncs: []string{"Load", "Store", "Touch"},
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
