package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"threadscan/internal/harness"
	"threadscan/internal/obs"
	"threadscan/internal/workload"
)

// rep is one RunScenarioRecorded call and what the host paid for it.
type rep struct {
	sub   int // sub-seed index
	res   harness.ScenarioResult
	rec   *obs.Recorder
	wall  time.Duration // the whole call: set-up, run and teardown
	alloc uint64        // Go heap bytes allocated during the call
}

// runRep runs spec once with rec attached, after a full GC so reps
// start from the same host heap state.
func runRep(spec workload.Scenario, sub int, rec *obs.Recorder) (rep, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := harness.RunScenarioRecorded(spec, rec)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return rep{}, err
	}
	return rep{sub: sub, res: res, rec: rec, wall: wall, alloc: after.TotalAlloc - before.TotalAlloc}, nil
}

// nsPerOp is the host cost of one simulated op: simulation wall time
// (RunScenario's WallTime, set-up excluded) over the ops it produced.
// Normalising per op keeps a virtual-throughput gain, which adds ops to
// the fixed window, from reading as a host slowdown.
func (r rep) nsPerOp() float64 {
	return float64(r.res.WallTime.Nanoseconds()) / float64(r.res.Ops)
}

// fingerprint is what every rep of one sub-seed must reproduce.
type fingerprint struct {
	Ops           uint64
	ElapsedCycles int64
	TraceHash     uint64
	FinalSize     int
}

func fingerprintOf(r harness.ScenarioResult) fingerprint {
	return fingerprint{r.Ops, r.ElapsedCycles, r.TraceHash, r.FinalSize}
}

// checkRep returns why r fails the correctness gate, or "" when it
// passes: scheme accounting is sound, no thread stayed registered, no
// garbage survived teardown, and r reproduces first — the earlier rep
// of the same sub-seed, or nil for the first.
func checkRep(r rep, first *rep) string {
	res := r.res
	switch {
	case res.AccountingError != "":
		return "accounting error: " + res.AccountingError
	case res.LeakedRegistrations != 0:
		return fmt.Sprintf("%d registrations leaked", res.LeakedRegistrations)
	case res.Footprint.FinalRetiredNodes != 0:
		return fmt.Sprintf("%d retired nodes left after teardown", res.Footprint.FinalRetiredNodes)
	}
	if first != nil {
		if got, want := fingerprintOf(res), fingerprintOf(first.res); got != want {
			return fmt.Sprintf("sub-seed %d is not deterministic: %+v, earlier rep %+v", r.sub, got, want)
		}
	}
	return ""
}

// checkTraced returns why a traced rep's virtual results differ from
// the untraced rep of the same sub-seed, or "" when they are
// bit-identical.  Recording must never charge virtual cycles.
func checkTraced(traced, plain rep) string {
	a, errA := json.Marshal(traced.res)
	b, errB := json.Marshal(plain.res)
	if errA != nil || errB != nil {
		return fmt.Sprintf("encoding results: %v %v", errA, errB)
	}
	if string(a) != string(b) {
		return fmt.Sprintf("sub-seed %d: traced run's virtual results differ from the untraced run's", traced.sub)
	}
	return ""
}

// session runs reps of one workload and keeps the gate's tally.
type session struct {
	w       workloadDef
	seed    int64
	factor  float64
	first   map[int]*rep // sub-seed -> its first passing untraced rep
	reps    []rep        // every passing untraced rep
	traced  []rep        // every passing traced rep
	setups  []float64    // seconds of each passing set-up run
	tried   int
	failed  int
	reasons []string
}

func newSession(w workloadDef, seed int64, factor float64) *session {
	return &session{w: w, seed: seed, factor: factor, first: map[int]*rep{}}
}

func (s *session) fail(format string, args ...any) {
	s.failed++
	s.reasons = append(s.reasons, fmt.Sprintf(format, args...))
}

// run executes one rep of sub-seed sub — traced when rec stores spans —
// and gates it.
func (s *session) run(sub int, rec *obs.Recorder) {
	s.tried++
	spec, err := s.w.scenario(s.seed, sub, s.factor)
	if err != nil {
		s.fail("%v", err)
		return
	}
	r, err := runRep(spec, sub, rec)
	if err != nil {
		s.fail("sub-seed %d: %v", sub, err)
		return
	}
	s.admit(r, rec.Tracing())
}

// admit gates a finished rep and files it.
func (s *session) admit(r rep, traced bool) {
	first := s.first[r.sub]
	if why := checkRep(r, first); why != "" {
		s.fail("%s", why)
		return
	}
	if traced {
		if first != nil {
			if why := checkTraced(r, *first); why != "" {
				s.fail("%s", why)
				return
			}
		}
		if len(s.traced) > 0 {
			r.rec = nil // only the first traced rep's spans are exported
		}
		s.traced = append(s.traced, r)
		return
	}
	s.reps = append(s.reps, r)
	if first == nil {
		s.first[r.sub] = &r
	}
}

// runFor calls step with each sub-seed in turn until the deadline has
// passed and every sub-seed has had at least passes calls.
func runFor(until time.Time, passes int, step func(sub int)) {
	for i := 0; i < passes*subSeeds || time.Now().Before(until); i++ {
		step(i % subSeeds)
	}
}

// firstReps returns the first passing untraced rep of each sub-seed, in
// sub-seed order: the set the virtual metrics are computed over.
func (s *session) firstReps() []rep {
	out := make([]rep, 0, len(s.first))
	for sub := 0; sub < subSeeds; sub++ {
		if r, ok := s.first[sub]; ok {
			out = append(out, *r)
		}
	}
	return out
}

// timeSetup times one run of the workload at one op per worker — the
// arena, scheme, structure, prefill, spawn and teardown, with almost
// no measured work — into s.setups.
func (s *session) timeSetup() {
	s.tried++
	spec, err := s.w.scenario(s.seed, 0, s.factor)
	if err != nil {
		s.fail("%v", err)
		return
	}
	spec.OpsPerWorker = 1
	r, err := runRep(spec, 0, obs.NewRecorder())
	if err != nil {
		s.fail("set-up run: %v", err)
		return
	}
	if why := checkRep(r, nil); why != "" {
		s.fail("set-up run: %s", why)
		return
	}
	s.setups = append(s.setups, r.wall.Seconds())
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// each maps f over reps.
func each(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}
