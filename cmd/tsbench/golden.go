package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"threadscan/internal/harness"
	"threadscan/internal/workload"
)

// goldenDir holds the golden manifest, relative to the repository root.
// The harness's bit-identity tests read grid.tsv from it too.
const goldenDir = "internal/harness/testdata/golden"

// goldenSection is one file of the manifest and the run that renders
// it.  A .tsv section holds digest rows, matched by their key columns
// when diffed; any other section is a rendered table, diffed line by
// line.
type goldenSection struct {
	file   string
	render func(w io.Writer) error
}

// goldenSections is the manifest, declared once: the full scenario
// grid (every built-in × structure × scheme at seed 1, scale 1), every
// quick Figure 3 and Figure 4 point on all three structures at the
// CLI's 50 ms default, and every ablation table at its pinned window.
func goldenSections() []goldenSection {
	secs := []goldenSection{
		{"grid.tsv", writeGridDigest},
		{"fig3.tsv", figureDigest(harness.RunFig3)},
		{"fig4.tsv", figureDigest(harness.RunFig4)},
	}
	for i := range harness.Ablations {
		a := &harness.Ablations[i]
		secs = append(secs, goldenSection{"ablation_" + a.Name + ".txt", func(w io.Writer) error {
			rows, err := a.Run(goldenAblationParams(a.Name))
			if err != nil {
				return err
			}
			return harness.WriteAblationTable(w, a, rows)
		}})
	}
	return secs
}

// goldenSweep is the CLI's figure and ablation setup (quick scale, seed
// 1, cache model on) at a window of ms virtual milliseconds.
func goldenSweep(ms int64) harness.SweepParams {
	return harness.SweepParams{Scale: harness.ScaleQuick, Duration: ms * 1_000_000, Seed: 1, CacheSim: true}
}

// goldenAblationParams is the window each ablation table is pinned at:
// 10 virtual ms, except A5 (shards) at the CLI's 50 ms default, which
// runs its subject at the built-in length, and A8 (allocpool, on
// numa-split alone) and A10 (robust) at 12 ms.
func goldenAblationParams(name string) harness.AblationParams {
	p := harness.AblationParams{SweepParams: goldenSweep(10)}
	switch name {
	case "shards":
		p.SweepParams = goldenSweep(50)
	case "allocpool":
		p.SweepParams = goldenSweep(12)
		p.Scenarios = []string{"numa-split"}
	case "robust":
		p.SweepParams = goldenSweep(12)
	}
	return p
}

// digestHeader names the digest columns: digestKeyCols key columns,
// then the run's virtual outputs.  Host-engine counters (wall time,
// dispatches) are left out: a host fast path may legitimately move
// them.
const (
	digestHeader = "scenario\tds\tscheme\tthreads\tops\telapsed_cycles\ttrace_hash\tfinal_size\t" +
		"exact_peak_retired_words\tpeak_live_words\tfinal_retired_nodes\top_p50\top_p99\top_p999\tmax_pause_cycles"
	digestKeyCols = 4
)

// writeDigest writes one digest row for r; scheme is the row's label
// (a figure series may relabel its scheme, as threadscan-tuned does).
func writeDigest(w io.Writer, scheme string, r *harness.ScenarioResult) {
	fp, lat := &r.Footprint, r.Latency
	fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%016x\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
		r.Name, r.DS, scheme, r.Threads, r.Ops, r.ElapsedCycles, r.TraceHash, r.FinalSize,
		fp.ExactPeakRetiredWords, fp.PeakLiveWords, fp.FinalRetiredNodes,
		lat.Op.P50, lat.Op.P99, lat.Op.P999, lat.MaxPauseCycles)
}

func writeGridDigest(w io.Writer) error {
	fmt.Fprintln(w, digestHeader)
	structures := []string{"list", "hash", "skiplist", "stack", "queue"}
	for _, spec := range gridCells(workload.Builtins(), structures, harness.SchemeNames(), 1, 1) {
		r, err := harness.RunScenario(spec)
		if err != nil {
			return err
		}
		writeDigest(w, r.Scheme, &r)
	}
	return nil
}

func figureDigest(run func(string, harness.SweepParams) (harness.Figure, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		fmt.Fprintln(w, digestHeader)
		for _, name := range dsNames("all") {
			fig, err := run(name, goldenSweep(50))
			if err != nil {
				return err
			}
			for _, s := range fig.Series {
				for i := range s.Results {
					writeDigest(w, s.Name, &s.Results[i])
				}
			}
		}
		return nil
	}
}

// runGolden is the `tsbench golden` subcommand: the one check that
// every virtual output still replays.  It reruns each manifest section
// and diffs it against the capture in goldenDir.  Any moved row is a
// changed virtual result, so it prints the moved rows grouped by scheme
// and structure and exits 1.  With -update it prints the same listing,
// rewrites the capture and exits 0: the listing is the review of an
// intended move.
func runGolden(args []string) {
	fs := flag.NewFlagSet("golden", flag.ExitOnError)
	update := fs.Bool("update", false, "rewrite the manifest from the current code instead of failing on a moved row")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tsbench golden [-update]   (from the repository root; manifest in %s)\n", goldenDir)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	if _, err := os.Stat(goldenDir); err != nil && !*update {
		fatal(fmt.Errorf("golden: %w (run from the repository root)", err))
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		fatal(err)
	}

	secs := goldenSections()
	moved := 0
	for _, sec := range secs {
		start := time.Now()
		var fresh bytes.Buffer
		if err := sec.render(&fresh); err != nil {
			fatal(fmt.Errorf("golden %s: %w", sec.file, err))
		}
		path := filepath.Join(goldenDir, sec.file)
		old, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
		n := reportMoves(os.Stdout, sec.file, string(old), fresh.String())
		moved += n
		status := "ok"
		if n > 0 {
			status = fmt.Sprintf("rows moved: %d", n)
			if *update {
				if err := os.WriteFile(path, fresh.Bytes(), 0o644); err != nil {
					fatal(err)
				}
				status += ", rewritten"
			}
		}
		fmt.Fprintf(os.Stderr, "· %-24s %7.2fs  %s\n", sec.file, time.Since(start).Seconds(), status)
	}

	// A file no section renders is a pin nothing checks any more.
	known := make(map[string]bool, len(secs))
	for _, sec := range secs {
		known[sec.file] = true
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		fatal(err)
	}
	for _, e := range entries {
		if known[e.Name()] {
			continue
		}
		moved++
		fmt.Printf("%s: no section renders this file\n", e.Name())
		if *update {
			if err := os.Remove(filepath.Join(goldenDir, e.Name())); err != nil {
				fatal(err)
			}
		}
	}

	switch {
	case moved == 0:
		fmt.Fprintf(os.Stderr, "golden: all %d sections replay\n", len(secs))
	case *update:
		fmt.Fprintf(os.Stderr, "golden: rows moved: %d; manifest rewritten\n", moved)
	default:
		fatal(fmt.Errorf("golden: rows moved: %d (review them, then rerun with -update if intended)", moved))
	}
}

// reportMoves prints what moved between a section's captured and fresh
// text and returns the number of moved rows.  Digest rows (.tsv) are
// matched by their key columns and grouped by scheme and structure,
// each moved row listing its changed columns; a table is compared line
// by line.
func reportMoves(w io.Writer, file, old, fresh string) int {
	if old == fresh {
		return 0
	}
	oldLines, freshLines := lines(old), lines(fresh)
	header := strings.Split(freshLines[0], "\t")
	if filepath.Ext(file) != ".tsv" || len(oldLines) == 0 || oldLines[0] != freshLines[0] ||
		!hasColumns(oldLines, len(header)) {
		return reportLineMoves(w, file, oldLines, freshLines)
	}
	keyOf := func(row string) string {
		return strings.Join(strings.SplitN(row, "\t", digestKeyCols+1)[:digestKeyCols], "\t")
	}
	oldRows := make(map[string]string, len(oldLines))
	for _, row := range oldLines[1:] {
		oldRows[keyOf(row)] = row
	}
	var groups []string // "scheme/ds", in first-moved order
	byGroup := map[string][]string{}
	note := func(row, what string) {
		f := strings.Split(row, "\t")
		g := f[2] + "/" + f[1]
		if byGroup[g] == nil {
			groups = append(groups, g)
		}
		byGroup[g] = append(byGroup[g], fmt.Sprintf("%s threads=%s: %s", f[0], f[3], what))
	}
	for _, row := range freshLines[1:] {
		k := keyOf(row)
		was, ok := oldRows[k]
		delete(oldRows, k)
		switch {
		case !ok:
			note(row, "new row")
		case was != row:
			oldF, newF := strings.Split(was, "\t"), strings.Split(row, "\t")
			var diffs []string
			for i := digestKeyCols; i < len(header); i++ {
				if oldF[i] != newF[i] {
					diffs = append(diffs, fmt.Sprintf("%s %s -> %s", header[i], oldF[i], newF[i]))
				}
			}
			note(row, strings.Join(diffs, ", "))
		}
	}
	for _, row := range oldLines[1:] {
		if _, gone := oldRows[keyOf(row)]; gone {
			note(row, "row removed")
		}
	}
	n := 0
	for _, g := range groups {
		n += len(byGroup[g])
	}
	fmt.Fprintf(w, "%s: rows moved: %d\n", file, n)
	for _, g := range groups {
		fmt.Fprintf(w, "  %s (%d)\n", g, len(byGroup[g]))
		for _, m := range byGroup[g] {
			fmt.Fprintf(w, "    %s\n", m)
		}
	}
	return n
}

// reportLineMoves compares two renderings line by line.
func reportLineMoves(w io.Writer, file string, old, fresh []string) int {
	fmt.Fprintf(w, "%s:\n", file)
	n := 0
	for i := 0; i < len(old) || i < len(fresh); i++ {
		var o, f string
		if i < len(old) {
			o = old[i]
		}
		if i < len(fresh) {
			f = fresh[i]
		}
		if o == f {
			continue
		}
		n++
		if i < len(old) {
			fmt.Fprintf(w, "  - %s\n", o)
		}
		if i < len(fresh) {
			fmt.Fprintf(w, "  + %s\n", f)
		}
	}
	return n
}

// hasColumns reports whether every line has exactly n tab-separated
// columns, as a digest row rendered by writeDigest does.
func hasColumns(ls []string, n int) bool {
	for _, l := range ls {
		if strings.Count(l, "\t") != n-1 {
			return false
		}
	}
	return true
}

// lines splits text into lines without the trailing newline's empty
// element.
func lines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(s, "\n"), "\n")
}
