package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestReportMovesGroupsDigestRows: a moved digest row is matched by its
// key columns, whatever its position, and listed under its scheme and
// structure with only the columns that changed.
func TestReportMovesGroupsDigestRows(t *testing.T) {
	row := func(scenario, ds, scheme, ops, trace string) string {
		return strings.Join([]string{scenario, ds, scheme, "4", ops, "100", trace, "7",
			"0", "0", "0", "1", "2", "3", "4"}, "\t")
	}
	old := strings.Join([]string{digestHeader,
		row("a", "list", "epoch", "10", "00aa"),
		row("a", "hash", "threadscan", "20", "00bb"),
		row("b", "hash", "threadscan", "30", "00cc"),
		row("c", "stack", "leaky", "40", "00dd"),
	}, "\n") + "\n"
	fresh := strings.Join([]string{digestHeader,
		row("b", "hash", "threadscan", "31", "00cc"),
		row("a", "list", "epoch", "10", "00aa"),
		row("a", "hash", "threadscan", "20", "00ee"),
		row("d", "queue", "hyaline", "50", "00ff"),
	}, "\n") + "\n"

	if n := reportMoves(new(bytes.Buffer), "grid.tsv", old, old); n != 0 {
		t.Fatalf("identical sections reported %d moves", n)
	}
	var out bytes.Buffer
	if n := reportMoves(&out, "grid.tsv", old, fresh); n != 4 {
		t.Fatalf("moved rows: %d, want 4\n%s", n, out.String())
	}
	want := "grid.tsv: rows moved: 4\n" +
		"  threadscan/hash (2)\n" +
		"    b threads=4: ops 30 -> 31\n" +
		"    a threads=4: trace_hash 00bb -> 00ee\n" +
		"  hyaline/queue (1)\n" +
		"    d threads=4: new row\n" +
		"  leaky/stack (1)\n" +
		"    c threads=4: row removed\n"
	if out.String() != want {
		t.Errorf("report:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestReportMovesTableLines: a rendered table is compared line by line,
// and a missing capture counts every fresh line as moved.
func TestReportMovesTableLines(t *testing.T) {
	var out bytes.Buffer
	if n := reportMoves(&out, "ablation_x.txt", "# t\na 1\nb 2\n", "# t\na 1\nb 3\nc 4\n"); n != 2 {
		t.Fatalf("moved lines: %d, want 2\n%s", n, out.String())
	}
	if want := "ablation_x.txt:\n  - b 2\n  + b 3\n  + c 4\n"; out.String() != want {
		t.Errorf("report:\n%s\nwant:\n%s", out.String(), want)
	}
	if n := reportMoves(new(bytes.Buffer), "grid.tsv", "", digestHeader+"\nrow\n"); n != 2 {
		t.Errorf("missing capture: %d moved, want 2", n)
	}
	// A capture row with the wrong column count cannot be keyed, so
	// the digest falls back to the line comparison.
	if n := reportMoves(new(bytes.Buffer), "grid.tsv", digestHeader+"\na\tb\n", digestHeader+"\nrow\n"); n != 1 {
		t.Errorf("malformed capture: %d moved, want 1", n)
	}
}
