package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"threadscan/internal/simt"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenWorkload drives every collect path a layout has: four churning
// workers (node 0's pair retires twice as much on a two-node machine, so
// a low StealThreshold has a backlog to steal), stack-held references
// that the next collects re-mark, a thread that exits with a non-empty
// ring, a forced Collect and a FlushAll per worker.
func goldenWorkload(s *simt.Sim, ts *ThreadScan, nodes int) {
	for w := 0; w < 4; w++ {
		th := s.Spawn("w", func(th *simt.Thread) {
			n := 240
			if nodes > 1 && w%nodes == 0 {
				n = 480
			}
			th.PushFrame(4)
			for i := 0; i < n; i++ {
				addr := allocNode(th, 15, uint64(i))
				th.SetReg(15, 0)
				if i%9 == 0 {
					th.SetSlot(i/9%4, addr) // held until overwritten
				}
				ts.Free(th, addr)
				if i%50 == 49 {
					th.Work(2_000)
				}
			}
			th.PopFrame()
			ts.FlushAll(th)
		})
		if nodes > 1 {
			th.Pin(w % nodes)
		}
	}
	s.Spawn("exiter", func(th *simt.Thread) { churn(ts, th, 40) })
	s.Spawn("forcer", func(th *simt.Thread) {
		th.Work(50_000)
		ts.Collect(th)
	})
}

type goldenCase struct {
	name  string
	nodes int
	cfg   Config
}

// goldenCases enumerates the three slot layouts: the flat machine, the
// classic pipeline on two nodes, and PerNode's overlapped and
// serialized slots on two nodes.  Each file holds one layout.
func goldenCases() map[string][]goldenCase {
	out := map[string][]goldenCase{}
	for _, k := range []int{1, 8} {
		for _, hf := range []bool{false, true} {
			for _, lk := range []LookupKind{LookupBinary, LookupHash} {
				for _, wm := range []int{0, 40} {
					out["flat"] = append(out["flat"], goldenCase{
						name:  fmt.Sprintf("k%d/helpfree=%v/%v/watermark=%d", k, hf, lk, wm),
						nodes: 1,
						cfg:   Config{BufferSize: 32, Shards: k, HelpFree: hf, Lookup: lk, CollectWatermark: wm},
					})
				}
			}
			for _, cl := range []ClaimPolicy{ClaimAffinity, ClaimRoundRobin} {
				out["classic-2node"] = append(out["classic-2node"], goldenCase{
					name:  fmt.Sprintf("k%d/helpfree=%v/claim=%v", k, hf, cl),
					nodes: 2,
					cfg:   Config{BufferSize: 32, Shards: k, HelpFree: hf, Claim: cl},
				})
			}
			for _, ser := range []bool{false, true} {
				file := "overlapped"
				if ser {
					file = "serialized"
				}
				for _, steal := range []int{0, 64} {
					out[file] = append(out[file], goldenCase{
						name:  fmt.Sprintf("k%d/helpfree=%v/steal=%d", k, hf, steal),
						nodes: 2,
						cfg: Config{BufferSize: 32, Shards: k, HelpFree: hf, PerNode: true,
							SerializeCollects: ser, StealThreshold: steal},
					})
				}
			}
		}
	}
	return out
}

func goldenLine(t *testing.T, gc goldenCase) string {
	s := numaSim(4, gc.nodes, 11)
	ts := New(s, gc.cfg)
	goldenWorkload(s, ts, gc.nodes)
	if err := s.Run(); err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: stats=%+v buffered=%d threads=[", gc.name, ts.Stats(), ts.Buffered())
	for i, th := range s.Threads() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d/%d/%d", th.ID(), th.Now(), th.Cycles(), th.HandlerCycles())
	}
	fmt.Fprintf(&b, "] heap=%+v", s.Heap().Stats())
	return b.String()
}

// TestCollectPipelinesGolden pins every collect layout's virtual
// outcome — protocol counters, each thread's clocks and the heap's
// counters — line for line against testdata/*.golden.  Run with
// -update to rewrite the files after an intended change.
func TestCollectPipelinesGolden(t *testing.T) {
	for file, cases := range goldenCases() {
		t.Run(file, func(t *testing.T) {
			var lines []string
			for _, gc := range cases {
				lines = append(lines, goldenLine(t, gc))
			}
			got := strings.Join(lines, "\n") + "\n"
			path := filepath.Join("testdata", file+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to capture)", err)
			}
			wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
			if len(wantLines) != len(lines) {
				t.Fatalf("%s has %d lines, the table has %d", path, len(wantLines), len(lines))
			}
			for i := range lines {
				if lines[i] != wantLines[i] {
					t.Errorf("line %d moved:\n got: %s\nwant: %s", i+1, lines[i], wantLines[i])
				}
			}
		})
	}
}
