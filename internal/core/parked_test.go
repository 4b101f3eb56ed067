package core

import (
	"testing"

	"threadscan/internal/simt"
)

// TestParkedPeerScannedByReclaimer: a holder thread keeps node N, which
// another thread retires, only in a register (or only as an interior
// pointer, or only in a registered heap block), fills its ring, and
// parks on the registration lock while the retirer runs the collect
// whose master buffer holds N.  The reclaimer scans the parked holder
// itself instead of signaling it; N must survive, and the holder loads
// it after the collect on the checked heap.  Under HelpFree with a
// claimable sweep list waiting, the parked holder's handler has more to
// do than scan, so it is signaled instead.
func TestParkedPeerScannedByReclaimer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		helpFree bool
		hold     string // "reg", "interior" or "heapblock"
		parked   bool   // whether the reclaimer scans the holder itself
	}{
		{"reg", false, "reg", true},
		{"interior", false, "interior", true},
		{"heapblock", false, "heapblock", true},
		{"helpfree-claimable", true, "reg", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const buf = 4
			s := testSim(2, 1)
			ts := New(s, Config{BufferSize: buf, HelpFree: tc.helpFree})
			var holder *simt.Thread
			var node uint64
			var published, held, gated bool
			survived := false
			s.Spawn("retirer", func(th *simt.Thread) {
				if tc.helpFree {
					// One earlier collect defers unreferenced nodes, so
					// the gated collect starts with claimable lists.
					churn(ts, th, buf+1)
				}
				node = allocNode(th, 15, 0xfeed)
				published = true
				for !held {
					th.Pause()
				}
				th.SetReg(15, 0)
				ts.Free(th, node) // unlinked: only the holder still has it
				ts.lock.Lock(th)
				gated = true
				for ts.perThread[holder.ID()].parkedOn == nil {
					th.Pause()
				}
				ts.collectSlots(th, false) // master buffer holds N
				ts.lock.Unlock(th)
			})
			holder = s.Spawn("holder", func(th *simt.Thread) {
				churn(ts, th, buf) // fill the ring
				for !published {
					th.Pause()
				}
				th.PushFrame(1)
				switch tc.hold {
				case "reg":
					th.SetReg(5, node)
				case "interior":
					th.SetReg(5, node+8)
				case "heapblock":
					th.Alloc(5, 16)
					th.StoreImm(5, 1, node)
					th.SetSlot(0, th.Reg(5)) // the block itself stays reachable
					ts.AddHeapBlock(th, th.Reg(5), 16)
					th.SetReg(5, 0)
				}
				held = true
				for !gated {
					th.Pause()
				}
				churn(ts, th, 1) // ring full: park on the retirer's lock
				v, ok := s.Heap().TryLoad(node)
				survived = ok && v == 0xfeed
				if tc.hold == "heapblock" {
					ts.RemoveHeapBlock(th, th.Slot(0), 16)
					th.FreeAddr(th.Slot(0))
				}
				th.SetReg(5, 0)
				th.PopFrame()
				if left := ts.FlushAll(th); left != 0 {
					t.Errorf("FlushAll left %d nodes", left)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if !survived {
				t.Fatal("node held by the parked thread was freed")
			}
			st := ts.Stats()
			if tc.parked && st.ParkedScans == 0 {
				t.Errorf("ParkedScans = 0: the parked holder was signaled, not scanned by the reclaimer")
			}
			if !tc.parked && st.ParkedScans != 0 {
				t.Errorf("ParkedScans = %d: a holder with HelpFree work was scanned instead of signaled", st.ParkedScans)
			}
			if st.Frees != st.Reclaimed+st.HelpFreed+st.DoubleRetires+uint64(ts.Buffered()) {
				t.Errorf("retired %d != freed %d + pending %d", st.Frees,
					st.Reclaimed+st.HelpFreed+st.DoubleRetires, ts.Buffered())
			}
		})
	}
}
