package hashmap

import (
	"fmt"
	"testing"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/telemetry"
)

// TestInsertAppendsOneUndoRecord: an insert's node comes from
// atlas.Thread.Alloc, so of its five stores only the head store that
// publishes the node is logged; an update logs its value and check
// words. Every Put and Inc is one section (an acquire and a release
// record besides), and the counts repeat exactly, recycled nodes
// included.
func TestInsertAppendsOneUndoRecord(t *testing.T) {
	for _, mode := range []atlas.Mode{atlas.ModeTSP, atlas.ModeNonTSP} {
		t.Run(mode.String(), func(t *testing.T) {
			var tel telemetry.AtlasStats
			dev := nvm.NewDevice(nvm.Config{Words: 1 << 18})
			heap, err := pheap.Format(dev)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := atlas.New(heap, mode, atlas.Options{MaxThreads: 1, LogEntries: 64, Telemetry: &tel})
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(rt, 64, 8)
			if err != nil {
				t.Fatal(err)
			}
			th, err := rt.NewThread()
			if err != nil {
				t.Fatal(err)
			}
			undo := func(what string, op func() error) {
				t.Helper()
				before := tel.LogAppends.Load()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				got := tel.LogAppends.Load() - before - 2
				want := uint64(1)
				if what[0] == 'u' {
					want = 2
				}
				if got != want {
					t.Fatalf("%s appended %d undo records, want %d", what, got, want)
				}
			}
			// Three rounds over 40 keys: the deletes between rounds hand
			// their nodes back once the 64-entry ring has lapped them.
			var bump uint64
			for round := uint64(0); round < 3; round++ {
				if round == 1 {
					bump = heap.Bump()
				}
				for k := uint64(0); k < 40; k++ {
					if k%2 == 0 {
						undo(fmt.Sprintf("insert (put) %d", k), func() error { return m.Put(th, k, round) })
						undo(fmt.Sprintf("update (put) %d", k), func() error { return m.Put(th, k, round+1) })
					} else {
						undo(fmt.Sprintf("insert (inc) %d", k), func() error { _, err := m.Inc(th, k, 1); return err })
						undo(fmt.Sprintf("update (inc) %d", k), func() error { _, err := m.Inc(th, k, 1); return err })
					}
				}
				for k := uint64(0); k < 40; k++ {
					if _, err := m.Delete(th, k); err != nil {
						t.Fatal(err)
					}
				}
			}
			if carved := (heap.Bump() - bump) / 6; carved >= 80 {
				t.Fatalf("rounds 2 and 3 carved all %d of their nodes: none was recycled", carved)
			}
			if _, err := m.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashAtEveryStoreOfAnInsert crashes one inserting section after
// each of its stores: the node's allocation (header, bump pointer), the
// acquire record, the node's four unlogged stores, the head store's undo
// record and the head store, and the release record. The section never
// commits, so recovery must roll the head store back: the key is absent,
// the map verifies with its three old keys, and the node's block is
// either not in the heap's chain or freed by the recovery collector.
// The crash images:
//
//   - tsp, full rescue: every store before the crash survives;
//   - tsp, images: a full rescue except the node's lines, each cut at
//     one store boundary (0 = as persisted before the section);
//   - nontsp: every dirty line cut at one boundary, from none to all.
func TestCrashAtEveryStoreOfAnInsert(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   atlas.Mode
		images bool
	}{
		{"tsp_full_rescue", atlas.ModeTSP, false},
		{"tsp_images", atlas.ModeTSP, true},
		{"nontsp", atlas.ModeNonTSP, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			points, images := 0, 0
			for k := uint64(0); ; k++ {
				fired := false
				for cut := 0; cut <= 8; cut++ {
					if !tc.images && cut > 0 {
						break
					}
					fired = insertCrash(t, tc.mode, tc.images, k, cut)
					if !fired {
						break
					}
					images++
				}
				if !fired {
					break
				}
				points++
			}
			if points != 10 {
				t.Fatalf("%d crash points: an insert makes 10 stores", points)
			}
			t.Logf("%d crash points, %d images", points, images)
		})
	}
}

// insertCrash runs one crash point of TestCrashAtEveryStoreOfAnInsert:
// the insert of key 99 with a crash armed after k stores and each dirty
// line the image chooses cut at cut stores. It reports whether the crash
// fired inside the insert.
func insertCrash(t *testing.T, mode atlas.Mode, images bool, k uint64, cut int) bool {
	t.Helper()
	e := newEnv(t, mode, 1, 1) // one bucket: the chain holds every key
	e.heap.SetSyncAllocs(mode == atlas.ModeNonTSP)
	th := e.thread(t)
	for key := uint64(1); key <= 3; key++ {
		if err := e.m.Put(th, key, key*10); err != nil {
			t.Fatal(err)
		}
	}
	e.dev.FlushAll()
	node := pheap.Ptr(e.heap.Bump()) + 1 // where the insert carves its node
	lo, hi := e.dev.LineOf(node.Addr()-1), e.dev.LineOf(node.Addr()+nodeWords-1)
	crash := nvm.CrashOptions{RescueFraction: 1}
	if images {
		crash = nvm.CrashOptions{Keep: func(line uint64, stores int) int {
			if mode == atlas.ModeNonTSP || line >= lo && line <= hi {
				return min(cut, stores)
			}
			return stores
		}}
	}
	e.dev.ArmCrashAfter(k, crash)
	if err := e.m.Put(th, 99, 990); err != nil {
		t.Fatal(err)
	}
	if !e.dev.Crashed() {
		e.dev.DisarmCrash()
		return false
	}
	at := fmt.Sprintf("crash after %d stores, cut at %d", k, cut)
	m2 := e.crashRecover(t, 1, mode) // the armed crash's image is the one that counts
	if _, err := m2.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", at, err)
	}
	th2, err := m2.rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := m2.Get(th2, 99); ok {
		t.Fatalf("%s: the rolled-back insert is visible (%d)", at, v)
	}
	for key := uint64(1); key <= 3; key++ {
		if v, ok, _ := m2.Get(th2, key); !ok || v != key*10 {
			t.Fatalf("%s: Get(%d) = %d,%v, want %d", at, key, v, ok, key*10)
		}
	}
	if hdr := m2.heap.Device().Load(node.Addr() - 1); uint64(node)-1 < m2.heap.Bump() && hdr&1 != 0 {
		t.Fatalf("%s: the node's block is still allocated (header %#x)", at, hdr)
	}
	return true
}
