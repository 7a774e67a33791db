package stack

import (
	"fmt"
	"testing"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
)

// drainRec is one snapshot entry of a test drain.
type drainRec struct {
	key, val uint64
	del      bool
}

// runDrain is a served epoch drain in miniature: commit the records as
// the payload, then apply them to the map in sections of chunk records,
// the last section marking the payload applied. It stops at the first
// step after the device crashed: what follows would only be dropped.
func runDrain(t *testing.T, s *Stack, th *atlas.Thread, recs []drainRec, chunk int) {
	t.Helper()
	w, err := s.BeginDrain(len(recs))
	if s.Dev.Crashed() {
		return // the growth's allocation may read its own dropped stores
	}
	if err != nil {
		t.Fatalf("BeginDrain: %v", err)
	}
	for _, r := range recs {
		if r.del {
			w.Delete(r.key)
		} else {
			w.Set(r.key, r.val)
		}
	}
	w.Commit()
	mu := []*atlas.Mutex{s.RT.NewMutex()}
	for i := 0; i < len(recs) && !s.Dev.Crashed(); i += chunk {
		part, last := recs[i:min(i+chunk, len(recs))], i+chunk >= len(recs)
		err := th.Section(mu, func() error {
			for _, r := range part {
				if r.del {
					if _, err := s.Map.DeleteLocked(th, r.key); err != nil {
						return err
					}
				} else if err := s.Map.PutLocked(th, r.key, r.val); err != nil {
					return err
				}
			}
			if last {
				s.MarkDrainApplied(th)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("apply section: %v", err)
		}
	}
}

// mapState reads the whole map.
func mapState(s *Stack) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	s.Map.Range(func(k, v uint64) bool {
		m[k] = v
		return true
	})
	return m
}

func sameState(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestDrainCrashSweep crashes an epoch drain after every one of its
// device stores — the payload's records, its length and commit word, and
// every store of the apply's sections — and recovers through Reattach.
// At every point the map must hold all of the drain or none of it, and
// verify. Under ModeTSP the crash rescues every line (the failure TSP
// tolerates); under ModeNonTSP it rescues none, so the payload must be
// flushed before its commit word. The payload block is reused: a first
// drain runs before the swept one, so stale records lie under the new.
func TestDrainCrashSweep(t *testing.T) {
	// Keys 1..16 hold k. The swept drain overwrites 1..6, deletes 7..10,
	// leaves 11..16 and adds 17..26: sets and deletes interleaved, as a
	// snapshot's Go map order would leave them, and more records than the
	// first drain's block holds, so the sweep also crashes its growth.
	var recs []drainRec
	for k := uint64(1); k <= 26; k++ {
		switch {
		case k <= 6 || k > 16:
			recs = append(recs, drainRec{key: k, val: 1000 + k})
		case k <= 10:
			recs = append(recs, drainRec{key: k, del: true})
		}
	}
	before, after := map[uint64]uint64{}, map[uint64]uint64{}
	for k := uint64(1); k <= 16; k++ {
		before[k], after[k] = k, k
	}
	for _, r := range recs {
		if r.del {
			delete(after, r.key)
		} else {
			after[r.key] = r.val
		}
	}

	for _, tc := range []struct {
		name  string
		mode  atlas.Mode
		crash nvm.CrashOptions
	}{
		{"tsp-rescue", atlas.ModeTSP, nvm.CrashOptions{RescueFraction: 1}},
		{"nontsp-drop", atlas.ModeNonTSP, nvm.CrashOptions{RescueFraction: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithMode(tc.mode), WithDeviceWords(1 << 13), WithBuckets(16, 4),
				WithLogEntries(128), WithMaxThreads(2)}
			build := func() (*Stack, *atlas.Thread) {
				s, err := New(opts...)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				th, err := s.RT.NewThread()
				if err != nil {
					t.Fatalf("thread: %v", err)
				}
				for k := uint64(1); k <= 16; k++ {
					if err := s.Map.Put(th, k, k); err != nil {
						t.Fatalf("put: %v", err)
					}
				}
				runDrain(t, s, th, []drainRec{{key: 99, val: 99}, {key: 99, del: true}}, 8)
				if got := mapState(s); !sameState(got, before) {
					t.Fatalf("setup drain: map %v, want %v", got, before)
				}
				return s, th
			}

			s, th := build()
			base := s.Dev.Stats().Stores
			runDrain(t, s, th, recs, 8)
			n := s.Dev.Stats().Stores - base
			if n < uint64(2*len(recs)) {
				t.Fatalf("the drain made %d stores, fewer than its payload", n)
			}
			var none, all int
			for k := uint64(0); k <= n; k++ {
				s, th := build()
				s.Dev.ArmCrashAfter(k, tc.crash)
				runDrain(t, s, th, recs, 8)
				if !s.Dev.Crashed() {
					s.Dev.Crash(tc.crash)
				}
				s.Dev.Restart()
				ns, err := Reattach(s.Dev, opts...)
				if err != nil {
					t.Fatalf("crash after %d of %d stores: Reattach: %v", k, n, err)
				}
				if _, err := ns.Map.Verify(); err != nil {
					t.Fatalf("crash after %d of %d stores: Verify: %v", k, n, err)
				}
				// The commit word is the one boundary: every crash before it
				// recovers none of the drain, every crash after it all of it.
				switch got := mapState(ns); {
				case sameState(got, before) && all == 0:
					none++
				case sameState(got, after):
					all++
				default:
					t.Fatalf("crash after %d of %d stores (%d recovered none, %d all): %s",
						k, n, none, all, diff(got, before, after))
				}
			}
			// At least every crash up to and including the one that drops the
			// commit word: the records (two words a set, one a delete) and the
			// length, after the block's growth.
			want := 2
			for _, r := range recs {
				want += 2
				if r.del {
					want--
				}
			}
			if none < want || all == 0 {
				t.Fatalf("%d crash points recovered none and %d all, want at least %d none", none, all, want)
			}
			t.Logf("%d crash points: %d none, %d all", n+1, none, all)
		})
	}
}

// diff describes how got differs from the before and after states.
func diff(got, before, after map[uint64]uint64) string {
	var b, a int
	for k := uint64(0); k < 32; k++ {
		v, ok := got[k]
		if w, wok := before[k]; ok == wok && v == w {
			b++
		}
		if w, wok := after[k]; ok == wok && v == w {
			a++
		}
	}
	return fmt.Sprintf("%d of 32 keys as before, %d as after", b, a)
}
