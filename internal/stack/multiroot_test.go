package stack

import (
	"strings"
	"testing"

	"tsp/internal/atlas"
	"tsp/internal/hashmap"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// Tests for the multi-engine root directory: both engines served from
// one heap, and the refusal of pre-directory heaps whose root points at
// the map descriptor directly.

func TestMultiEngineRootSurvivesCrash(t *testing.T) {
	s, err := New(WithDeviceWords(1 << 18))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.List == nil {
		t.Fatal("full stack missing skip list")
	}
	th, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	for k := uint64(0); k < 50; k++ {
		if err := s.Map.Put(th, k, k+1000); err != nil {
			t.Fatalf("map put %d: %v", k, err)
		}
		if _, err := s.List.Put(k, k+2000); err != nil {
			t.Fatalf("list put %d: %v", k, err)
		}
	}
	s2, err := s.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("CrashReattach: %v", err)
	}
	if _, err := s2.Map.Verify(); err != nil {
		t.Fatalf("map verify: %v", err)
	}
	if _, err := s2.List.Verify(); err != nil {
		t.Fatalf("list verify: %v", err)
	}
	th2, _ := s2.RT.NewThread()
	for k := uint64(0); k < 50; k++ {
		if v, ok, err := s2.Map.Get(th2, k); err != nil || !ok || v != k+1000 {
			t.Fatalf("map get %d = %d,%v,%v", k, v, ok, err)
		}
		if v, ok := s2.List.Get(k); !ok || v != k+2000 {
			t.Fatalf("list get %d = %d,%v", k, v, ok)
		}
	}
	// The ordered view must come back in order.
	prev := uint64(0)
	n := 0
	s2.List.RangeBetween(0, 50, func(k, v uint64) bool {
		if n > 0 && k <= prev {
			t.Fatalf("range out of order: %d after %d", k, prev)
		}
		prev = k
		n++
		return true
	})
	if n != 50 {
		t.Fatalf("range saw %d keys, want 50", n)
	}
}

// TestLegacyMapOnlyHeapRefused builds a heap the way the stack did
// before the multi-engine root existed — the heap root pointing at the
// map descriptor directly — and asserts Reattach refuses it instead of
// opening the map descriptor as a directory.
func TestLegacyMapOnlyHeapRefused(t *testing.T) {
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 18, DisableStats: true})
	heap, err := pheap.Format(dev)
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	rt, err := atlas.New(heap, atlas.ModeTSP, atlas.Options{})
	if err != nil {
		t.Fatalf("atlas: %v", err)
	}
	m, err := hashmap.New(rt, 256, 64)
	if err != nil {
		t.Fatalf("hashmap: %v", err)
	}
	// The legacy format: root IS the map descriptor, no directory.
	heap.SetRoot(m.Ptr())
	dev.FlushAll()

	dev.Crash(nvm.CrashOptions{RescueFraction: 1})
	dev.Restart()
	_, err = Reattach(dev, WithBuckets(256, 64))
	if err == nil || !strings.Contains(err.Error(), "not a multi-engine directory") {
		t.Fatalf("Reattach legacy heap: err = %v, want the directory error", err)
	}
}
