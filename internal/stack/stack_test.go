package stack

import (
	"errors"
	"strings"
	"testing"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

func TestNewBuildsWorkingStack(t *testing.T) {
	s, err := New(WithDeviceWords(1 << 18))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.RT == nil || s.Map == nil {
		t.Fatal("full stack missing runtime or map")
	}
	if s.Mode() != atlas.ModeTSP {
		t.Fatalf("default mode = %v, want ModeTSP", s.Mode())
	}
	th, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	if err := s.Map.Put(th, 1, 100); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, ok, err := s.Map.Get(th, 1)
	if err != nil || !ok || v != 100 {
		t.Fatalf("get = %d,%v,%v, want 100,true,nil", v, ok, err)
	}
	// The root must already be published and the setup durable: a crash
	// right now with no rescue still finds the (empty-but-formatted)
	// setup state.
	if s.Heap.Root().IsNil() {
		t.Fatal("root not published by New")
	}
}

func TestModeOffIsRespected(t *testing.T) {
	// Regression for the zero-value Config bug: atlas.ModeOff == 0 used
	// to be indistinguishable from "unset" and was rewritten to ModeTSP.
	s, err := New(WithMode(atlas.ModeOff), WithDeviceWords(1<<16))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := s.RT.Mode(); got != atlas.ModeOff {
		t.Fatalf("runtime mode = %v, want ModeOff", got)
	}
}

func TestCrashReattachPreservesCommittedState(t *testing.T) {
	s, err := New(WithDeviceWords(1 << 18))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	th, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	for k := uint64(0); k < 100; k++ {
		if err := s.Map.Put(th, k, k*7); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	s2, err := s.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("CrashReattach: %v", err)
	}
	if _, err := s2.Map.Verify(); err != nil {
		t.Fatalf("verify after crash: %v", err)
	}
	th2, err := s2.RT.NewThread()
	if err != nil {
		t.Fatalf("thread after crash: %v", err)
	}
	for k := uint64(0); k < 100; k++ {
		v, ok, err := s2.Map.Get(th2, k)
		if err != nil || !ok || v != k*7 {
			t.Fatalf("get %d after crash = %d,%v,%v, want %d,true,nil", k, v, ok, err, k*7)
		}
	}
	// The rebuilt stack crashes and reattaches again: the retained
	// config makes repeated cycles identical.
	s3, err := s2.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("second CrashReattach: %v", err)
	}
	th3, _ := s3.RT.NewThread()
	if v, ok, _ := s3.Map.Get(th3, 99); !ok || v != 99*7 {
		t.Fatalf("get after second crash = %d,%v", v, ok)
	}
}

// TestRecoveryCollectsDeferredFrees: a delete inside an OCS unlinks its
// node but defers the free until the log ring has lapped the section, so
// a crash soon after leaves every deleted node allocated and
// unreachable — the leak recovery's collector exists for. The dead undo
// records in the rings still hold those nodes' addresses; the collector
// must not read them as pointers.
func TestRecoveryCollectsDeferredFrees(t *testing.T) {
	s, err := New(WithDeviceWords(1 << 18))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	th, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	const n = 10
	for k := uint64(1); k <= n; k++ {
		if err := s.Map.Put(th, k, k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if ok, err := s.Map.Delete(th, k); err != nil || !ok {
			t.Fatalf("delete %d = %v, %v", k, ok, err)
		}
	}
	s2, err := s.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("CrashReattach: %v", err)
	}
	if got := s2.Recovery.GC.BlocksFreed; got != n {
		t.Fatalf("recovery GC freed %d blocks, want the %d deleted nodes (%v)", got, n, s2.Recovery)
	}
	if _, err := s2.Map.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, err := s2.Heap.Check(); err != nil {
		t.Fatalf("heap check: %v", err)
	}
}

func TestHeapOnlyStack(t *testing.T) {
	s, err := New(HeapOnly(), WithDeviceWords(1<<16))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.RT != nil || s.Map != nil {
		t.Fatal("heap-only stack grew a runtime or map")
	}
	p, err := s.Heap.Alloc(2)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	s.Heap.Store(p, 0, 42)
	s.Heap.SetRoot(p)
	s.Dev.CrashRescue()
	s.Dev.Restart()
	s2, err := Reattach(s.Dev, HeapOnly())
	if err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	root := s2.Heap.Root()
	if root != p {
		t.Fatalf("root = %d, want %d", root, p)
	}
	if got := s2.Heap.Load(root, 0); got != 42 {
		t.Fatalf("load = %d, want 42", got)
	}
	var _ pheap.Ptr = root
}

func TestReattachRollsBackTornUpdate(t *testing.T) {
	// The full Section-4.2 shape through the stack API: a torn update
	// inside an OCS, a crash with TSP rescue, and Reattach's recovery
	// rolling it back to a verifiable state.
	s, err := New(WithDeviceWords(1 << 18))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	th, _ := s.RT.NewThread()
	if err := s.Map.Put(th, 3, 1000); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := s.Map.TornUpdate(th, 3, 250); err != nil {
		t.Fatalf("torn update: %v", err)
	}
	s2, err := s.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("CrashReattach: %v", err)
	}
	if _, err := s2.Map.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if s2.Recovery.UndoApplied == 0 {
		t.Fatalf("recovery report shows no rollback: %+v", s2.Recovery)
	}
	th2, _ := s2.RT.NewThread()
	if v, ok, _ := s2.Map.Get(th2, 3); !ok || v != 1000 {
		t.Fatalf("key 3 after rollback = %d,%v, want 1000,true", v, ok)
	}
}

func TestReattachWithoutRecoverFailsInsideAtlas(t *testing.T) {
	// Sanity: the stack API owns the recovery ordering. Reattaching the
	// raw pieces by hand without Recover is exactly the bug class the
	// package exists to prevent; atlas.New refuses residual logs.
	s, err := New(WithDeviceWords(1 << 18))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	th, _ := s.RT.NewThread()
	_ = s.Map.TornUpdate(th, 1, 2)
	s.Dev.CrashRescue()
	s.Dev.Restart()
	heap, err := pheap.Open(s.Dev)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := atlas.New(heap, atlas.ModeTSP, atlas.Options{MaxThreads: 16}); err == nil {
		t.Fatal("atlas.New accepted a heap with residual logs; expected refusal")
	} else if errors.Is(err, nil) {
		t.Fatal("unreachable")
	}
}

// TestDurableEpochSurvivesCrash pins the epoch-frontier contract: the
// frontier is durable the moment SetDurableEpoch returns, with no
// rescue required (RescueFraction 0), because the store is flushed
// eagerly. It must also survive repeated crash cycles and never move
// backwards.
func TestDurableEpochSurvivesCrash(t *testing.T) {
	s, err := New(WithDeviceWords(1 << 18))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := s.DurableEpoch(); got != 0 {
		t.Fatalf("fresh DurableEpoch = %d, want 0", got)
	}
	s.SetDurableEpoch(7)
	if got := s.DurableEpoch(); got != 7 {
		t.Fatalf("DurableEpoch = %d, want 7", got)
	}
	s2, err := s.CrashReattach(nvm.CrashOptions{RescueFraction: 0})
	if err != nil {
		t.Fatalf("CrashReattach: %v", err)
	}
	if got := s2.DurableEpoch(); got != 7 {
		t.Fatalf("DurableEpoch after crash = %d, want 7", got)
	}
	s2.SetDurableEpoch(19)
	s3, err := s2.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("second CrashReattach: %v", err)
	}
	if got := s3.DurableEpoch(); got != 19 {
		t.Fatalf("DurableEpoch after second crash = %d, want 19", got)
	}
}

// TestDurableEpochHeapOnlyNoop pins the heap-only degradation: no
// anchor, reads return 0, writes are dropped rather than panicking.
func TestDurableEpochHeapOnlyNoop(t *testing.T) {
	s, err := New(HeapOnly(), WithDeviceWords(1<<16))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SetDurableEpoch(5) // must not panic
	if got := s.DurableEpoch(); got != 0 {
		t.Fatalf("heap-only DurableEpoch = %d, want 0", got)
	}
}

// TestReattachRequiresAnchors: New anchors the epoch frontier and the
// session table before any crash can be armed, so a heap missing either
// is not one New made: Reattach refuses it, naming the missing anchor.
func TestReattachRequiresAnchors(t *testing.T) {
	for _, c := range []struct {
		slot int
		want string
	}{{auxEpochSlot, "epoch anchor"}, {auxSessSlot, "session table"}} {
		s, err := New(WithDeviceWords(1 << 16))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.Heap.SetAux(c.slot, pheap.Nil)
		s.Dev.FlushAll()
		s.Dev.Restart()
		if _, err := Reattach(s.Dev); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Reattach without aux slot %d: %v, want an error naming the %s", c.slot, err, c.want)
		}
	}
}
