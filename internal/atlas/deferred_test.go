package atlas

import (
	"testing"

	"tsp/internal/pheap"
)

// countAllocated returns the number of allocated blocks on the heap.
func countAllocated(t *testing.T, h *pheap.Heap) int {
	t.Helper()
	rep, err := h.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return rep.AllocatedBlocks
}

func TestFreeDeferredOutsideOCSFreesImmediately(t *testing.T) {
	e := newEnv(t, ModeTSP, Options{})
	th := e.thread(t)
	before := countAllocated(t, e.heap)
	p := e.alloc(t, 4)
	if err := th.FreeDeferred(p); err != nil {
		t.Fatalf("FreeDeferred: %v", err)
	}
	if got := countAllocated(t, e.heap); got != before {
		t.Fatalf("allocated = %d, want %d (immediate free outside OCS)", got, before)
	}
}

func TestFreeDeferredWaitsForRingLap(t *testing.T) {
	e := newEnv(t, ModeTSP, Options{LogEntries: 32})
	th := e.thread(t)
	m := e.rt.NewMutex()
	anchor := e.alloc(t, 1)
	e.heap.SetRoot(anchor)
	victim := e.alloc(t, 4)
	before := countAllocated(t, e.heap)

	th.Lock(m)
	th.Store(anchor.Addr(), 1)
	if err := th.FreeDeferred(victim); err != nil {
		t.Fatalf("FreeDeferred: %v", err)
	}
	th.Unlock(m)

	// Immediately after commit the block must still be allocated: a
	// cascading rollback could still resurrect the unlink.
	if got := countAllocated(t, e.heap); got != before {
		t.Fatalf("allocated = %d right after commit, want %d (free must be deferred)", got, before)
	}

	// Push a full ring of records through; the deferred free must then
	// execute at an OCS boundary.
	for i := 0; i < 32; i++ {
		th.Lock(m)
		th.Store(anchor.Addr(), uint64(i))
		th.Unlock(m)
	}
	if got := countAllocated(t, e.heap); got != before-1 {
		t.Fatalf("allocated = %d after a ring lap, want %d (deferred free should have run)", got, before-1)
	}
}

func TestRolledBackDeleteDoesNotFree(t *testing.T) {
	// A crash rolls the unlinking OCS back; the block must still be
	// allocated (and reachable) in the new incarnation.
	e := newEnv(t, ModeTSP, Options{})
	th := e.thread(t)
	m := e.rt.NewMutex()
	anchor := e.alloc(t, 1)
	victim := e.alloc(t, 2)
	e.heap.Store(anchor, 0, uint64(victim)) // anchor -> victim
	e.heap.SetRoot(anchor)
	e.dev.FlushAll()

	th.Lock(m)
	th.Store(anchor.Addr(), 0) // unlink
	if err := th.FreeDeferred(victim); err != nil {
		t.Fatalf("FreeDeferred: %v", err)
	}
	// Crash mid-OCS: the unlink rolls back; the deferred free never ran.
	heap, rep := e.reopen(t, 1)
	if rep.Incomplete != 1 {
		t.Fatalf("incomplete = %d, want 1", rep.Incomplete)
	}
	if got := pheap.Ptr(heap.Load(heap.Root(), 0)); got != victim {
		t.Fatalf("anchor points to %d after rollback, want resurrected %d", got, victim)
	}
	chk, err := heap.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if chk.AllocatedBlocks < 2 {
		t.Fatalf("victim block was freed despite rollback: %s", chk)
	}
}
