package pheap

import (
	"errors"
	"testing"

	"tsp/internal/nvm"
)

// buildList allocates a singly-linked list of n nodes (payload: [next,
// value]) and returns the head. Node word 0 is the next pointer.
func buildList(t *testing.T, h *Heap, n int) Ptr {
	t.Helper()
	var head Ptr
	for i := 0; i < n; i++ {
		p, err := h.Alloc(2)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		h.Store(p, 0, uint64(head))
		h.Store(p, 1, uint64(i))
		head = p
	}
	return head
}

func TestGCKeepsReachable(t *testing.T) {
	h := newHeapT(t, 1<<14)
	head := buildList(t, h, 10)
	h.SetRoot(head)
	rep, err := h.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.BlocksFreed != 0 {
		t.Fatalf("GC freed %d reachable blocks", rep.BlocksFreed)
	}
	if rep.BlocksMarked != 10 {
		t.Fatalf("GC marked %d blocks, want 10", rep.BlocksMarked)
	}
	// The list must still be intact.
	count := 0
	for p := head; !p.IsNil(); p = Ptr(h.Load(p, 0)) {
		count++
	}
	if count != 10 {
		t.Fatalf("list has %d nodes after GC, want 10", count)
	}
}

func TestGCReclaimsUnreachable(t *testing.T) {
	h := newHeapT(t, 1<<14)
	head := buildList(t, h, 5)
	h.SetRoot(head)
	// Leak three blocks: allocated, never linked anywhere.
	for i := 0; i < 3; i++ {
		if _, err := h.Alloc(4); err != nil {
			t.Fatalf("Alloc: %v", err)
		}
	}
	rep, err := h.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.BlocksFreed != 3 {
		t.Fatalf("GC freed %d blocks, want 3", rep.BlocksFreed)
	}
}

func TestGCNilRootReclaimsEverything(t *testing.T) {
	h := newHeapT(t, 1<<14)
	buildList(t, h, 8) // head discarded, root stays nil
	rep, err := h.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.BlocksFreed != 8 {
		t.Fatalf("GC freed %d blocks, want 8", rep.BlocksFreed)
	}
	crep, err := h.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if crep.AllocatedBlocks != 0 {
		t.Fatalf("%d blocks still allocated after full sweep", crep.AllocatedBlocks)
	}
}

func TestGCFollowsAuxRoots(t *testing.T) {
	h := newHeapT(t, 1<<14)
	p, _ := h.Alloc(2)
	h.SetAux(0, p)
	rep, err := h.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.BlocksFreed != 0 {
		t.Fatal("GC collected a block anchored by an aux root")
	}
}

func TestGCRespectsPins(t *testing.T) {
	h := newHeapT(t, 1<<14)
	p, _ := h.Alloc(2)
	h.Pin(p)
	rep, _ := h.GC()
	if rep.BlocksFreed != 0 {
		t.Fatal("GC collected a pinned block")
	}
	h.Unpin(p)
	rep, _ = h.GC()
	if rep.BlocksFreed != 1 {
		t.Fatal("GC kept an unpinned, unreachable block")
	}
}

func TestGCSeesThroughMarkedPointers(t *testing.T) {
	// Non-blocking structures tag pointers with the MSB to flag logical
	// deletion; the collector must treat a tagged reference as reachable.
	h := newHeapT(t, 1<<14)
	target, _ := h.Alloc(2)
	holder, _ := h.Alloc(1)
	h.Store(holder, 0, uint64(target)|1<<63)
	h.SetRoot(holder)
	rep, err := h.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.BlocksFreed != 0 {
		t.Fatal("GC collected a block referenced via a marked pointer")
	}
}

func TestGCTransitiveChains(t *testing.T) {
	h := newHeapT(t, 1<<16)
	head := buildList(t, h, 200)
	h.SetRoot(head)
	// Leak a disconnected chain of the same length.
	buildListNoRoot(t, h, 200)
	rep, err := h.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.BlocksMarked != 200 || rep.BlocksFreed != 200 {
		t.Fatalf("marked %d freed %d, want 200/200", rep.BlocksMarked, rep.BlocksFreed)
	}
}

func buildListNoRoot(t *testing.T, h *Heap, n int) {
	t.Helper()
	var head Ptr
	for i := 0; i < n; i++ {
		p, err := h.Alloc(2)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		h.Store(p, 0, uint64(head))
		head = p
	}
}

func TestGCConservativeFalseRetentionIsSafe(t *testing.T) {
	// A payload integer that happens to equal another block's payload
	// address must retain that block (false retention, by design).
	h := newHeapT(t, 1<<14)
	victim, _ := h.Alloc(2)
	holder, _ := h.Alloc(1)
	h.Store(holder, 0, uint64(victim)) // an "integer" colliding with a pointer
	h.SetRoot(holder)
	rep, _ := h.GC()
	if rep.BlocksFreed != 0 {
		t.Fatal("conservative GC freed a possibly-referenced block")
	}
}

func TestGCAfterCrashReclaimsAllocButUnlinked(t *testing.T) {
	// The recovery scenario from the paper: a crash lands after Alloc
	// but before the new node is linked into the structure. Recovery =
	// Open + GC must reclaim it.
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 14})
	h, _ := Format(dev)
	head := buildList(t, h, 4)
	h.SetRoot(head)
	if _, err := h.Alloc(2); err != nil { // the stranded node
		t.Fatalf("Alloc: %v", err)
	}
	dev.CrashRescue()
	dev.Restart()
	h2, err := Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rep, err := h2.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.BlocksFreed != 1 {
		t.Fatalf("recovery GC freed %d blocks, want 1 (the stranded node)", rep.BlocksFreed)
	}
	if rep.BlocksMarked != 4 {
		t.Fatalf("recovery GC marked %d, want 4", rep.BlocksMarked)
	}
}

func TestGCReusesReclaimedSpace(t *testing.T) {
	h := newHeapT(t, 256) // small heap
	// Fill it with garbage, GC, and confirm we can allocate again.
	for {
		if _, err := h.Alloc(4); err != nil {
			break
		}
	}
	if _, err := h.Alloc(4); err == nil {
		t.Fatal("heap should be full")
	}
	if _, err := h.GC(); err != nil {
		t.Fatalf("GC: %v", err)
	}
	if _, err := h.Alloc(4); err != nil {
		t.Fatalf("Alloc after GC of a full garbage heap: %v", err)
	}
}

func TestGCReportWordsReclaimed(t *testing.T) {
	h := newHeapT(t, 1<<14)
	h.Alloc(7) // one garbage block, class-rounded to 8 total
	rep, _ := h.GC()
	if rep.WordsReclaimed < 8 {
		t.Fatalf("WordsReclaimed = %d, want >= 8", rep.WordsReclaimed)
	}
}

// reopened returns a heap on a restarted device holding a 6-node list
// at the root and two unlinked blocks, freshly Opened.
func reopened(t *testing.T) *Heap {
	t.Helper()
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 14})
	h, _ := Format(dev)
	h.SetRoot(buildList(t, h, 6))
	for i := 0; i < 2; i++ {
		if _, err := h.Alloc(3); err != nil {
			t.Fatalf("Alloc: %v", err)
		}
	}
	dev.CrashRescue()
	dev.Restart()
	h2, err := Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return h2
}

// A tracer's error aborts the collection before the sweep: nothing is
// freed, and the error is the collection's.
func TestGCTracerErrorFreesNothing(t *testing.T) {
	h := reopened(t)
	bad := errors.New("structure corrupt")
	h.SetTracer(func(*Marker) error { return bad })
	if _, err := h.GC(); err != bad {
		t.Fatalf("GC = %v, want the tracer's error", err)
	}
	h.SetTracer(nil)
	if rep, err := h.GC(); err != nil || rep.BlocksFreed != 2 {
		t.Fatalf("GC without the tracer = %+v, %v; want the 2 unlinked blocks freed", rep, err)
	}
}
