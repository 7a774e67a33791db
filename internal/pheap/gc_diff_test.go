package pheap

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tsp/internal/nvm"
)

// gcWithMaps is the collector as it was before the bitmaps: the
// allocated blocks in a Go map keyed by payload address, the mark set in
// a second one. It is kept as the reference GC is checked against — the
// two must free exactly the same blocks and report the same numbers,
// given the same blocks to keep unscanned.
func gcWithMaps(h *Heap, noScan ...Ptr) (GCReport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()

	blocks := make(map[Ptr]int)
	bump := h.dev.Load(hdrBump)
	for addr := uint64(heapStart); addr < bump; {
		hdr := h.dev.Load(nvm.Addr(addr))
		size := hdr >> 1
		if size < minBlock || addr+size > bump {
			return GCReport{}, ErrCorrupt
		}
		if hdr&allocBit != 0 {
			blocks[Ptr(addr)+1] = int(size)
		}
		addr += size
	}
	var rep GCReport
	rep.BlocksScanned = len(blocks)

	marked := make(map[Ptr]bool, len(blocks))
	for _, p := range noScan {
		if _, ok := blocks[p]; ok {
			marked[p] = true
		}
	}
	var queue []Ptr
	push := func(p Ptr) {
		if _, ok := blocks[p]; ok && !marked[p] {
			marked[p] = true
			queue = append(queue, p)
		}
	}
	push(h.Root())
	for i := 0; i < NumAux; i++ {
		push(h.Aux(i))
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for off := 0; off < blocks[p]-1; off++ {
			push(Ptr(h.dev.Load(p.Addr()+nvm.Addr(off)) &^ markTagMask))
		}
	}
	rep.BlocksMarked = len(marked)

	for p, total := range blocks {
		if marked[p] {
			continue
		}
		h.dev.Store(p.Addr()-1, uint64(total)<<1)
		h.pushFree(p, total)
		rep.BlocksFreed++
		rep.WordsReclaimed += total
	}
	return rep, nil
}

// buildRandomHeaps builds the same seeded heap twice. The heap is made
// to look like what a conservative collector must survive: free blocks
// between live ones, leaked blocks and leaked cycles, links tagged in
// bit 63, integers that happen to equal a block address, addresses of
// block interiors, headers and freed blocks, and values far outside the
// device.
func buildRandomHeaps(t *testing.T, seed int64) [2]*Heap {
	t.Helper()
	const words = 1 << 17
	var heaps [2]*Heap
	for i := range heaps {
		heaps[i] = newHeapT(t, words)
	}
	rng := rand.New(rand.NewSource(seed))
	// The allocator is deterministic, so the same calls keep the two
	// heaps word-for-word identical.
	alloc := func(n int) Ptr {
		p, err := heaps[0].Alloc(n)
		q, err2 := heaps[1].Alloc(n)
		if err != nil || err2 != nil || p != q {
			t.Fatalf("Alloc(%d) = %d,%v and %d,%v", n, p, err, q, err2)
		}
		return p
	}
	var live, freed []Ptr
	sizes := map[Ptr]int{}
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(12)
		switch rng.Intn(60) {
		case 0, 1, 2:
			n = 100 + rng.Intn(400)
		case 3:
			n = 4096 + rng.Intn(64) // above the last size class
		}
		p := alloc(n)
		live = append(live, p)
		sizes[p], _ = heaps[0].SizeOf(p)
	}
	holder := alloc(4) // an aux root's block, for the candidates below
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, p := range live[:60] {
		for _, h := range heaps {
			if err := h.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	freed, live = live[:60], live[60:]
	pick := func(ps []Ptr) Ptr { return ps[rng.Intn(len(ps))] }
	word := func() uint64 {
		p := pick(live)
		switch rng.Intn(12) {
		case 0, 1, 2:
			return uint64(p) // a link, or an integer that collides with one
		case 3:
			return uint64(p) | markTagMask
		case 4:
			return uint64(p) + 1 + uint64(rng.Intn(sizes[p])) // interior, or the next header
		case 5:
			return uint64(p) - 1 // its header
		case 6:
			return uint64(pick(freed))
		case 7:
			return uint64(pick(freed)) | markTagMask
		case 8:
			return []uint64{words, words + 7, 1 << 40, 1<<40 | markTagMask, 1<<63 - 1, ^uint64(0)}[rng.Intn(6)]
		case 9:
			return uint64(rng.Intn(heapStart + 2)) // nil and the heap header
		default:
			return rng.Uint64()
		}
	}
	for _, p := range live {
		if rng.Intn(4) == 0 {
			continue // leave some blocks all zero
		}
		for off := 0; off < sizes[p] && off < 24; off++ {
			v := word()
			for _, h := range heaps {
				h.Store(p, off, v)
			}
		}
	}
	for _, h := range heaps {
		h.SetRoot(live[0])
		h.SetAux(0, live[1])
		h.SetAux(3, freed[0])       // an anchor whose block is gone
		h.SetAux(NumAux-1, 1<<40+3) // and one that was never a block
		h.SetAux(1, holder)
		for off, v := range []Ptr{freed[1], live[3] + 1, 1 << 40, Ptr(^uint64(0))} {
			h.Store(holder, off, uint64(v)) // freed, interior, out of range
		}
	}
	return heaps
}

// allocatedSet lists the heap's allocated payload pointers in chain order.
func allocatedSet(t *testing.T, h *Heap) []Ptr {
	t.Helper()
	var ps []Ptr
	if err := h.Blocks(func(p Ptr, _ int, allocated bool) bool {
		if allocated {
			ps = append(ps, p)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ps
}

// freeLists returns the volatile free lists with each list sorted: the
// map-based sweep freed in map order, the bitmap sweep in chain order.
func freeLists(h *Heap) [][]Ptr {
	lists := append([][]Ptr{append([]Ptr(nil), h.large...)}, h.free...)
	for i, l := range lists {
		l = append([]Ptr(nil), l...)
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		lists[i] = l
	}
	return lists
}

// TestGCMatchesMapReference collects each seed's heap six times, from
// the same start: once scanning every block, once keeping a few
// unscanned, once with a tracer walking what the root reaches, and three
// times reopened: straight after Open (the collection takes Open's
// walk), and after an Alloc or a Free since (it must walk again).
func TestGCMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Run("scan=all", func(t *testing.T) { checkGCAgainstReference(t, seed, false, false, "") })
			t.Run("scan=some", func(t *testing.T) { checkGCAgainstReference(t, seed, true, false, "") })
			t.Run("traced", func(t *testing.T) { checkGCAgainstReference(t, seed, false, true, "") })
			for _, churn := range []string{"none", "alloc", "free"} {
				t.Run("reopened+"+churn, func(t *testing.T) { checkGCAgainstReference(t, seed, false, false, churn) })
			}
		})
	}
}

// traceFrom is a tracer (SetTracer) that walks everything reachable
// from root the way a structure's own tracer walks it: a word naming an
// allocated block (sizes holds each one's payload words) is followed and
// that block reached, and every other word offered. It knows which words
// are links from the test's knowledge of the heap, not from a layout, so
// it must mark exactly what the conservative scan marks.
func traceFrom(root Ptr, sizes map[Ptr]int) func(*Marker) error {
	return func(mk *Marker) error {
		seen := map[Ptr]bool{}
		var walk func(p Ptr)
		walk = func(p Ptr) {
			if sizes[p] == 0 || seen[p] {
				return
			}
			seen[p] = true
			mk.Reach(p)
			words := make([]uint64, sizes[p])
			mk.Tally.LoadBlock(p.Addr(), words)
			for _, v := range words {
				if q := Ptr(v &^ markTagMask); sizes[q] > 0 {
					walk(q)
				} else {
					mk.Offer(v)
				}
			}
		}
		walk(root)
		return nil
	}
}

// reopenHeap crashes h's device with a full rescue and opens the heap
// again, so the next collection may take Open's chain walk; then it
// makes the Alloc (churn "alloc") or the Free (churn "free") that must
// stop it from doing so, or neither (churn "none").
func reopenHeap(t *testing.T, h *Heap, churn string) *Heap {
	t.Helper()
	h.dev.CrashRescue()
	h.dev.Restart()
	h, err := Open(h.dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	switch churn {
	case "alloc":
		_, err = h.Alloc(3)
	case "free":
		live := allocatedSet(t, h)
		err = h.Free(live[len(live)/3])
	}
	if err != nil {
		t.Fatalf("%s after Open: %v", churn, err)
	}
	return h
}

// checkGCAgainstReference runs GC and gcWithMaps on two copies of one
// random heap and requires the same report, the same survivors and the
// same free lists. The reference never traces. Unless churn is "",
// both copies are reopened first (see reopenHeap).
func checkGCAgainstReference(t *testing.T, seed int64, keepSome, traced bool, churn string) {
	heaps := buildRandomHeaps(t, seed)
	if churn != "" {
		for i := range heaps {
			heaps[i] = reopenHeap(t, heaps[i], churn)
		}
	}
	before := allocatedSet(t, heaps[0])
	if traced {
		sizes := map[Ptr]int{}
		for _, p := range before {
			sizes[p], _ = heaps[0].SizeOf(p)
		}
		heaps[0].SetTracer(traceFrom(heaps[0].Root(), sizes))
	}
	var noScan []Ptr
	if keepSome {
		// Keep a few blocks unscanned, a freed-looking and an
		// out-of-range pointer among them.
		noScan = append([]Ptr{Ptr(1 << 40), before[0] + 1}, before[len(before)/2:len(before)/2+3]...)
	}
	got, err := heaps[0].GC(noScan...)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	want, err := gcWithMaps(heaps[1], noScan...)
	if err != nil {
		t.Fatalf("reference GC: %v", err)
	}
	if got != want {
		t.Fatalf("GC reports %+v, the map-based reference %+v", got, want)
	}
	if got.BlocksFreed == 0 || got.BlocksMarked < 3 {
		t.Fatalf("degenerate heap: %+v", got)
	}
	after, refAfter := allocatedSet(t, heaps[0]), allocatedSet(t, heaps[1])
	if !reflect.DeepEqual(after, refAfter) {
		t.Fatalf("GC kept %d blocks, the reference %d: the freed sets differ", len(after), len(refAfter))
	}
	if len(before)-len(after) != got.BlocksFreed {
		t.Fatalf("report says %d freed, the chain lost %d", got.BlocksFreed, len(before)-len(after))
	}
	if !reflect.DeepEqual(freeLists(heaps[0]), freeLists(heaps[1])) {
		t.Fatal("free lists differ from the reference's")
	}
	for i, h := range heaps {
		if _, err := h.Check(); err != nil {
			t.Fatalf("heap %d Check after GC: %v", i, err)
		}
	}
	// A second collection finds nothing more to free.
	again, err := heaps[0].GC(noScan...)
	if err != nil || again.BlocksFreed != 0 || again.BlocksMarked != got.BlocksMarked {
		t.Fatalf("second GC = %+v, %v; want %d marked, none freed", again, err, got.BlocksMarked)
	}
}

// A conservative candidate is any 64-bit word. Values far past the
// bitmaps' end — plain, tagged, in a payload or in a root — are
// not pointers and must be ignored, not indexed.
func TestGCIgnoresOutOfRangeCandidates(t *testing.T) {
	h := newHeapT(t, 1<<12)
	holder, _ := h.Alloc(7)
	kept, _ := h.Alloc(1)
	leaked, _ := h.Alloc(1)
	for off, v := range []uint64{1 << 40, 1<<40 | markTagMask, ^uint64(0), 1 << 50, 1 << 12, h.Bump() + 1, uint64(kept)} {
		h.Store(holder, off, v)
	}
	h.SetRoot(holder)
	h.SetAux(2, Ptr(1<<40))
	rep, err := h.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if want := (GCReport{BlocksScanned: 3, BlocksMarked: 2, BlocksFreed: 1, WordsReclaimed: 2}); rep != want {
		t.Fatalf("GC = %+v, want %+v", rep, want)
	}
	if allocated := allocatedSet(t, h); len(allocated) != 2 || allocated[0] != holder || allocated[1] != kept {
		t.Fatalf("allocated after GC = %v, want [%d %d] (%d leaked)", allocated, holder, kept, leaked)
	}
}

// A block kept unscanned survives, and what only it points at does not.
func TestGCNoScanKeepsWithoutScanning(t *testing.T) {
	h := newHeapT(t, 1<<12)
	ring, _ := h.Alloc(4)
	target, _ := h.Alloc(2)
	h.Store(ring, 1, uint64(target))
	h.SetRoot(ring)
	rep, err := h.GC(ring)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if want := (GCReport{BlocksScanned: 2, BlocksMarked: 1, BlocksFreed: 1, WordsReclaimed: 3}); rep != want {
		t.Fatalf("GC = %+v, want %+v", rep, want)
	}
	if allocated := allocatedSet(t, h); len(allocated) != 1 || allocated[0] != ring {
		t.Fatalf("allocated after GC = %v, want [%d] (%d only referenced from the unscanned block)", allocated, ring, target)
	}
}

func TestGCRejectsBumpPastDevice(t *testing.T) {
	h := newHeapT(t, 1<<12)
	h.dev.Store(hdrBump, 1<<40)
	if _, err := h.GC(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GC with a bump pointer past the device = %v, want ErrCorrupt", err)
	}
}
