package skiplist

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

func newList(t *testing.T, words int) (*nvm.Device, *pheap.Heap, *List) {
	t.Helper()
	dev := nvm.NewDevice(nvm.Config{Words: words})
	heap, err := pheap.Format(dev)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	l, err := New(heap, 12)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	heap.SetRoot(l.Ptr())
	return dev, heap, l
}

func mustPut(t *testing.T, l *List, k, v uint64) {
	t.Helper()
	if _, err := l.Put(k, v); err != nil {
		t.Fatalf("Put(%d,%d): %v", k, v, err)
	}
}

func TestPutGetBasic(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	mustPut(t, l, 10, 100)
	mustPut(t, l, 5, 50)
	mustPut(t, l, 20, 200)
	for _, c := range []struct{ k, v uint64 }{{5, 50}, {10, 100}, {20, 200}} {
		got, ok := l.Get(c.k)
		if !ok || got != c.v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", c.k, got, ok, c.v)
		}
	}
	if _, ok := l.Get(15); ok {
		t.Fatal("Get(15) found a missing key")
	}
}

func TestPutUpdatesExisting(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	ins, err := l.Put(7, 1)
	if err != nil || !ins {
		t.Fatalf("first Put = %v,%v", ins, err)
	}
	ins, err = l.Put(7, 2)
	if err != nil || ins {
		t.Fatalf("second Put = %v,%v, want update (false)", ins, err)
	}
	if v, _ := l.Get(7); v != 2 {
		t.Fatalf("Get(7) = %d, want 2", v)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestIncInsertsAndAdds(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	if v, err := l.Inc(3, 5); err != nil || v != 5 {
		t.Fatalf("Inc on absent key = %d,%v", v, err)
	}
	if v, err := l.Inc(3, 2); err != nil || v != 7 {
		t.Fatalf("second Inc = %d,%v, want 7", v, err)
	}
}

func TestDelete(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	mustPut(t, l, 1, 10)
	mustPut(t, l, 2, 20)
	mustPut(t, l, 3, 30)
	ok, err := l.Delete(2)
	if err != nil || !ok {
		t.Fatalf("Delete(2) = %v,%v", ok, err)
	}
	if _, found := l.Get(2); found {
		t.Fatal("deleted key still found")
	}
	if ok, _ := l.Delete(2); ok {
		t.Fatal("second Delete(2) returned true")
	}
	if ok, _ := l.Delete(99); ok {
		t.Fatal("Delete of absent key returned true")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if _, err := l.Verify(); err != nil {
		t.Fatalf("Verify after delete: %v", err)
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	mustPut(t, l, 5, 1)
	if ok, _ := l.Delete(5); !ok {
		t.Fatal("Delete failed")
	}
	mustPut(t, l, 5, 2)
	if v, ok := l.Get(5); !ok || v != 2 {
		t.Fatalf("Get after reinsert = %d,%v", v, ok)
	}
}

func TestRangeSortedAscending(t *testing.T) {
	_, _, l := newList(t, 1<<18)
	keys := rand.New(rand.NewSource(1)).Perm(200)
	for _, k := range keys {
		mustPut(t, l, uint64(k), uint64(k)*2)
	}
	var got []uint64
	l.Range(func(k, v uint64) bool {
		if v != k*2 {
			t.Fatalf("Range: value for %d is %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if len(got) != 200 {
		t.Fatalf("Range visited %d keys, want 200", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("Range out of order at %d: %d <= %d", i, got[i], got[i-1])
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	for k := uint64(0); k < 10; k++ {
		mustPut(t, l, k, k)
	}
	n := 0
	l.Range(func(_, _ uint64) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
}

func TestOpenAttachesToExisting(t *testing.T) {
	_, heap, l := newList(t, 1<<16)
	mustPut(t, l, 42, 4200)
	l2, err := Open(heap, l.Ptr())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if v, ok := l2.Get(42); !ok || v != 4200 {
		t.Fatalf("reopened list Get(42) = %d,%v", v, ok)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	_, heap, _ := newList(t, 1<<16)
	if _, err := Open(heap, pheap.Nil); !errors.Is(err, ErrNotSkipList) {
		t.Fatalf("Open(Nil) = %v", err)
	}
	p, _ := heap.Alloc(descWords)
	if _, err := Open(heap, p); !errors.Is(err, ErrNotSkipList) {
		t.Fatalf("Open(non-descriptor) = %v", err)
	}
}

func TestNewRejectsBadLevels(t *testing.T) {
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 12})
	heap, _ := pheap.Format(dev)
	if _, err := New(heap, 0); err == nil {
		t.Fatal("New(0 levels) succeeded")
	}
	if _, err := New(heap, MaxLevel+1); err == nil {
		t.Fatal("New(too many levels) succeeded")
	}
}

func TestSurvivesCrashWithRescue(t *testing.T) {
	// The Section 4.1 experiment in miniature: populate, crash with a
	// TSP rescue, reopen from the root, verify integrity and contents.
	dev, heap, l := newList(t, 1<<18)
	want := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		k, v := uint64(rng.Intn(1000)), uint64(i)
		mustPut(t, l, k, v)
		want[k] = v
	}
	_ = heap
	dev.CrashRescue()
	dev.Restart()
	heap2, err := pheap.Open(dev)
	if err != nil {
		t.Fatalf("Open heap: %v", err)
	}
	l2, err := Open(heap2, heap2.Root())
	if err != nil {
		t.Fatalf("Open list: %v", err)
	}
	if _, err := l2.Verify(); err != nil {
		t.Fatalf("Verify after crash: %v", err)
	}
	for k, v := range want {
		got, ok := l2.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) after crash = %d,%v want %d", k, got, ok, v)
		}
	}
	if l2.Len() != len(want) {
		t.Fatalf("Len after crash = %d, want %d", l2.Len(), len(want))
	}
}

func TestConcurrentInsertDisjointKeys(t *testing.T) {
	_, _, l := newList(t, 1<<20)
	const threads, per = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64(g*per + i)
				if _, err := l.Put(k, k+1); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := l.Len(); got != threads*per {
		t.Fatalf("Len = %d, want %d", got, threads*per)
	}
	if _, err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for k := uint64(0); k < threads*per; k++ {
		if v, ok := l.Get(k); !ok || v != k+1 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestConcurrentIncSameKeysLosesNothing(t *testing.T) {
	_, _, l := newList(t, 1<<20)
	const threads, per, keys = 8, 500, 16
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				if _, err := l.Inc(uint64(rng.Intn(keys)), 1); err != nil {
					t.Errorf("Inc: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var total uint64
	l.Range(func(_, v uint64) bool { total += v; return true })
	if total != threads*per {
		t.Fatalf("sum of values = %d, want %d (lost increments)", total, threads*per)
	}
}

func TestConcurrentMixedWorkloadIntegrity(t *testing.T) {
	_, _, l := newList(t, 1<<20)
	const threads, per = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < per; i++ {
				k := uint64(rng.Intn(200))
				switch rng.Intn(4) {
				case 0:
					if _, err := l.Put(k, k); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 1:
					if _, err := l.Delete(k); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				case 2:
					l.Get(k)
				case 3:
					if _, err := l.Inc(k, 1); err != nil {
						t.Errorf("Inc: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if _, err := l.Verify(); err != nil {
		t.Fatalf("Verify after mixed workload: %v", err)
	}
}

func TestCompactRemovesTombstones(t *testing.T) {
	_, heap, l := newList(t, 1<<18)
	for k := uint64(0); k < 100; k++ {
		mustPut(t, l, k, k)
	}
	// Delete WITHOUT letting find() unlink (Delete does unlink via
	// find; to leave tombstones we mark manually at level 0 only for a
	// few nodes). Easier: delete normally, then check Compact is a
	// no-op-safe pass, then verify Free reuse.
	for k := uint64(0); k < 100; k += 2 {
		if ok, err := l.Delete(k); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v,%v", k, ok, err)
		}
	}
	rep, err := l.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	_ = rep // Delete may already have unlinked everything; both are fine.
	if _, err := l.Verify(); err != nil {
		t.Fatalf("Verify after Compact: %v", err)
	}
	if l.Len() != 50 {
		t.Fatalf("Len = %d, want 50", l.Len())
	}
	chk, err := heap.Check()
	if err != nil {
		t.Fatalf("heap Check: %v", err)
	}
	_ = chk
}

func TestCompactFreesMarkedButLinkedNodes(t *testing.T) {
	// Force a tombstone: mark a node manually without unlinking, as a
	// crash mid-Delete would leave it.
	dev, heap, l := newList(t, 1<<16)
	mustPut(t, l, 1, 10)
	mustPut(t, l, 2, 20)
	mustPut(t, l, 3, 30)
	// Find node 2 and mark its level-0 next pointer by hand.
	var node2 pheap.Ptr
	t0 := dev.Tally()
	tal := &t0
	for curr := ref(l.next(tal, l.head, 0)); !curr.IsNil(); curr = ref(l.next(tal, curr, 0)) {
		if l.key(tal, curr) == 2 {
			node2 = curr
			break
		}
	}
	if node2.IsNil() {
		t.Fatal("node 2 not found")
	}
	nxt := l.next(tal, node2, 0)
	if !dev.CAS(l.nextAddr(node2, 0), nxt, nxt|markBit) {
		t.Fatal("manual mark failed")
	}
	if _, ok := l.Get(2); ok {
		t.Fatal("marked node still visible")
	}
	rep, err := l.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if rep.Freed != 1 {
		t.Fatalf("Compact freed %d, want 1", rep.Freed)
	}
	if _, err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	_ = heap
}

func TestRebuildIndex(t *testing.T) {
	_, _, l := newList(t, 1<<18)
	for k := uint64(0); k < 200; k++ {
		mustPut(t, l, k, k)
	}
	// Wreck the index levels (simulating partially-linked inserts), then
	// rebuild and verify.
	for lvl := 1; lvl < l.maxLevel; lvl++ {
		l.heap.Store(l.head, nodeNext+lvl, 0)
	}
	if err := l.RebuildIndex(); err != nil {
		t.Fatalf("RebuildIndex: %v", err)
	}
	rep, err := l.Verify()
	if err != nil {
		t.Fatalf("Verify after rebuild: %v", err)
	}
	if rep.LiveNodes != 200 {
		t.Fatalf("live = %d, want 200", rep.LiveNodes)
	}
	if rep.IndexedLinks == 0 {
		t.Fatal("rebuild produced an empty index")
	}
	for k := uint64(0); k < 200; k++ {
		if v, ok := l.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) after rebuild = %d,%v", k, v, ok)
		}
	}
}

func TestVerifyDetectsOutOfOrder(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	mustPut(t, l, 1, 1)
	mustPut(t, l, 2, 2)
	// Corrupt: swap the keys of the two nodes.
	tal := l.dev.Tally()
	n1 := ref(l.next(&tal, l.head, 0))
	n2 := ref(l.next(&tal, n1, 0))
	l.heap.Store(n1, nodeKey, 9)
	l.heap.Store(n2, nodeKey, 1)
	if _, err := l.Verify(); err == nil {
		t.Fatal("Verify accepted an out-of-order list")
	}
}

func TestOperationsAfterCrashReturnErrCrashed(t *testing.T) {
	dev, _, l := newList(t, 1<<16)
	mustPut(t, l, 1, 1)
	dev.CrashRescue()
	if _, err := l.Put(2, 2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put after crash = %v, want ErrCrashed", err)
	}
	if _, err := l.Inc(1, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Inc after crash = %v, want ErrCrashed", err)
	}
	if _, err := l.Delete(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Delete after crash = %v, want ErrCrashed", err)
	}
}

func TestGetDoesNotWrite(t *testing.T) {
	dev, _, l := newList(t, 1<<16)
	mustPut(t, l, 1, 1)
	mustPut(t, l, 5, 5)
	before := dev.Stats()
	l.Get(1)
	l.Get(5)
	l.Get(9)
	delta := dev.Stats().Sub(before)
	if delta.Stores != 0 || delta.CAS != 0 {
		t.Fatalf("Get wrote to the device: %s", delta)
	}
}

func TestHeapGCKeepsListReachable(t *testing.T) {
	_, heap, l := newList(t, 1<<18)
	for k := uint64(0); k < 50; k++ {
		mustPut(t, l, k, k)
	}
	rep, err := heap.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if rep.BlocksFreed != 0 {
		t.Fatalf("GC freed %d blocks of a fully reachable list", rep.BlocksFreed)
	}
	if l.Len() != 50 {
		t.Fatal("list damaged by GC")
	}
}

func TestHeapGCReclaimsDeletedNodes(t *testing.T) {
	// After Delete + physical unlink, nodes are unreachable; the
	// conservative GC must reclaim them at recovery time... unless a
	// stale on-heap word still references them. Compact first to clear
	// tombstones deterministically.
	_, heap, l := newList(t, 1<<18)
	for k := uint64(0); k < 20; k++ {
		mustPut(t, l, k, k)
	}
	for k := uint64(0); k < 20; k += 2 {
		if ok, _ := l.Delete(k); !ok {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if _, err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := heap.GC(); err != nil {
		t.Fatalf("GC: %v", err)
	}
	if _, err := l.Verify(); err != nil {
		t.Fatalf("Verify after GC: %v", err)
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d, want 10", l.Len())
	}
}
