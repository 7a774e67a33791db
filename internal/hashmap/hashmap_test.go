package hashmap

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

type env struct {
	dev  *nvm.Device
	heap *pheap.Heap
	rt   *atlas.Runtime
	m    *Map
}

func newEnv(t *testing.T, mode atlas.Mode, buckets, stride int) *env {
	t.Helper()
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 21})
	heap, err := pheap.Format(dev)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	rt, err := atlas.New(heap, mode, atlas.Options{MaxThreads: 16})
	if err != nil {
		t.Fatalf("atlas.New: %v", err)
	}
	m, err := New(rt, buckets, stride)
	if err != nil {
		t.Fatalf("hashmap.New: %v", err)
	}
	heap.SetRoot(m.Ptr())
	// Make initialization durable before the workload starts, as any
	// real deployment would (setup is not in the crash window).
	dev.FlushAll()
	return &env{dev: dev, heap: heap, rt: rt, m: m}
}

func (e *env) thread(t *testing.T) *atlas.Thread {
	t.Helper()
	th, err := e.rt.NewThread()
	if err != nil {
		t.Fatalf("NewThread: %v", err)
	}
	return th
}

func TestPutGetBasic(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 64, 8)
	th := e.thread(t)
	for k := uint64(0); k < 100; k++ {
		if err := e.m.Put(th, k, k*3); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		v, ok, err := e.m.Get(th, k)
		if err != nil || !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v,%v", k, v, ok, err)
		}
	}
	if _, ok, _ := e.m.Get(th, 1000); ok {
		t.Fatal("Get found a missing key")
	}
	if e.m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", e.m.Len())
	}
}

func TestPutOverwrites(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 16, 4)
	th := e.thread(t)
	e.m.Put(th, 5, 1)
	e.m.Put(th, 5, 2)
	v, ok, _ := e.m.Get(th, 5)
	if !ok || v != 2 {
		t.Fatalf("Get = %d,%v, want 2", v, ok)
	}
	if e.m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", e.m.Len())
	}
}

func TestIncInsertsAndAdds(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 16, 4)
	th := e.thread(t)
	if v, err := e.m.Inc(th, 9, 4); err != nil || v != 4 {
		t.Fatalf("Inc absent = %d,%v", v, err)
	}
	if v, err := e.m.Inc(th, 9, 6); err != nil || v != 10 {
		t.Fatalf("Inc present = %d,%v", v, err)
	}
}

func TestDelete(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 16, 4)
	th := e.thread(t)
	e.m.Put(th, 1, 10)
	e.m.Put(th, 2, 20)
	ok, err := e.m.Delete(th, 1)
	if err != nil || !ok {
		t.Fatalf("Delete = %v,%v", ok, err)
	}
	if _, found, _ := e.m.Get(th, 1); found {
		t.Fatal("deleted key still present")
	}
	if ok, _ := e.m.Delete(th, 1); ok {
		t.Fatal("double delete returned true")
	}
	if _, err := e.m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestDeleteMiddleOfChain(t *testing.T) {
	// One bucket forces chaining; delete the middle element.
	e := newEnv(t, atlas.ModeTSP, 1, 1)
	th := e.thread(t)
	for k := uint64(1); k <= 3; k++ {
		e.m.Put(th, k, k)
	}
	if ok, _ := e.m.Delete(th, 2); !ok {
		t.Fatal("Delete(2) failed")
	}
	if e.m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.m.Len())
	}
	for _, k := range []uint64{1, 3} {
		if _, ok, _ := e.m.Get(th, k); !ok {
			t.Fatalf("key %d lost by middle delete", k)
		}
	}
	if _, err := e.m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestStripingGrain(t *testing.T) {
	e := newEnv(t, atlas.ModeOff, 5000, 1000)
	if got := e.m.Mutexes(); got != 5 {
		t.Fatalf("Mutexes = %d, want 5 (one per 1000 buckets)", got)
	}
	e2 := newEnv(t, atlas.ModeOff, 100, 0) // default stride
	if got := e2.m.Mutexes(); got != 1 {
		t.Fatalf("Mutexes = %d, want 1", got)
	}
}

func TestOpenAttaches(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 32, 8)
	th := e.thread(t)
	e.m.Put(th, 77, 770)
	m2, err := Open(e.rt, e.m.Ptr())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if v, ok, _ := m2.Get(th, 77); !ok || v != 770 {
		t.Fatalf("reattached Get = %d,%v", v, ok)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 16, 4)
	if _, err := Open(e.rt, pheap.Nil); !errors.Is(err, ErrNotMap) {
		t.Fatalf("Open(Nil) = %v", err)
	}
	p, _ := e.heap.Alloc(descWords)
	if _, err := Open(e.rt, p); !errors.Is(err, ErrNotMap) {
		t.Fatalf("Open(garbage) = %v", err)
	}
}

func TestNilThreadRejected(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 16, 4)
	if err := e.m.Put(nil, 1, 1); !errors.Is(err, ErrNoThread) {
		t.Fatalf("Put(nil thread) = %v", err)
	}
	if _, _, err := e.m.Get(nil, 1); !errors.Is(err, ErrNoThread) {
		t.Fatalf("Get(nil thread) = %v", err)
	}
	if _, err := e.m.Inc(nil, 1, 1); !errors.Is(err, ErrNoThread) {
		t.Fatalf("Inc(nil thread) = %v", err)
	}
	if _, err := e.m.Delete(nil, 1); !errors.Is(err, ErrNoThread) {
		t.Fatalf("Delete(nil thread) = %v", err)
	}
}

func TestConcurrentIncAccuracy(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 1024, 128)
	const threads, per, keys = 8, 300, 32
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th, err := e.rt.NewThread()
			if err != nil {
				t.Errorf("NewThread: %v", err)
				return
			}
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				if _, err := e.m.Inc(th, uint64(rng.Intn(keys)), 1); err != nil {
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
	e.m.Range(func(_, v uint64) bool { total += v; return true })
	if total != threads*per {
		t.Fatalf("sum = %d, want %d", total, threads*per)
	}
	if _, err := e.m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// --- Crash behaviour: the three Table-1 configurations ---

// crashRecover crashes with the given rescue fraction, reopens the heap,
// runs Atlas recovery, and returns a reattached map.
func (e *env) crashRecover(t *testing.T, frac float64, mode atlas.Mode) *Map {
	t.Helper()
	e.dev.Crash(nvm.CrashOptions{RescueFraction: frac, Seed: 99})
	e.dev.Restart()
	heap, err := pheap.Open(e.dev)
	if err != nil {
		t.Fatalf("Open heap: %v", err)
	}
	if _, err := atlas.Recover(heap); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	rt, err := atlas.New(heap, mode, atlas.Options{MaxThreads: 16})
	if err != nil {
		t.Fatalf("atlas.New: %v", err)
	}
	m, err := Open(rt, heap.Root())
	if err != nil {
		t.Fatalf("hashmap.Open: %v", err)
	}
	return m
}

func TestAtlasTSPRollsBackMidOCSCrash(t *testing.T) {
	// Crash lands between the value store and the check store of one
	// OCS; Atlas TSP mode + full rescue must roll back to the committed
	// state, making Verify pass.
	e := newEnv(t, atlas.ModeTSP, 64, 8)
	th := e.thread(t)
	if err := e.m.Put(th, 7, 100); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Hand-roll a torn update: do what Put does but crash mid-OCS.
	b := e.m.bucketOf(7)
	mu := e.m.mutexFor(b)
	th.Lock(mu)
	n, _ := e.m.findLocked(th, b, 7)
	th.Store(n.Addr()+nodeValue, 200) // value updated, check NOT
	// crash here, mid-OCS
	m2 := e.crashRecover(t, 1, atlas.ModeTSP)
	if _, err := m2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
	th2, _ := m2.rt.NewThread()
	if v, ok, _ := m2.Get(th2, 7); !ok || v != 100 {
		t.Fatalf("Get(7) = %d,%v, want rolled-back 100", v, ok)
	}
}

func TestUnfortifiedMidOCSCrashIsDetectablyCorrupt(t *testing.T) {
	// The same torn update WITHOUT Atlas: the recovery observer sees the
	// inconsistent entry. This is the motivating hazard for Section 4.2.
	e := newEnv(t, atlas.ModeOff, 64, 8)
	th := e.thread(t)
	if err := e.m.Put(th, 7, 100); err != nil {
		t.Fatalf("Put: %v", err)
	}
	b := e.m.bucketOf(7)
	mu := e.m.mutexFor(b)
	th.Lock(mu)
	n, _ := e.m.findLocked(th, b, 7)
	th.Store(n.Addr()+nodeValue, 200) // torn: check word still for 100
	m2 := e.crashRecover(t, 1, atlas.ModeOff)
	if _, err := m2.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify = %v, want ErrCorrupt (no rollback without Atlas)", err)
	}
}

func TestAtlasNonTSPSurvivesCrashWithoutRescue(t *testing.T) {
	e := newEnv(t, atlas.ModeNonTSP, 64, 8)
	th := e.thread(t)
	for k := uint64(0); k < 20; k++ {
		if err := e.m.Put(th, k, k+1000); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Torn update in flight at crash time.
	b := e.m.bucketOf(3)
	mu := e.m.mutexFor(b)
	th.Lock(mu)
	n, _ := e.m.findLocked(th, b, 3)
	th.Store(n.Addr()+nodeValue, 9999)
	// Crash with NO rescue: only synchronously flushed state survives.
	m2 := e.crashRecover(t, 0, atlas.ModeNonTSP)
	if _, err := m2.Verify(); err != nil {
		t.Fatalf("Verify after no-rescue crash: %v", err)
	}
	th2, _ := m2.rt.NewThread()
	for k := uint64(0); k < 20; k++ {
		v, ok, err := m2.Get(th2, k)
		if err != nil || !ok || v != k+1000 {
			t.Fatalf("Get(%d) = %d,%v,%v, want %d", k, v, ok, err, k+1000)
		}
	}
}

func TestCompletedOCSesSurviveManyModes(t *testing.T) {
	for _, tc := range []struct {
		mode atlas.Mode
		frac float64
	}{
		{atlas.ModeOff, 1},    // unfortified needs full rescue and no in-flight OCS
		{atlas.ModeTSP, 1},    // TSP mode needs full rescue
		{atlas.ModeNonTSP, 0}, // non-TSP survives even a no-rescue crash
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			e := newEnv(t, tc.mode, 128, 16)
			th := e.thread(t)
			for k := uint64(0); k < 50; k++ {
				if err := e.m.Put(th, k, k*7); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			m2 := e.crashRecover(t, tc.frac, tc.mode)
			if _, err := m2.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if m2.Len() != 50 {
				t.Fatalf("Len = %d, want 50", m2.Len())
			}
			th2, _ := m2.rt.NewThread()
			for k := uint64(0); k < 50; k++ {
				if v, ok, _ := m2.Get(th2, k); !ok || v != k*7 {
					t.Fatalf("Get(%d) = %d,%v", k, v, ok)
				}
			}
		})
	}
}

func TestRolledBackInsertLeavesNoGhostEntry(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 64, 8)
	th := e.thread(t)
	e.m.Put(th, 1, 1)
	// In-flight insert of a new key at crash time.
	b := e.m.bucketOf(55)
	mu := e.m.mutexFor(b)
	th.Lock(mu)
	if err := e.m.putLocked(th, b, 55, 555, true); err != nil {
		t.Fatalf("putLocked: %v", err)
	}
	// crash before Unlock
	m2 := e.crashRecover(t, 1, atlas.ModeTSP)
	th2, _ := m2.rt.NewThread()
	if _, ok, _ := m2.Get(th2, 55); ok {
		t.Fatal("rolled-back insert still visible")
	}
	if _, err := m2.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if m2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m2.Len())
	}
}

func TestRolledBackDeleteResurrectsEntry(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 1, 1) // single bucket: chain of 3
	th := e.thread(t)
	for k := uint64(1); k <= 3; k++ {
		e.m.Put(th, k, k*10)
	}
	// In-flight delete of the middle node at crash time.
	mu := e.m.mutexFor(0)
	th.Lock(mu)
	n, prev := e.m.findLocked(th, 0, 2)
	next := th.Load(n.Addr() + nodeNext)
	if prev.IsNil() {
		th.Store(e.m.bucketAddr(0), next)
	} else {
		th.Store(prev.Addr()+nodeNext, next)
	}
	// crash mid-OCS: the unlink must be rolled back and the node must
	// NOT have been freed (deferred reclamation).
	m2 := e.crashRecover(t, 1, atlas.ModeTSP)
	th2, _ := m2.rt.NewThread()
	if v, ok, _ := m2.Get(th2, 2); !ok || v != 20 {
		t.Fatalf("Get(2) = %d,%v, want resurrected 20", v, ok)
	}
	if m2.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m2.Len())
	}
	if _, err := m2.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyDetectsMisfiledKey(t *testing.T) {
	e := newEnv(t, atlas.ModeOff, 64, 8)
	th := e.thread(t)
	e.m.Put(th, 10, 1)
	// Corrupt the key in place, keeping the check word consistent so
	// only the bucket-placement check can catch it.
	b := e.m.bucketOf(10)
	n := pheap.Ptr(e.dev.Load(e.m.bucketAddr(b)))
	var k2 uint64
	for k2 = 11; e.m.bucketOf(k2) == b; k2++ {
	}
	e.heap.Store(n, nodeKey, k2)
	e.heap.Store(n, nodeCheck, checkWord(k2, 1))
	if _, err := e.m.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify = %v, want ErrCorrupt", err)
	}
}

// verifyByBucket is Verify as a walk in bucket order, one chain at a
// time: the reference the lockstep walk is checked against.
func verifyByBucket(m *Map) (VerifyReport, error) {
	var rep VerifyReport
	for b := 0; b < m.nBuckets; b++ {
		n := pheap.Ptr(m.heap.Load(m.array, b))
		if !n.IsNil() {
			rep.Chains++
		}
		for steps := 0; !n.IsNil(); steps++ {
			if steps == m.nBuckets*1024 {
				return rep, ErrCorrupt
			}
			key, val := m.heap.Load(n, nodeKey), m.heap.Load(n, nodeValue)
			if m.heap.Load(n, nodeCheck) != checkWord(key, val) || m.bucketOf(key) != b {
				return rep, ErrCorrupt
			}
			rep.Entries++
			n = pheap.Ptr(m.heap.Load(n, nodeNext))
		}
	}
	return rep, nil
}

// TestLockstepWalkMatchesBucketOrder: on random maps, shapes whose
// bucket count is not a multiple of the walk's 256-head block among them,
// Verify reports what a bucket-order walk reports, and both fail once one
// node's check word is corrupted.
func TestLockstepWalkMatchesBucketOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, shape := range [][2]int{{1000, 7}, {97, 97}, {1, 1}, {16384, 1024}} {
		for trial := 0; trial < 3; trial++ {
			e := newEnv(t, atlas.ModeOff, shape[0], shape[1])
			th := e.thread(t)
			keys := rng.Intn(2*shape[0] + 64)
			for i := 0; i < keys; i++ {
				k := rng.Uint64() % uint64(2*keys+1)
				if rng.Intn(5) == 0 {
					e.m.Delete(th, k)
				} else if err := e.m.Put(th, k, rng.Uint64()); err != nil {
					t.Fatal(err)
				}
			}
			got, err := e.m.Verify()
			want, werr := verifyByBucket(e.m)
			if err != nil || werr != nil || got != want {
				t.Fatalf("%v, %d puts: Verify = %v, %v; bucket order = %v, %v", shape, keys, got, err, want, werr)
			}
			if want.Entries != e.m.Len() {
				t.Fatalf("%v: %d entries, Len %d", shape, want.Entries, e.m.Len())
			}
			var nodes []pheap.Ptr
			for b := 0; b < shape[0]; b++ {
				for n := pheap.Ptr(e.dev.Load(e.m.bucketAddr(b))); !n.IsNil(); n = pheap.Ptr(e.dev.Load(n.Addr() + nodeNext)) {
					nodes = append(nodes, n)
				}
			}
			if len(nodes) == 0 {
				continue
			}
			n := nodes[rng.Intn(len(nodes))]
			e.heap.Store(n, nodeCheck, e.heap.Load(n, nodeCheck)^1)
			_, err = e.m.Verify()
			_, werr = verifyByBucket(e.m)
			if !errors.Is(err, ErrCorrupt) || !errors.Is(werr, ErrCorrupt) {
				t.Fatalf("%v: a corrupt check word: Verify = %v, bucket order = %v", shape, err, werr)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	e := newEnv(t, atlas.ModeOff, 16, 4)
	if _, err := New(e.rt, 0, 4); err == nil {
		t.Fatal("New(0 buckets) succeeded")
	}
	if _, err := New(e.rt, 16, -1); err == nil {
		t.Fatal("New(negative stride) succeeded")
	}
}

// TestWalkChainsIsOnlyAHint: the lockstep chain walk a batch runs before
// its section warms the host's cache and does nothing else. Over chains
// of 0 to 40 nodes and batches of 0, 1, 64 and 300 keys (present, absent
// and repeated), it must leave the device counts, Verify's report and
// every Get answer as they were; a next word planted out of range must
// end the walk, not panic it.
func TestWalkChainsIsOnlyAHint(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 8, 2)
	th := e.thread(t)
	lens := [8]int{0, 1, 2, 5, 10, 20, 30, 40}
	var n [8]int
	var absent []uint64
	for k := uint64(1); len(absent) < 40 || n != lens; k++ {
		if b := e.m.bucketOf(k); n[b] < lens[b] {
			n[b]++
			if err := e.m.Put(th, k, k*7); err != nil {
				t.Fatalf("Put: %v", err)
			}
		} else {
			absent = append(absent, k)
		}
	}
	rng := rand.New(rand.NewSource(1))
	batch := func(size int) []uint64 {
		keys := make([]uint64, size)
		for i := range keys {
			switch r := rng.Intn(4); {
			case r == 0:
				keys[i] = absent[rng.Intn(len(absent))]
			case r == 1 && i > 0:
				keys[i] = keys[rng.Intn(i)]
			default:
				keys[i] = 1 + uint64(rng.Intn(int(absent[len(absent)-1])))
			}
		}
		return keys
	}
	answers := func() map[uint64]uint64 {
		out := map[uint64]uint64{}
		for k := uint64(0); k <= absent[len(absent)-1]; k++ {
			if v, ok, err := e.m.Get(th, k); err != nil {
				t.Fatalf("Get %d: %v", k, err)
			} else if ok {
				out[k] = v
			}
		}
		return out
	}
	verify := func() VerifyReport {
		rep, err := e.m.Verify()
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		return rep
	}
	before, rep := answers(), verify()
	for _, size := range []int{0, 1, 64, 300} {
		keys := batch(size)
		stats := e.dev.Stats()
		e.m.WalkChains(keys)
		if got := e.dev.Stats(); got != stats {
			t.Fatalf("walk of %d keys moved the device counts: %+v -> %+v", size, stats, got)
		}
	}
	if got := verify(); got != rep {
		t.Fatalf("Verify after the walks: %v, before %v", got, rep)
	}
	if got := answers(); !maps.Equal(got, before) {
		t.Fatalf("Get answers changed by the walks: %d entries, %d before", len(got), len(before))
	}

	// Plant an out-of-range next word at the tail of the 40-node chain.
	b := slices.Index(lens[:], 40)
	tail := e.dev.Load(e.m.bucketAddr(b))
	for next := e.dev.Load(nvm.Addr(tail) + nodeNext); next != 0; next = e.dev.Load(nvm.Addr(tail) + nodeNext) {
		tail = next
	}
	for _, bad := range []uint64{e.dev.Words(), e.dev.Words() + 1<<20, ^uint64(0)} {
		e.dev.Store(nvm.Addr(tail)+nodeNext, bad)
		var keys []uint64
		for k := uint64(1); len(keys) < 64; k++ {
			if e.m.bucketOf(k) == b {
				keys = append(keys, k)
			}
		}
		e.m.WalkChains(keys)
	}
	e.dev.Store(nvm.Addr(tail)+nodeNext, 0)
	if got := verify(); got != rep {
		t.Fatalf("Verify after the planted walks: %v, before %v", got, rep)
	}
}
