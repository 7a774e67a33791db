package stack

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
	"tsp/internal/telemetry"
)

// The device's counters are the program's own account of its work (the
// per-request counts of the benchmark, Table 1's attribution), so a
// change to HOW accesses are counted must not change WHAT is counted.
// countScript is a fixed seeded program over every layer that touches
// the device; goldenCounts is what the device reported for it at the
// commit before accesses were tallied per operation (8ec88db), where
// every access was one atomic add on the shared section — loads 37,355,
// stores 14,521, writebacks 1,208 — moved by exactly five changes since.
// Recovery's collector no longer scans the log ring: loads fell by
// 4,215, the ring's 4,100 words (1,025 entries of 4) plus the 5-word
// payloads of the 23 deleted nodes only the ring's dead records still
// pointed at, and stores and writebacks rose by 23, the sweep clearing
// those blocks' headers. Reattach reads the epoch drain's payload
// anchor (one load; the script never drains, so the slot is empty).
// And the collector traces the map instead of scanning it: loads fell by
// 669 — the map's scanned payloads (descriptor 5, bucket array 1,023,
// 158 nodes of 5: 1,818), less the trace's own reads (descriptor 4, 512
// buckets, 158 nodes of 4: 1,148), less the descriptor magic
// hashmap.New now reads back (1). And New no longer reads the epoch
// and session Aux slots before anchoring a fresh heap's blocks: loads
// fell by 2. And the recovery collector takes pheap.Open's chain walk
// instead of walking again: loads fell by 308, the second walk's bump
// pointer (1) and its header of each of the chain's 307 blocks.
//
// And fresh memory is written once. A heap Formatted on an untouched
// device hands out blocks carved from its bump region unzeroed, an
// insert's node takes no undo record (atlas.Thread.Alloc), and New no
// longer zeroes the session table: stores fell by 10,646, loads by 782
// and writebacks by 374, phase by phase:
//
//   - New: 4,142 stores — the carved set-up blocks' zeroes (bucket
//     array 1,023, session table 2,047, log directory 11, skip-list
//     head 23, map descriptor 5, list descriptor 3, root 3, epoch 1:
//     3,116) and newSessAnchor's and newEpochAnchor's own zeroes (1,026)
//     — and the 385 lines only those zeroes dirtied, which the closing
//     FlushAll no longer writes back;
//   - NewThread: 4,100 stores, the log ring's zeroes;
//   - the map ops: 1,681 stores and 777 loads. Each of the 189 inserts
//     appends 4 fewer undo records (a load and a store each: 756 of
//     both), 178 of their nodes are carved and unzeroed (890 stores),
//     and with fewer records a lap of the ring takes more sections, so
//     7 deferred frees are not yet due: 7 frees fewer (14 loads, 7
//     stores) and 7 nodes carved (a load, two stores) in place of
//     recycled (two loads, six stores): 7 loads, 28 stores;
//   - the section: 3 inserts, 12 undo records (12 loads, 12 stores) and
//     15 zeroes;
//   - the skip list: 703 stores, its carved nodes' zeroes;
//   - CrashReattach: 7 loads, 7 stores and 11 writebacks more. Those 7
//     blocks are in the chain Open walks (a header load each) and
//     unreachable, so the collector clears 30 headers, not 23, on 29
//     lines, not 23; and they lie past the parent's bump pointer, on 5
//     more lines the rescue writes back (822, was 817).

var goldenCounts = nvm.StatsSnapshot{
	Loads:      31380,
	Stores:     3898,
	CAS:        262,
	Flushes:    8,
	Writebacks: 857,
	Rescues:    1,
}

// goldenSectionCounts is what the same script's Atlas and map sections
// counted at the commit before a thread tallied its sections' log
// records and map operations (each was its own atomic add there). Log
// appends fell from 2,150 by 768 when an insert's node stopped taking
// undo records: 4 for each of the 192 inserts.
var goldenSectionCounts = telemetry.Snapshot{
	"atlas_log_appends": 1382, "atlas_ocs_commits": 489,
	"map_gets": 219, "map_puts": 189, "map_incs": 88, "map_deletes": 112, "map_opt_gets": 112,
}

func countStack(t testing.TB) (*Stack, *atlas.Thread) {
	t.Helper()
	s, err := New(WithDeviceWords(1<<18), WithBuckets(512, 64), WithLogEntries(1024), WithMaxThreads(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	th, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	return s, th
}

// countScript runs map puts/gets/incs/deletes through a Thread,
// optimistic gets, a multi-stripe section, skip-list put/get/range, and
// one CrashReattach with both verifies, and returns the device's totals
// and the registry's.
func countScript(t testing.TB) (nvm.StatsSnapshot, telemetry.Snapshot) {
	t.Helper()
	s, th := countStack(t)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 600; i++ {
		k, v := rng.Uint64()%300, rng.Uint64()
		var err error
		switch rng.Intn(6) {
		case 0, 1:
			err = s.Map.Put(th, k, v)
		case 2:
			_, _, err = s.Map.Get(th, k)
		case 3:
			_, err = s.Map.Inc(th, k, v%7)
		case 4:
			_, err = s.Map.Delete(th, k)
		case 5:
			if _, _, valid := s.Map.GetOptimistic(k); !valid {
				t.Fatalf("optimistic get of %d did not validate on a quiet map", k)
			}
		}
		if err != nil {
			t.Fatalf("map op %d: %v", i, err)
		}
	}
	// One batch-shaped section: eight keys under their stripes' mutexes.
	keys := make([]uint64, 8)
	stripes := map[int]bool{}
	for i := range keys {
		keys[i] = rng.Uint64() % 300
		stripes[s.Map.StripeOf(keys[i])] = true
	}
	order := make([]int, 0, len(stripes))
	for i := range stripes {
		order = append(order, i)
	}
	sort.Ints(order)
	mus := make([]*atlas.Mutex, len(order))
	for i, st := range order {
		mus[i] = s.Map.StripeMutex(st)
	}
	if err := th.Section(mus, func() error {
		for _, st := range order {
			s.Map.BeginStripeWrites(st)
		}
		for _, k := range keys {
			if err := s.Map.PutLocked(th, k, k+1); err != nil {
				return err
			}
		}
		for _, st := range order {
			s.Map.EndStripeWrites(st)
		}
		return nil
	}); err != nil {
		t.Fatalf("section: %v", err)
	}
	for i := 0; i < 300; i++ {
		k := rng.Uint64() % 500
		switch rng.Intn(4) {
		case 0, 1:
			if _, err := s.List.Put(k, uint64(i)); err != nil {
				t.Fatalf("list put: %v", err)
			}
		case 2:
			s.List.Get(k)
		case 3:
			n := 0
			s.List.RangeBetween(k, k+40, func(_, _ uint64) bool { n++; return n < 16 })
		}
	}
	ns, err := s.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("CrashReattach: %v", err)
	}
	if _, err := ns.Map.Verify(); err != nil {
		t.Fatalf("map verify: %v", err)
	}
	if _, err := ns.List.Verify(); err != nil {
		t.Fatalf("list verify: %v", err)
	}
	return ns.Dev.Stats(), ns.Tel.Counters()
}

// TestDeviceCountsGolden: the script's totals are, number for number,
// what the parent commit counted.
func TestDeviceCountsGolden(t *testing.T) {
	got, sections := countScript(t)
	if got != goldenCounts {
		t.Fatalf("device counts moved:\n got  %v\n want %v", got, goldenCounts)
	}
	for name, want := range goldenSectionCounts {
		if sections[name] != want {
			t.Errorf("%s = %d, want %d", name, sections[name], want)
		}
	}
}

// countPhases is the race half of the contract: four optimistic readers,
// a section writer and a poller of Device.Stats, together or one after
// another. The readers' keys live in stripes the writer never touches
// (no snapshot is ever voided, so a read's loads do not depend on the
// schedule) and the writer only updates keys that exist (no allocation),
// so every goroutine's accesses are the same in both runs and the totals
// must be too: a tally lost, or published twice, shows as a difference.
// The writer ends with the two ways a section stops short — one whose
// body panics with its mutex held, one cut by an armed crash.
func countPhases(t *testing.T, concurrent bool) nvm.StatsSnapshot {
	t.Helper()
	s, th := countStack(t)
	var mine, theirs []uint64
	for k := uint64(0); k < 400; k++ {
		if err := s.Map.Put(th, k, k); err != nil {
			t.Fatalf("put: %v", err)
		}
		if s.Map.StripeOf(k) == 0 {
			mine = append(mine, k)
		} else {
			theirs = append(theirs, k)
		}
	}
	scratch, err := s.Heap.Alloc(8)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	dead, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	before := s.Dev.Stats()

	var wg sync.WaitGroup
	run := func(fn func()) {
		if !concurrent {
			fn()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		var last nvm.StatsSnapshot
		for {
			now := s.Dev.Stats()
			if now.Loads < last.Loads || now.Stores < last.Stores || now.CAS < last.CAS {
				t.Errorf("device counters went backwards: %v after %v", now, last)
			}
			last = now
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for r := 0; r < 4; r++ {
		r := r
		run(func() {
			for i := 0; i < 2000; i++ {
				k := theirs[(i*7+r)%len(theirs)]
				if v, ok, valid := s.Map.GetOptimistic(k); !valid || !ok || v != k {
					t.Errorf("optimistic get of %d = %d,%v,%v", k, v, ok, valid)
					return
				}
			}
		})
	}
	run(func() {
		for i := 0; i < 1500; i++ {
			k := mine[i%len(mine)]
			var err error
			if i%3 == 0 {
				_, err = s.Map.Inc(th, k, 1)
			} else {
				err = s.Map.Put(th, k, uint64(i))
			}
			if err != nil {
				t.Errorf("writer op %d: %v", i, err)
				return
			}
		}
		// A section that panics: its accesses up to the panic count.
		func() {
			defer func() { recover() }()
			_ = dead.Section([]*atlas.Mutex{s.RT.NewMutex()}, func() error {
				dead.Store(scratch.Addr(), dead.Load(scratch.Addr()+1)+1)
				dead.Store(scratch.Addr()+2, 2)
				panic("section body failed")
			})
		}()
		// A section cut by an armed crash: the stores from the crash on
		// are dropped and uncounted, the loads still count.
		s.Dev.ArmCrashAfter(5, nvm.CrashOptions{RescueFraction: 1})
		mu := s.Map.StripeMutex(0)
		_ = th.Section([]*atlas.Mutex{mu}, func() error {
			s.Map.BeginStripeWrites(0)
			defer s.Map.EndStripeWrites(0)
			for _, k := range mine[:8] {
				if err := s.Map.PutLocked(th, k, 7); err != nil {
					return err
				}
			}
			return nil
		})
		if !s.Dev.Crashed() {
			t.Error("the armed crash did not fire inside the section")
		}
	})
	wg.Wait()
	close(done)
	<-polled
	return s.Dev.Stats().Sub(before)
}

// TestDeviceCountsConcurrentPublish: at quiescence the concurrent run
// has counted exactly what the one-goroutine run counted.
func TestDeviceCountsConcurrentPublish(t *testing.T) {
	alone := countPhases(t, false)
	together := countPhases(t, true)
	if alone != together {
		t.Fatalf("device counts depend on the schedule:\n alone    %v\n together %v", alone, together)
	}
	if alone.Loads == 0 || alone.Stores == 0 || alone.Rescues != 1 {
		t.Fatalf("the script did not do what it says: %v", alone)
	}
}
