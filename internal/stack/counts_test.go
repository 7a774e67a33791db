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
// stores 14,521, writebacks 1,208 — moved by exactly one change since:
// recovery's collector no longer scans the log ring. Loads fell by
// 4,215: the ring's 4,100 words (1,025 entries of 4) plus the 5-word
// payloads of the 23 deleted nodes only the ring's dead records still
// pointed at. Stores and writebacks rose by 23: the sweep clears those
// blocks' headers.

var goldenCounts = nvm.StatsSnapshot{
	Loads:      33140,
	Stores:     14544,
	CAS:        262,
	Flushes:    8,
	Writebacks: 1231,
	Rescues:    1,
}

// goldenSectionCounts is what the same script's Atlas and map sections
// counted at the commit before a thread tallied its sections' log
// records and map operations (each was its own atomic add there).
var goldenSectionCounts = telemetry.Snapshot{
	"atlas_log_appends": 2150, "atlas_ocs_commits": 489,
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
