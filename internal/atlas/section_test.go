package atlas

import (
	"errors"
	"testing"

	"tsp/internal/nvm"
	"tsp/internal/telemetry"
)

// TestSectionIsOneOCS: a Section over several mutexes commits exactly
// one outermost critical section, however many locks and stores it
// spans — the amortization the cache server's batch pipeline rides on.
func TestSectionIsOneOCS(t *testing.T) {
	tel := &telemetry.AtlasStats{}
	e := newEnv(t, ModeTSP, Options{Telemetry: tel})
	th := e.thread(t)
	p := e.alloc(t, 8)
	mus := []*Mutex{e.rt.NewMutex(), e.rt.NewMutex(), e.rt.NewMutex()}

	err := th.Section(mus, func() error {
		for w := 0; w < 8; w++ {
			th.Store(p.Addr()+uint64ToAddr(w), uint64(w)*7)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	if got := tel.OCSCommits.Load(); got != 1 {
		t.Fatalf("OCS commits = %d, want 1 (one section, one OCS)", got)
	}
	if th.held > 0 {
		t.Fatal("thread still inside an OCS after Section returned")
	}
	for w := 0; w < 8; w++ {
		if got := th.Load(p.Addr() + uint64ToAddr(w)); got != uint64(w)*7 {
			t.Fatalf("word %d = %d, want %d", w, got, uint64(w)*7)
		}
	}
}

// TestSectionNested: a Section entered while a mutex is already held
// stays inside the enclosing OCS (no extra commit) — the nesting
// behavior mutex-based Atlas code relies on.
func TestSectionNested(t *testing.T) {
	tel := &telemetry.AtlasStats{}
	e := newEnv(t, ModeTSP, Options{Telemetry: tel})
	th := e.thread(t)
	outer := e.rt.NewMutex()
	inner := []*Mutex{e.rt.NewMutex(), e.rt.NewMutex()}

	th.Lock(outer)
	if err := th.Section(inner, func() error { return nil }); err != nil {
		t.Fatalf("nested Section: %v", err)
	}
	if got := tel.OCSCommits.Load(); got != 0 {
		t.Fatalf("OCS commits = %d inside enclosing OCS, want 0", got)
	}
	if th.held == 0 {
		t.Fatal("enclosing OCS closed by nested Section")
	}
	th.Unlock(outer)
	if got := tel.OCSCommits.Load(); got != 1 {
		t.Fatalf("OCS commits = %d after outer unlock, want 1", got)
	}
}

// TestSectionErrorStillReleases: fn's error is propagated and every
// mutex is released — an erroring section must not wedge the stripe
// locks it holds.
func TestSectionErrorStillReleases(t *testing.T) {
	e := newEnv(t, ModeTSP, Options{})
	th := e.thread(t)
	mus := []*Mutex{e.rt.NewMutex(), e.rt.NewMutex()}
	sentinel := errors.New("boom")

	if err := th.Section(mus, func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Section error = %v, want %v", err, sentinel)
	}
	if th.held > 0 {
		t.Fatal("thread left inside OCS after erroring section")
	}
	// The mutexes are free again: a fresh section over them succeeds.
	if err := th.Section(mus, func() error { return nil }); err != nil {
		t.Fatalf("reusing mutexes after error: %v", err)
	}
}

// TestSectionCrashRollsBackWholeGroup: a crash before the section's
// final release rolls back EVERY store the section made, across all of
// its mutexes — group atomicity, the correctness half of batching many
// operations into one critical section.
func TestSectionCrashRollsBackWholeGroup(t *testing.T) {
	e := newEnv(t, ModeTSP, Options{})
	th := e.thread(t)
	p := e.alloc(t, 4)
	e.heap.SetRoot(p)
	mus := []*Mutex{e.rt.NewMutex(), e.rt.NewMutex()}

	// Committed baseline values.
	if err := th.Section(mus, func() error {
		for w := 0; w < 4; w++ {
			th.Store(p.Addr()+uint64ToAddr(w), 100+uint64(w))
		}
		return nil
	}); err != nil {
		t.Fatalf("baseline Section: %v", err)
	}

	// Open a new section by hand (Section cannot pause mid-flight), dirty
	// every word, and crash before the final release.
	for _, m := range mus {
		th.Lock(m)
	}
	for w := 0; w < 4; w++ {
		th.Store(p.Addr()+uint64ToAddr(w), 999)
	}
	th.Unlock(mus[1]) // inner release: the OCS is still open

	heap, rep := e.reopen(t, 1)
	if rep.Incomplete == 0 {
		t.Fatalf("recovery saw no incomplete OCS: %+v", rep)
	}
	for w := 0; w < 4; w++ {
		if got := heap.Device().Load(heap.Root().Addr() + uint64ToAddr(w)); got != 100+uint64(w) {
			t.Fatalf("word %d = %d after rollback, want %d (whole group rolled back)", w, got, 100+uint64(w))
		}
	}
}

// uint64ToAddr converts a word offset for address arithmetic in tests.
func uint64ToAddr(w int) nvm.Addr { return nvm.Addr(w) }

// TestLargeSectionReusesFirstStoreFilter: a section with more distinct
// stores than the filter's slice holds switches to the address table,
// and the table is kept (emptied) for the next section, not rebuilt —
// the cache server's burst-sized batches make such sections the common
// case. The second of two 100-store sections allocates nothing, and
// the filter still logs each address once per OCS: one undo record per
// distinct address in each section, none for the repeated stores.
func TestLargeSectionReusesFirstStoreFilter(t *testing.T) {
	const words = 100
	tel := &telemetry.AtlasStats{}
	e := newEnv(t, ModeTSP, Options{Telemetry: tel})
	th := e.thread(t)
	p := e.alloc(t, words)
	mus := []*Mutex{e.rt.NewMutex()}
	body := func() error {
		for pass := 0; pass < 2; pass++ { // the second pass must hit the filter
			for w := 0; w < words; w++ {
				th.Store(p.Addr()+uint64ToAddr(w), uint64(pass+w))
			}
		}
		return nil
	}
	section := func() { _ = th.Section(mus, body) }

	section() // grows the filter once
	// Per section: acquire + release + one undo record per address.
	before := tel.LogAppends.Load()
	if allocs := testing.AllocsPerRun(10, section); allocs != 0 {
		t.Fatalf("a %d-store section after the first allocated %.1f times, want 0", words, allocs)
	}
	runs := tel.OCSCommits.Load() - 1
	if got, want := tel.LogAppends.Load()-before, runs*(words+2); got != want {
		t.Fatalf("log appends over %d sections = %d, want %d (each address logged once per OCS)", runs, got, want)
	}
}

// TestTallyPublishedWhenSectionEnds pins when a thread's device accesses
// reach Device.Stats: not while its outermost section is open, all of
// them when it closes — and also when it never closes because the body
// panicked, or closes on a device that an armed crash stopped mid-way
// (whose dropped stores are not accesses). Each number is what the
// device counted when every access was its own atomic add.
func TestTallyPublishedWhenSectionEnds(t *testing.T) {
	e := newEnv(t, ModeTSP, Options{})
	th := e.thread(t)
	p := e.alloc(t, 8)
	mus := []*Mutex{e.rt.NewMutex()}
	delta := func(since nvm.StatsSnapshot) (loads, stores uint64) {
		d := e.dev.Stats().Sub(since)
		return d.Loads, d.Stores
	}

	// Three first stores: per store one load of the old value, one undo
	// record and the store; plus the acquire and release records.
	before := e.dev.Stats()
	if err := th.Section(mus, func() error {
		for w := 0; w < 3; w++ {
			th.Store(p.Addr()+uint64ToAddr(w), 9)
		}
		if l, s := delta(before); l != 0 || s != 0 {
			t.Errorf("an open section has published %d loads, %d stores", l, s)
		}
		return nil
	}); err != nil {
		t.Fatalf("Section: %v", err)
	}
	if l, s := delta(before); l != 3 || s != 8 {
		t.Fatalf("closed section counted %d loads, %d stores, want 3 and 8", l, s)
	}

	// Outside a section every access is published at once.
	before = e.dev.Stats()
	th.Store(p.Addr(), th.Load(p.Addr())+1)
	if l, s := delta(before); l != 1 || s != 1 {
		t.Fatalf("unguarded load+store counted %d loads, %d stores, want 1 and 1", l, s)
	}

	// A body that panics: acquire record, one guarded store, one load.
	before = e.dev.Stats()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the section body's panic was swallowed")
			}
		}()
		_ = th.Section(mus, func() error {
			th.Store(p.Addr(), 1)
			th.Load(p.Addr() + 1)
			panic("section body failed")
		})
	}()
	if l, s := delta(before); l != 2 || s != 3 {
		t.Fatalf("panicked section counted %d loads, %d stores, want 2 and 3", l, s)
	}

	// An armed crash two store-class operations in: the acquire record
	// and the first undo record land, everything after is dropped.
	th2 := e.thread(t)
	mus2 := []*Mutex{e.rt.NewMutex()}
	before = e.dev.Stats()
	e.dev.ArmCrashAfter(2, nvm.CrashOptions{RescueFraction: 1})
	_ = th2.Section(mus2, func() error {
		for w := 4; w < 7; w++ {
			th2.Store(p.Addr()+uint64ToAddr(w), 9)
		}
		return nil
	})
	if !e.dev.Crashed() {
		t.Fatal("the armed crash did not fire")
	}
	if l, s := delta(before); l != 3 || s != 2 {
		t.Fatalf("section cut by a crash counted %d loads, %d stores, want 3 and 2", l, s)
	}
}
