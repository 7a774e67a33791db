package nvm

import (
	"sync"
	"testing"
)

func testDevice(t *testing.T, words int) *Device {
	t.Helper()
	return NewDevice(Config{Words: words})
}

func TestLoadStoreRoundTrip(t *testing.T) {
	d := testDevice(t, 128)
	d.Store(3, 42)
	if got := d.Load(3); got != 42 {
		t.Fatalf("Load(3) = %d, want 42", got)
	}
}

func TestZeroInitialized(t *testing.T) {
	d := testDevice(t, 64)
	for a := Addr(0); a < 64; a++ {
		if d.Load(a) != 0 {
			t.Fatalf("word %d not zero-initialized", a)
		}
		if d.Persisted(a) != 0 {
			t.Fatalf("persisted word %d not zero-initialized", a)
		}
	}
}

func TestStoreDoesNotReachPersistedWithoutFlush(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(5, 7)
	if got := d.Persisted(5); got != 0 {
		t.Fatalf("Persisted(5) = %d before any flush, want 0", got)
	}
}

func TestFlushWordPersistsWholeLine(t *testing.T) {
	d := testDevice(t, 64)
	// Words 0..7 share the first 8-word line.
	for a := Addr(0); a < 8; a++ {
		d.Store(a, uint64(a)+100)
	}
	d.FlushWord(0)
	for a := Addr(0); a < 8; a++ {
		if got := d.Persisted(a); got != uint64(a)+100 {
			t.Fatalf("Persisted(%d) = %d after line flush, want %d", a, got, a+100)
		}
	}
	// Word 8 is on the next line and must remain unflushed.
	d.Store(8, 999)
	if d.Persisted(8) != 0 {
		t.Fatal("flush of line 0 leaked into line 1")
	}
}

func TestDirtyTracking(t *testing.T) {
	d := testDevice(t, 64)
	if d.DirtyLines() != 0 {
		t.Fatal("fresh device has dirty lines")
	}
	d.Store(0, 1)
	d.Store(1, 2) // same line
	if got := d.DirtyLines(); got != 1 {
		t.Fatalf("DirtyLines = %d after stores to one line, want 1", got)
	}
	d.Store(9, 3) // second line
	if got := d.DirtyLines(); got != 2 {
		t.Fatalf("DirtyLines = %d, want 2", got)
	}
	d.FlushWord(0)
	if d.LineDirty(0) {
		t.Fatal("line 0 still dirty after flush")
	}
	if !d.LineDirty(9) {
		t.Fatal("line 1 lost its dirty bit")
	}
}

func TestFlushRangeSpansLines(t *testing.T) {
	d := testDevice(t, 64)
	for a := Addr(4); a < 20; a++ {
		d.Store(a, uint64(a))
	}
	d.FlushRange(4, 16) // touches lines 0, 1 and 2
	for a := Addr(4); a < 20; a++ {
		if d.Persisted(a) != uint64(a) {
			t.Fatalf("word %d not persisted by FlushRange", a)
		}
	}
	if got := d.Stats().Flushes; got != 3 {
		t.Fatalf("FlushRange over 3 lines charged %d flushes, want 3", got)
	}
}

func TestFlushRangeZeroWordsIsNoop(t *testing.T) {
	d := testDevice(t, 64)
	d.FlushRange(0, 0)
	if d.Stats().Flushes != 0 {
		t.Fatal("FlushRange(_, 0) charged a flush")
	}
}

func TestCASSemantics(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(1, 10)
	if d.CAS(1, 11, 12) {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if !d.CAS(1, 10, 12) {
		t.Fatal("CAS failed with correct expected value")
	}
	if d.Load(1) != 12 {
		t.Fatalf("Load(1) = %d after CAS, want 12", d.Load(1))
	}
}

func TestCASMarksDirty(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(0, 5)
	d.FlushWord(0)
	if d.LineDirty(0) {
		t.Fatal("line dirty after flush")
	}
	d.CAS(0, 5, 6)
	if !d.LineDirty(0) {
		t.Fatal("successful CAS did not mark line dirty")
	}
}

func TestFailedCASDoesNotMarkDirty(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(0, 5)
	d.FlushWord(0)
	d.CAS(0, 99, 6)
	if d.LineDirty(0) {
		t.Fatal("failed CAS marked line dirty")
	}
}

func TestAdd(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(2, 40)
	if got := d.Add(2, 2); got != 42 {
		t.Fatalf("Add returned %d, want 42", got)
	}
	if d.Load(2) != 42 {
		t.Fatalf("Load after Add = %d, want 42", d.Load(2))
	}
}

func TestCrashRescuePersistsEverything(t *testing.T) {
	d := testDevice(t, 64)
	for a := Addr(0); a < 64; a++ {
		d.Store(a, uint64(a)*3)
	}
	d.CrashRescue()
	for a := Addr(0); a < 64; a++ {
		if d.Persisted(a) != uint64(a)*3 {
			t.Fatalf("word %d lost despite TSP rescue", a)
		}
	}
}

func TestCrashDropLosesUnflushedStores(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(0, 111)
	d.FlushWord(0)
	d.Store(0, 222) // re-dirtied, not flushed
	d.Store(20, 333)
	d.CrashDrop()
	if got := d.Persisted(0); got != 111 {
		t.Fatalf("Persisted(0) = %d after drop, want the flushed 111", got)
	}
	if got := d.Persisted(20); got != 0 {
		t.Fatalf("Persisted(20) = %d after drop, want 0", got)
	}
}

func TestStoresAfterCrashAreDropped(t *testing.T) {
	d := testDevice(t, 64)
	d.CrashRescue()
	d.Store(0, 7)
	if d.Load(0) != 0 {
		t.Fatal("store after crash reached the volatile image")
	}
	if d.Add(1, 5); d.Load(1) != 0 {
		t.Fatal("Add after crash reached the volatile image")
	}
	if d.CAS(2, 0, 9) {
		t.Fatal("CAS after crash claimed success")
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(0, 1)
	d.CrashDrop()
	d.CrashRescue() // must not resurrect the dropped store
	if d.Persisted(0) != 0 {
		t.Fatal("second crash rescued a line dropped by the first")
	}
}

func TestRestartReadsPersistedImage(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(0, 10)
	d.FlushWord(0)
	d.Store(0, 20) // will be lost
	d.CrashDrop()
	d.Restart()
	if got := d.Load(0); got != 10 {
		t.Fatalf("post-restart Load(0) = %d, want 10", got)
	}
	if d.Crashed() {
		t.Fatal("device still reports crashed after Restart")
	}
	d.Store(0, 30)
	if d.Load(0) != 30 {
		t.Fatal("stores rejected after restart")
	}
}

func TestRestartClearsDirtyBits(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(0, 1)
	d.CrashDrop()
	d.Restart()
	if d.DirtyLines() != 0 {
		t.Fatal("dirty lines survived restart")
	}
}

func TestCrashPartialDeterministic(t *testing.T) {
	run := func() []uint64 {
		d := testDevice(t, 512)
		for a := Addr(0); a < 512; a++ {
			d.Store(a, uint64(a)+1)
		}
		d.CrashPartial(0.5, 12345)
		out := make([]uint64, 512)
		for a := Addr(0); a < 512; a++ {
			out[a] = d.Persisted(a)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("partial rescue not deterministic at word %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCrashPartialRescuesSomeLoses(t *testing.T) {
	d := testDevice(t, 4096)
	for a := Addr(0); a < 4096; a++ {
		d.Store(a, 1)
	}
	d.CrashPartial(0.5, 7)
	var kept, lost int
	for a := Addr(0); a < 4096; a++ {
		if d.Persisted(a) == 1 {
			kept++
		} else {
			lost++
		}
	}
	if kept == 0 || lost == 0 {
		t.Fatalf("partial rescue at 0.5 kept %d lost %d; expected a mix", kept, lost)
	}
	// Survival is line-granular: within any line, all words share a fate.
	for line := uint64(0); line < d.Lines(); line++ {
		base := Addr(line * 8)
		first := d.Persisted(base)
		for w := Addr(1); w < 8; w++ {
			if d.Persisted(base+w) != first {
				t.Fatalf("line %d partially rescued; rescue must be line-granular", line)
			}
		}
	}
}

func TestCrashRescueIsStrictPrefix(t *testing.T) {
	// Under a full TSP rescue, the persisted image must equal the
	// volatile image: the recovery observer sees every store issued.
	d := testDevice(t, 256)
	for a := Addr(0); a < 256; a++ {
		d.Store(a, uint64(a)^0xdead)
	}
	before := make([]uint64, 256)
	for a := Addr(0); a < 256; a++ {
		before[a] = d.Load(a)
	}
	d.CrashRescue()
	for a := Addr(0); a < 256; a++ {
		if d.Persisted(a) != before[a] {
			t.Fatalf("word %d: persisted %d != volatile-at-crash %d", a, d.Persisted(a), before[a])
		}
	}
}

func TestConcurrentStoresRaceFree(t *testing.T) {
	d := NewDevice(Config{Words: 1 << 12})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a := Addr((g*512 + i%512))
				d.Store(a, uint64(i))
				_ = d.Load(a)
				if i%37 == 0 {
					d.FlushWord(a)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentAddIsAtomic(t *testing.T) {
	d := testDevice(t, 64)
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d.Add(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := d.Load(0); got != goroutines*perG {
		t.Fatalf("concurrent Add lost updates: %d, want %d", got, goroutines*perG)
	}
}

func TestStatsCounters(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(0, 1)
	d.Load(0)
	d.CAS(0, 1, 2)
	d.FlushWord(0)
	s := d.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.CAS != 1 || s.Flushes != 1 {
		t.Fatalf("unexpected stats: %s", s)
	}
	d.ResetStats()
	if s := d.Stats(); s.Stores != 0 || s.Loads != 0 {
		t.Fatalf("ResetStats left counters: %s", s)
	}
}

func TestStatsSub(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(0, 1)
	before := d.Stats()
	d.Store(0, 2)
	d.Store(0, 3)
	delta := d.Stats().Sub(before)
	if delta.Stores != 2 {
		t.Fatalf("delta.Stores = %d, want 2", delta.Stores)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := testDevice(t, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Load did not panic")
		}
	}()
	d.Load(16)
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Words: 10, LineWords: 8}, true},
		{"zero words", Config{Words: 0, LineWords: 8}, false},
		{"negative words", Config{Words: -1, LineWords: 8}, false},
		{"zero line", Config{Words: 10, LineWords: 0}, false},
		{"negative flush", Config{Words: 10, LineWords: 8, FlushCost: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	d := NewDevice(Config{Words: 100})
	if d.Config().LineWords != DefaultLineWords {
		t.Fatalf("LineWords default = %d, want %d", d.Config().LineWords, DefaultLineWords)
	}
	// 100 words / 8-word lines -> 13 lines (ceiling).
	if d.Lines() != 13 {
		t.Fatalf("Lines() = %d, want 13", d.Lines())
	}
}

func TestDeviceSizeNotLineMultiple(t *testing.T) {
	// Last line is short; flushing it must not run off the end.
	d := NewDevice(Config{Words: 10})
	d.Store(9, 77)
	d.FlushWord(9)
	if d.Persisted(9) != 77 {
		t.Fatal("short final line not flushed correctly")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := testDevice(t, 64)
	d.Store(1, 11)
	d.Store(2, 22)
	d.FlushAll()
	snap := d.SnapshotPersisted()

	d2 := testDevice(t, 64)
	if err := d2.RestorePersisted(snap); err != nil {
		t.Fatalf("RestorePersisted: %v", err)
	}
	d2.Restart()
	if d2.Load(1) != 11 || d2.Load(2) != 22 {
		t.Fatal("restored device does not reflect the snapshot")
	}
}

func TestRestoreWrongSizeRejected(t *testing.T) {
	d := testDevice(t, 64)
	if err := d.RestorePersisted(make([]uint64, 63)); err == nil {
		t.Fatal("RestorePersisted accepted a wrong-size snapshot")
	}
}

func TestSpinZeroIsFree(t *testing.T) {
	// Just exercises the spin path; zero-cost flush must not crash.
	spin(0)
	spin(10)
	d := NewDevice(Config{Words: 16, FlushCost: 5})
	d.Store(0, 1)
	d.FlushWord(0)
	if d.Persisted(0) != 1 {
		t.Fatal("flush with nonzero cost did not persist")
	}
}
