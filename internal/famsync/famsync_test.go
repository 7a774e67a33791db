package famsync

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

func newDev(words int) *nvm.Device {
	return nvm.NewDevice(nvm.Config{Words: words})
}

func TestCreateCommitOpenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(1 << 12)
	dev.Store(10, 111)
	dev.FlushAll()
	s, err := Create(dev, path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	dev.Store(10, 222)
	dev.Store(2000, 333)
	dev.FlushAll()
	n, err := s.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if n != 2 {
		t.Fatalf("Commit wrote %d pages, want 2", n)
	}
	s.Close()

	dev2 := newDev(1 << 12)
	s2, err := OpenFile(dev2, path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer s2.Close()
	if dev2.Load(10) != 222 || dev2.Load(2000) != 333 {
		t.Fatalf("restored values wrong: %d, %d", dev2.Load(10), dev2.Load(2000))
	}
	if s2.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", s2.Generation())
	}
}

func TestCommitWithNoChangesWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(1 << 10)
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n, err := s.Commit()
	if err != nil || n != 0 {
		t.Fatalf("empty Commit = %d,%v", n, err)
	}
	if s.Generation() != 0 {
		t.Fatal("generation advanced without changes")
	}
}

func TestOnlyDirtyPagesWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(1 << 12)
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Touch one word -> exactly one page.
	dev.Store(100, 5)
	dev.FlushAll()
	if n, _ := s.Commit(); n != 1 {
		t.Fatalf("pages written = %d, want 1", n)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(1 << 10)
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	dev.Store(0, 1)
	dev.FlushAll()
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-commit: append a page record with NO seal.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 8*(2+DefaultPageWords))
	garbage[0] = tagPage
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dev2 := newDev(1 << 10)
	s2, err := OpenFile(dev2, path)
	if err != nil {
		t.Fatalf("OpenFile with torn tail: %v", err)
	}
	defer s2.Close()
	if dev2.Load(0) != 1 {
		t.Fatalf("committed state lost: %d", dev2.Load(0))
	}
	if s2.Generation() != 1 {
		t.Fatalf("generation = %d, want 1 (torn group ignored)", s2.Generation())
	}
	// The torn tail must have been truncated: further commits and
	// reopens work.
	dev2.Store(5, 9)
	dev2.FlushAll()
	if _, err := s2.Commit(); err != nil {
		t.Fatalf("Commit after truncation: %v", err)
	}
	s2.Close()
	dev3 := newDev(1 << 10)
	s3, err := OpenFile(dev3, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s3.Close()
	if dev3.Load(5) != 9 {
		t.Fatal("post-truncation commit lost")
	}
}

func TestTornCommitRecordDiscarded(t *testing.T) {
	// Flip a bit inside the LAST commit record: that group must be
	// ignored, the previous generation preserved.
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(1 << 10)
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	dev.Store(0, 1)
	dev.FlushAll()
	s.Commit() // gen 1
	dev.Store(0, 2)
	dev.FlushAll()
	s.Commit() // gen 2
	s.Close()

	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff // corrupt the final checksum
	os.WriteFile(path, data, 0o644)

	dev2 := newDev(1 << 10)
	s2, err := OpenFile(dev2, path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer s2.Close()
	if dev2.Load(0) != 1 {
		t.Fatalf("value = %d, want gen-1's 1 (gen 2 was torn)", dev2.Load(0))
	}
	if s2.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", s2.Generation())
	}
}

func TestCompactFoldsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(1 << 10)
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		dev.Store(nvm.Addr(i*64), i+1)
		dev.FlushAll()
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.JournalWords() != 0 {
		t.Fatalf("journal = %d words after Compact", s.JournalWords())
	}
	s.Close()
	dev2 := newDev(1 << 10)
	s2, err := OpenFile(dev2, path)
	if err != nil {
		t.Fatalf("OpenFile after Compact: %v", err)
	}
	defer s2.Close()
	for i := uint64(0); i < 5; i++ {
		if dev2.Load(nvm.Addr(i*64)) != i+1 {
			t.Fatalf("value %d lost by Compact", i)
		}
	}
}

func TestAutoCompactBoundsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(1 << 10) // 1024 words: tiny, so compaction triggers fast
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		dev.Store(nvm.Addr(i%1024), uint64(i))
		dev.FlushAll()
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if s.JournalWords() > int64(1024) {
		t.Fatalf("journal grew unbounded: %d words", s.JournalWords())
	}
}

func TestOpenFileRejects(t *testing.T) {
	// create writes the file of a fresh words-word device.
	create := func(t *testing.T, words int) string {
		path := filepath.Join(t.TempDir(), "heap.fam")
		s, err := Create(newDev(words), path)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		return path
	}
	cases := []struct {
		name string
		file func(t *testing.T) string
		want error
	}{
		{"missing_file", func(t *testing.T) string {
			return filepath.Join(t.TempDir(), "missing")
		}, os.ErrNotExist},
		{"garbage", func(t *testing.T) string {
			path := filepath.Join(t.TempDir(), "bad")
			os.WriteFile(path, []byte("garbage bytes that are definitely not a famsync file"), 0o644)
			return path
		}, ErrBadFile},
		{"wrong_size", func(t *testing.T) string { return create(t, 128) }, ErrSizeMatch},
		{"truncated_base", func(t *testing.T) string {
			path := create(t, 64)
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)-16], 0o644)
			return path
		}, ErrBadFile},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := OpenFile(newDev(64), c.file(t)); !errors.Is(err, c.want) {
				t.Fatalf("OpenFile = %v, want %v", err, c.want)
			}
		})
	}
}

// A flipped byte in the base image fails its checksum: the journal's
// group checksums do not cover the base.
func TestOpenFileRejectsCorruptBase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(64)
	dev.Store(5, 42)
	dev.FlushAll()
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-9] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := OpenFile(newDev(64), path); !errors.Is(err, ErrBadFile) {
		t.Fatalf("OpenFile(corrupted base) = %v, want ErrBadFile", err)
	}
}

func TestCreateOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(64)
	for v := uint64(1); v <= 2; v++ {
		dev.Store(0, v)
		dev.FlushAll()
		s, err := Create(dev, path)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	dev2 := newDev(64)
	s2, err := OpenFile(dev2, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if dev2.Load(0) != 2 {
		t.Fatalf("second Create not visible: got %d", dev2.Load(0))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

// Create captures the PERSISTED image: a volatile-only store must not
// leak into the file.
func TestUnflushedStoreNotSaved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(64)
	dev.Store(0, 7) // never flushed
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	dev2 := newDev(64)
	s2, err := OpenFile(dev2, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if dev2.Load(0) != 0 {
		t.Fatal("unflushed store leaked into the file")
	}
}

// Loading an older file into a device that has since moved on and been
// flushed clean must roll every word back: OpenFile's Restart re-reads
// only dirty lines, so it relies on RestorePersisted marking what it
// replaced.
func TestLoadOlderSnapshotIntoFlushedDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.fam")
	dev := newDev(200)
	for a := nvm.Addr(0); a < 200; a += 3 {
		dev.Store(a, uint64(a)+1)
	}
	dev.FlushAll()
	old := dev.SnapshotPersisted()
	s, err := Create(dev, path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	s.Close()
	for a := nvm.Addr(0); a < 200; a += 2 {
		dev.Store(a, uint64(a)+1000)
	}
	dev.FlushAll()
	s2, err := OpenFile(dev, path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer s2.Close()
	for a := nvm.Addr(0); a < 200; a++ {
		if got := dev.Load(a); got != old[a] || dev.Persisted(a) != old[a] {
			t.Fatalf("word %d = %d (persisted %d) after OpenFile, want the file's %d", a, got, dev.Persisted(a), old[a])
		}
	}
	if n := dev.DirtyLines(); n != 0 {
		t.Fatalf("%d dirty lines after OpenFile", n)
	}
}

func TestClosedSyncerRejectsOperations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(64)
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after Close = %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

// A heap that survived a crash round-trips through the base image alone,
// with no journal group after it.
func TestHeapRoundTripsThroughBase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(1 << 12)
	heap, err := pheap.Format(dev)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := heap.Alloc(4)
	heap.Store(p, 0, 1234)
	heap.SetRoot(p)
	dev.CrashRescue()
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	dev2 := newDev(1 << 12)
	s2, err := OpenFile(dev2, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	heap2, err := pheap.Open(dev2)
	if err != nil {
		t.Fatalf("heap reopen: %v", err)
	}
	if got := heap2.Load(heap2.Root(), 0); got != 1234 {
		t.Fatalf("restored value = %d, want 1234", got)
	}
}

func TestWithPersistentHeap(t *testing.T) {
	// End-to-end: a persistent heap synced incrementally across a
	// simulated process restart.
	path := filepath.Join(t.TempDir(), "heap.fam")
	dev := newDev(1 << 12)
	heap, err := pheap.Format(dev)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := heap.Alloc(4)
	heap.Store(p, 0, 0xabcd)
	heap.SetRoot(p)
	dev.FlushAll()
	s, err := Create(dev, path)
	if err != nil {
		t.Fatal(err)
	}
	heap.Store(p, 1, 0xef01)
	dev.FlushAll()
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	dev2 := newDev(1 << 12)
	s2, err := OpenFile(dev2, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	heap2, err := pheap.Open(dev2)
	if err != nil {
		t.Fatalf("heap reopen: %v", err)
	}
	if heap2.Load(heap2.Root(), 0) != 0xabcd || heap2.Load(heap2.Root(), 1) != 0xef01 {
		t.Fatal("heap contents lost across famsync round trip")
	}
}

// Property: a sequence of random mutations + commits round-trips: a
// reopened device always equals the state at the LAST SEALED commit,
// regardless of unsynced mutations afterwards.
func TestQuickCommittedStateAlwaysRecovered(t *testing.T) {
	f := func(muts []uint16, extra []uint16) bool {
		dir, err := os.MkdirTemp("", "famsync")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "f")
		dev := newDev(256)
		s, err := Create(dev, path)
		if err != nil {
			return false
		}
		for _, m := range muts {
			dev.Store(nvm.Addr(m%256), uint64(m)+1)
		}
		dev.FlushAll()
		if _, err := s.Commit(); err != nil {
			return false
		}
		want := dev.SnapshotPersisted()
		// Post-commit mutations that never get committed.
		for _, m := range extra {
			dev.Store(nvm.Addr(m%256), uint64(m)+777)
		}
		dev.FlushAll()
		s.Close()

		dev2 := newDev(256)
		s2, err := OpenFile(dev2, path)
		if err != nil {
			return false
		}
		defer s2.Close()
		got := dev2.SnapshotPersisted()
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
