package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "heap.tsp")

	dev := nvm.NewDevice(nvm.Config{Words: 1 << 12})
	heap, _ := pheap.Format(dev)
	p, _ := heap.Alloc(4)
	heap.Store(p, 0, 1234)
	heap.SetRoot(p)
	dev.CrashRescue()

	if err := Save(dev, path); err != nil {
		t.Fatalf("Save: %v", err)
	}

	dev2 := nvm.NewDevice(nvm.Config{Words: 1 << 12})
	if err := Load(dev2, path); err != nil {
		t.Fatalf("Load: %v", err)
	}
	heap2, err := pheap.Open(dev2)
	if err != nil {
		t.Fatalf("Open restored heap: %v", err)
	}
	if got := heap2.Load(heap2.Root(), 0); got != 1234 {
		t.Fatalf("restored value = %d, want 1234", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	dev := nvm.NewDevice(nvm.Config{Words: 64})
	if err := Load(dev, filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not a snapshot at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	dev := nvm.NewDevice(nvm.Config{Words: 64})
	if err := Load(dev, path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Load(garbage) = %v, want ErrBadSnapshot", err)
	}
}

func TestLoadRejectsWrongSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	dev := nvm.NewDevice(nvm.Config{Words: 128})
	dev.Store(0, 1)
	dev.FlushAll()
	if err := Save(dev, path); err != nil {
		t.Fatal(err)
	}
	small := nvm.NewDevice(nvm.Config{Words: 64})
	if err := Load(small, path); !errors.Is(err, ErrSizeChanged) {
		t.Fatalf("Load into wrong-size device = %v, want ErrSizeChanged", err)
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	dev := nvm.NewDevice(nvm.Config{Words: 64})
	dev.Store(5, 42)
	dev.FlushAll()
	if err := Save(dev, path); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the image body.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-9] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dev2 := nvm.NewDevice(nvm.Config{Words: 64})
	if err := Load(dev2, path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Load(corrupted) = %v, want ErrChecksum", err)
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	dev := nvm.NewDevice(nvm.Config{Words: 64})
	dev.FlushAll()
	if err := Save(dev, path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-16], 0o644); err != nil {
		t.Fatal(err)
	}
	dev2 := nvm.NewDevice(nvm.Config{Words: 64})
	if err := Load(dev2, path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Load(truncated) = %v, want ErrBadSnapshot", err)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	dev := nvm.NewDevice(nvm.Config{Words: 64})
	dev.Store(0, 1)
	dev.FlushAll()
	if err := Save(dev, path); err != nil {
		t.Fatal(err)
	}
	dev.Store(0, 2)
	dev.FlushAll()
	if err := Save(dev, path); err != nil {
		t.Fatal(err)
	}
	dev2 := nvm.NewDevice(nvm.Config{Words: 64})
	if err := Load(dev2, path); err != nil {
		t.Fatal(err)
	}
	if dev2.Load(0) != 2 {
		t.Fatalf("second save not visible: got %d", dev2.Load(0))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

func TestExists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	if Exists(path) {
		t.Fatal("Exists on missing file")
	}
	dev := nvm.NewDevice(nvm.Config{Words: 64})
	if err := Save(dev, path); err != nil {
		t.Fatal(err)
	}
	if !Exists(path) {
		t.Fatal("Exists on present file")
	}
}

func TestUnflushedStateNotSaved(t *testing.T) {
	// Save captures the PERSISTED image: volatile-only stores must not
	// leak into the snapshot.
	path := filepath.Join(t.TempDir(), "snap")
	dev := nvm.NewDevice(nvm.Config{Words: 64})
	dev.Store(0, 7) // never flushed
	if err := Save(dev, path); err != nil {
		t.Fatal(err)
	}
	dev2 := nvm.NewDevice(nvm.Config{Words: 64})
	if err := Load(dev2, path); err != nil {
		t.Fatal(err)
	}
	if dev2.Load(0) != 0 {
		t.Fatal("unflushed store leaked into the snapshot")
	}
}

// Loading an older snapshot into a device that has since moved on and
// been flushed clean must roll every word back: Load's Restart re-reads
// only dirty lines, so it relies on RestorePersisted marking what it
// replaced.
func TestLoadOlderSnapshotIntoFlushedDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.tsp")
	dev := nvm.NewDevice(nvm.Config{Words: 200})
	for a := nvm.Addr(0); a < 200; a += 3 {
		dev.Store(a, uint64(a)+1)
	}
	dev.FlushAll()
	old := dev.SnapshotPersisted()
	if err := Save(dev, path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for a := nvm.Addr(0); a < 200; a += 2 {
		dev.Store(a, uint64(a)+1000)
	}
	dev.FlushAll()
	if err := Load(dev, path); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for a := nvm.Addr(0); a < 200; a++ {
		if got := dev.Load(a); got != old[a] || dev.Persisted(a) != old[a] {
			t.Fatalf("word %d = %d (persisted %d) after Load, want the snapshot's %d", a, got, dev.Persisted(a), old[a])
		}
	}
	if n := dev.DirtyLines(); n != 0 {
		t.Fatalf("%d dirty lines after Load", n)
	}
}
