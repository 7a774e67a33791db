package nvm

import (
	"sync"
	"testing"
)

// TestPersistedPageNeverWrittenReadsZero: the persisted image holds no
// page until a write-back reaches it, and every word of an absent page
// reads zero — to Persisted, to a crash that drops the dirty lines and
// to the Restart that re-reads them.
func TestPersistedPageNeverWrittenReadsZero(t *testing.T) {
	d := NewDevice(Config{Words: 4 * pageWords})
	for a := Addr(0); a < 4*pageWords; a += 97 {
		if v := d.Persisted(a); v != 0 {
			t.Fatalf("fresh device: persisted word %d = %d", a, v)
		}
	}
	d.Store(5, 50)
	d.FlushWord(5)
	d.Store(2*pageWords+3, 7) // dirty, never written back
	for p := range d.persisted {
		if got, want := d.persisted[p].Load() != nil, p == 0; got != want {
			t.Fatalf("page %d allocated = %v, want %v", p, got, want)
		}
	}
	if v := d.Persisted(5); v != 50 {
		t.Fatalf("written-back word = %d, want 50", v)
	}
	d.CrashDrop()
	d.Restart()
	if v := d.Load(2*pageWords + 3); v != 0 {
		t.Fatalf("after a dropped crash the unwritten page's word reads %d", v)
	}
	if d.persisted[2].Load() != nil {
		t.Fatal("Restart allocated the page it only read")
	}
}

// TestUntouched: Untouched(from) is true exactly while nothing at or
// above from can read nonzero — a dirty line or a nonzero persisted
// word there makes it false, whatever lies below from.
func TestUntouched(t *testing.T) {
	from := Addr(pageWords + 16)
	d := NewDevice(Config{Words: 4 * pageWords})
	check := func(step string, want bool) {
		t.Helper()
		if got := d.Untouched(from); got != want {
			t.Fatalf("%s: Untouched = %v, want %v", step, got, want)
		}
	}
	check("fresh", true)
	d.Store(from-1, 9) // below from, in its page
	d.FlushAll()
	check("a written-back word below from", true)
	d.Store(3*pageWords, 0)
	check("a dirty line above from", false)
	d.FlushAll()
	check("a written-back zero above from", true)
	d.Store(from, 1)
	d.CrashDrop()
	d.Restart()
	check("a store the crash dropped", true)
	d.Store(from+8, 1)
	d.FlushAll()
	check("a written-back one above from", false)
}

// TestRacingFirstWriteBacksShareOnePage: goroutines storing to and
// flushing their own words of one page not yet allocated, the words of
// a line shared by all of them, all land in the same page: every value
// persists. Run under -race it
// is also the check that the page's allocation is race-clean.
func TestRacingFirstWriteBacksShareOnePage(t *testing.T) {
	const writers = 8
	d := NewDevice(Config{Words: 2 * pageWords})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				a := Addr(pageWords + i*writers + g)
				d.Store(a, uint64(g+1))
				d.FlushWord(a)
			}
		}()
	}
	wg.Wait()
	for g := 0; g < writers; g++ {
		for i := 0; i < 16; i++ {
			a := Addr(pageWords + i*writers + g)
			if v := d.Persisted(a); v != uint64(g+1) {
				t.Fatalf("writer %d's word %d persisted %d", g, a, v)
			}
		}
	}
	if d.persisted[0].Load() != nil || d.persisted[1].Load() == nil {
		t.Fatal("the writers' write-backs allocated the wrong pages")
	}
}
