package nvm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// restartFullCopy is Restart as it was before it learned to trust the
// dirty bits: re-read every word, clear every bit. It is kept as the
// reference the dirty-line Restart is checked against.
func restartFullCopy(d *Device) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for w := range d.volatile {
		d.volatileStore(uint64(w), d.persistedLoad(uint64(w)))
	}
	for line := uint64(0); line < d.Lines(); line++ {
		d.setDirty(line, false)
	}
	if d.cfg.Evictor.Enabled() {
		d.evictor = newEvictor(d, d.cfg.Evictor)
	}
	d.armed.Store(0)
	d.armedOpts.Store(nil)
	d.crashed.Store(false)
}

// checkCleanLines asserts the clean-line invariant on a quiescent
// device: a line whose dirty bit is clear is identical in both images.
func checkCleanLines(t *testing.T, d *Device) {
	t.Helper()
	for line := uint64(0); line < d.Lines(); line++ {
		if d.lineDirty(line) {
			continue
		}
		lo, hi := d.lineSpan(line)
		for w := lo; w < hi; w++ {
			if v, p := d.volatile[w], d.persisted[w]; v != p {
				t.Fatalf("clean line %d: word %d is %d volatile, %d persisted", line, w, v, p)
			}
		}
	}
}

// checkRestarted asserts what every Restart must leave behind: both
// images equal word for word, nothing dirty, stores accepted.
func checkRestarted(t *testing.T, d *Device) {
	t.Helper()
	for w := range d.volatile {
		if v, p := d.volatile[w], d.persisted[w]; v != p {
			t.Fatalf("after Restart word %d is %d volatile, %d persisted", w, v, p)
		}
	}
	if n := d.DirtyLines(); n != 0 {
		t.Fatalf("after Restart %d lines are dirty", n)
	}
	if d.Crashed() {
		t.Fatal("after Restart the device still reads as crashed")
	}
}

// randomOps drives the same seeded mix of stores, block stores, CASes,
// flushes and evictor sweeps into every device given.
func randomOps(rng *rand.Rand, n int, devs ...*Device) {
	words := devs[0].Words()
	lineWords := uint64(devs[0].cfg.LineWords)
	for i := 0; i < n; i++ {
		a := Addr(rng.Uint64() % words)
		v := rng.Uint64()
		switch op := rng.Intn(10); {
		case op < 4:
			for _, d := range devs {
				d.Store(a, v)
			}
		case op < 6:
			// A burst from a to at most the end of a's line.
			room := lineWords - uint64(a)%lineWords
			if left := words - uint64(a); left < room {
				room = left
			}
			vals := make([]uint64, 1+rng.Uint64()%room)
			for j := range vals {
				vals[j] = rng.Uint64()
			}
			for _, d := range devs {
				d.StoreBlock(a, vals)
			}
		case op < 7:
			for _, d := range devs {
				d.CAS(a, d.Load(a), v)
			}
		case op < 9:
			for _, d := range devs {
				d.FlushWord(a)
			}
		default:
			for _, d := range devs {
				d.evictor.sweep()
			}
		}
	}
}

// TestRestartMatchesFullCopy is the property the dirty-line Restart
// rests on: after any history of stores, flushes and evictions and a
// crash of any rescue fraction, reverting only the dirty lines leaves
// exactly the device a full copy of the persisted image would.
func TestRestartMatchesFullCopy(t *testing.T) {
	// 1003 words: the last line is short.
	cfg := Config{Words: 1003, Evictor: EvictorConfig{Interval: time.Hour, LinesPerSweep: 5}}
	for _, frac := range []float64{0, 0.3, 1} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("rescue=%v/seed=%d", frac, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				got, ref := NewDevice(cfg), NewDevice(cfg)
				// Three incarnations, so a Restart's own leftovers (its
				// cleared bits, its re-read lines) are the next one's input.
				for round := 0; round < 3; round++ {
					randomOps(rng, 400, got, ref)
					checkCleanLines(t, got)
					opts := CrashOptions{RescueFraction: frac, Seed: seed + int64(round)}
					got.Crash(opts)
					ref.Crash(opts)
					checkCleanLines(t, got)
					if frac == 1 && got.DirtyLines() != 0 {
						t.Fatalf("a full rescue left %d dirty lines for Restart to copy", got.DirtyLines())
					}
					got.Restart()
					restartFullCopy(ref)
					checkRestarted(t, got)
					for w := range got.volatile {
						if got.volatile[w] != ref.volatile[w] || got.persisted[w] != ref.persisted[w] {
							t.Fatalf("round %d word %d: dirty-line Restart has %d/%d (volatile/persisted), full copy has %d/%d",
								round, w, got.volatile[w], got.persisted[w], ref.volatile[w], ref.persisted[w])
						}
					}
				}
			})
		}
	}
}

func TestRestartWithoutCrashDiscardsUnflushedState(t *testing.T) {
	d := NewDevice(Config{Words: 64})
	d.Store(0, 1)
	d.Store(9, 2)
	d.FlushWord(9)
	d.Store(10, 3) // same line as 9, after its flush
	d.Store(63, 4)
	d.Restart()
	checkRestarted(t, d)
	for a, want := range map[Addr]uint64{0: 0, 9: 2, 10: 0, 63: 0} {
		if got := d.Load(a); got != want {
			t.Fatalf("word %d = %d after Restart, want %d", a, got, want)
		}
	}
	d.Store(0, 5)
	if !d.LineDirty(0) || d.Load(0) != 5 {
		t.Fatal("restarted device does not accept stores")
	}
}

// RestorePersisted is the one writer of the persisted image that is not
// a flush. A device that was flushed clean (no dirty line anywhere) and
// then had an older image restored must read that image after Restart.
func TestRestorePersistedThenRestartReadsRestoredImage(t *testing.T) {
	d := NewDevice(Config{Words: 100})
	for a := Addr(0); a < 100; a += 3 {
		d.Store(a, uint64(a)+1)
	}
	d.FlushAll()
	old := d.SnapshotPersisted()
	for a := Addr(0); a < 100; a += 2 {
		d.Store(a, uint64(a)+1000)
	}
	d.FlushAll()
	if err := d.RestorePersisted(old); err != nil {
		t.Fatal(err)
	}
	checkCleanLines(t, d)
	d.Restart()
	checkRestarted(t, d)
	for a := Addr(0); a < 100; a++ {
		if got := d.Load(a); got != old[a] {
			t.Fatalf("word %d = %d after RestorePersisted+Restart, want the restored %d", a, got, old[a])
		}
	}
}

// The clean-line invariant is a race property: stores, explicit flushes
// and the evictor's sweeps all hit the same lines at once, and whatever
// interleaving the scheduler picks, a line left clean must be identical
// in both images once they have all stopped.
func TestCleanLineInvariantUnderRacingFlushers(t *testing.T) {
	d := NewDevice(Config{Words: 64, Evictor: EvictorConfig{Interval: time.Hour, LinesPerSweep: 8}})
	const rounds = 20000
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				fn(i)
			}
		}()
	}
	run(func(i int) { d.Store(Addr(i%64), uint64(i)) })
	run(func(i int) { d.CAS(Addr(i*7%64), d.Load(Addr(i*7%64)), uint64(i)<<32) })
	run(func(i int) { d.FlushWord(Addr(i * 5 % 64)) })
	run(func(i int) { d.FlushRange(0, 64) })
	run(func(i int) { d.evictor.sweep() })
	wg.Wait()
	checkCleanLines(t, d)
	d.CrashPartial(0.5, 1)
	d.Restart()
	checkRestarted(t, d)
}

func TestLoadBlock(t *testing.T) {
	d := NewDevice(Config{Words: 100, MissCost: 1})
	for a := Addr(0); a < 100; a++ {
		d.Store(a, uint64(a)*3)
	}
	before := d.Stats().Loads
	got := make([]uint64, 30)
	d.LoadBlock(65, got) // spans five lines, ends mid-line
	for i, v := range got {
		if want := uint64(65+i) * 3; v != want {
			t.Fatalf("LoadBlock word %d = %d, want %d", 65+i, v, want)
		}
	}
	if n := d.Stats().Loads - before; n != 30 {
		t.Fatalf("LoadBlock of 30 words counted %d loads", n)
	}
	d.LoadBlock(99, got[:1])
	d.LoadBlock(100, nil) // empty reads touch nothing, wherever they point
	for _, bad := range []struct {
		a Addr
		n int
	}{{99, 2}, {100, 1}, {1 << 40, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LoadBlock(%d, %d words) on a 100-word device did not panic", bad.a, bad.n)
				}
			}()
			d.LoadBlock(bad.a, make([]uint64, bad.n))
		}()
	}
}
