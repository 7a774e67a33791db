package nvm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: after any sequence of stores and flushes followed by a crash
// with full rescue, persisted == volatile for every word.
func TestQuickRescueEqualsVolatile(t *testing.T) {
	f := func(ops []uint32, seed int64) bool {
		d := NewDevice(Config{Words: 256})
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			a := Addr(op % 256)
			switch op % 3 {
			case 0:
				d.Store(a, uint64(rng.Int63()))
			case 1:
				d.Add(a, uint64(op))
			case 2:
				d.FlushWord(a)
			}
		}
		want := make([]uint64, 256)
		for a := Addr(0); a < 256; a++ {
			want[a] = d.Load(a)
		}
		d.CrashRescue()
		for a := Addr(0); a < 256; a++ {
			if d.Persisted(a) != want[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after a crash with no rescue, every persisted word holds a
// value that was either its initial zero or some value actually stored to
// it and flushed — never an invented value.
func TestQuickDropOnlyKeepsFlushedValues(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDevice(Config{Words: 64})
		// history[a] = set of values ever present at a.
		history := make([]map[uint64]bool, 64)
		for i := range history {
			history[i] = map[uint64]bool{0: true}
		}
		for i, op := range ops {
			a := Addr(op % 64)
			if op%2 == 0 {
				v := uint64(i + 1)
				d.Store(a, v)
				history[a][v] = true
			} else {
				d.FlushWord(a)
			}
		}
		d.CrashDrop()
		for a := Addr(0); a < 64; a++ {
			if !history[a][d.Persisted(a)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a flushed word survives a crash-drop with exactly the value
// it had when its line was last flushed, provided it was not re-stored
// afterwards.
func TestQuickFlushedValueSurvivesDrop(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		d := NewDevice(Config{Words: 8}) // a single line
		var last uint64
		for _, v := range vals {
			d.Store(0, v)
			last = v
		}
		d.FlushWord(0)
		d.CrashDrop()
		return d.Persisted(0) == last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Restart makes the volatile image identical to the persisted
// image regardless of prior history.
func TestQuickRestartEqualsPersisted(t *testing.T) {
	f := func(ops []uint16, frac float64, seed int64) bool {
		frac = math.Abs(frac)
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			frac = 0.5
		}
		frac -= math.Floor(frac)
		d := NewDevice(Config{Words: 64})
		for i, op := range ops {
			a := Addr(op % 64)
			if op%3 == 0 {
				d.FlushWord(a)
			} else {
				d.Store(a, uint64(i))
			}
		}
		d.CrashPartial(frac, seed)
		want := make([]uint64, 64)
		for a := Addr(0); a < 64; a++ {
			want[a] = d.Persisted(a)
		}
		d.Restart()
		for a := Addr(0); a < 64; a++ {
			if d.Load(a) != want[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
