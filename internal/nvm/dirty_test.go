package nvm

import (
	"fmt"
	"math/rand"
	"testing"
)

// flagDevice is the device as it was before the dirty set became a
// bitmap, reduced to what the dirty set decides: two images and one
// flag per line, every walk a scan of all the flags in line order. The
// bitmap device is checked against it step by step.
type flagDevice struct {
	lineWords           int
	volatile, persisted []uint64
	dirty               []bool
	crashed             bool
}

func newFlagDevice(words, lineWords int) *flagDevice {
	return &flagDevice{
		lineWords: lineWords,
		volatile:  make([]uint64, words),
		persisted: make([]uint64, words),
		dirty:     make([]bool, (words+lineWords-1)/lineWords),
	}
}

func (f *flagDevice) store(a Addr, vals ...uint64) {
	if f.crashed {
		return
	}
	copy(f.volatile[a:], vals)
	f.dirty[int(a)/f.lineWords] = true
}

func (f *flagDevice) cas(a Addr, old, new uint64) {
	if !f.crashed && f.volatile[a] == old {
		f.store(a, new)
	}
}

func (f *flagDevice) flushLine(line int) {
	lo := line * f.lineWords
	hi := min(lo+f.lineWords, len(f.volatile))
	copy(f.persisted[lo:hi], f.volatile[lo:hi])
	f.dirty[line] = false
}

func (f *flagDevice) flushAll() {
	for line, d := range f.dirty {
		if d {
			f.flushLine(line)
		}
	}
}

// crashPartial returns the lines the rescue chose: one draw per dirty
// line, in line order.
func (f *flagDevice) crashPartial(frac float64, seed int64) (rescued []uint64) {
	f.crashed = true
	rng := rand.New(rand.NewSource(seed))
	for line, d := range f.dirty {
		if d && rng.Float64() < frac {
			f.flushLine(line)
			rescued = append(rescued, uint64(line))
		}
	}
	return rescued
}

func (f *flagDevice) restart() {
	for line, d := range f.dirty {
		if d {
			lo := line * f.lineWords
			hi := min(lo+f.lineWords, len(f.volatile))
			copy(f.volatile[lo:hi], f.persisted[lo:hi])
			f.dirty[line] = false
		}
	}
	f.crashed = false
}

// dirtySet reads the device's dirty set three ways — bit by bit, by the
// walk every flusher uses, and by the gauge — and fails if they disagree.
func dirtySet(t *testing.T, d *Device) []uint64 {
	t.Helper()
	var byBit, byWalk []uint64
	for line := uint64(0); line < d.Lines(); line++ {
		if d.lineDirty(line) {
			byBit = append(byBit, line)
		}
	}
	for line := d.nextDirty(0); line < d.Lines(); line = d.nextDirty(line + 1) {
		byWalk = append(byWalk, line)
	}
	if fmt.Sprint(byBit) != fmt.Sprint(byWalk) {
		t.Fatalf("dirty bits %v, but the walk visits %v", byBit, byWalk)
	}
	if n := d.DirtyLines(); n != uint64(len(byBit)) {
		t.Fatalf("DirtyLines() = %d with %d bits set", n, len(byBit))
	}
	if tail := d.Lines() & 63; tail != 0 && d.dirty[len(d.dirty)-1]>>tail != 0 {
		t.Fatalf("a bit past the last line (%d) is set: %#x", d.Lines(), d.dirty[len(d.dirty)-1])
	}
	return byBit
}

// TestDirtyBitmapMatchesFlagPerLine runs one seeded history of stores,
// block stores, CASes, flushes, partial-rescue crashes and restarts on
// the device and on the flag-per-line reference, and compares the dirty
// set, both images and the lines each crash rescued after every step.
func TestDirtyBitmapMatchesFlagPerLine(t *testing.T) {
	for _, cfg := range []Config{
		{Words: 1024, LineWords: 8},        // 128 lines: two full words of bits
		{Words: 1003, LineWords: 8},        // short last line, 126 lines
		{Words: 16 * 70, LineWords: 16},    // 70 lines: not a multiple of 64
		{Words: 16*200 + 5, LineWords: 16}, // both
		{Words: 40, LineWords: 8},          // fewer lines than one word of bits
	} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("words=%d/line=%d/seed=%d", cfg.Words, cfg.LineWords, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				d, ref := NewDevice(cfg), newFlagDevice(cfg.Words, cfg.LineWords)
				lineWords := uint64(cfg.LineWords)
				for step := 0; step < 3000; step++ {
					a := Addr(rng.Uint64() % uint64(cfg.Words))
					v := rng.Uint64()
					var rescued, wantRescued []uint64
					switch op := rng.Intn(100); {
					case op < 40:
						d.Store(a, v)
						ref.store(a, v)
					case op < 55:
						room := min(lineWords-uint64(a)%lineWords, uint64(cfg.Words)-uint64(a))
						vals := make([]uint64, 1+rng.Uint64()%room)
						for j := range vals {
							vals[j] = rng.Uint64()
						}
						d.StoreBlock(a, vals)
						ref.store(a, vals...)
					case op < 65:
						old := ref.volatile[a] + uint64(rng.Intn(2)) // fails half the time
						d.CAS(a, old, v)
						ref.cas(a, old, v)
					case op < 90:
						d.FlushWord(a)
						ref.flushLine(int(uint64(a) / lineWords))
					case op < 94:
						d.FlushAll()
						ref.flushAll()
					case op < 98:
						if d.Crashed() {
							continue // Crash on a crashed device is a no-op
						}
						before := dirtySet(t, d)
						frac := []float64{0, 0.3, 0.7, 1}[rng.Intn(4)]
						d.CrashPartial(frac, int64(v>>1))
						wantRescued = ref.crashPartial(frac, int64(v>>1))
						after := map[uint64]bool{}
						for _, line := range dirtySet(t, d) {
							after[line] = true
						}
						for _, line := range before {
							if !after[line] {
								rescued = append(rescued, line)
							}
						}
					default:
						d.Restart()
						ref.restart()
					}
					if fmt.Sprint(rescued) != fmt.Sprint(wantRescued) {
						t.Fatalf("step %d: crash rescued lines %v, reference rescued %v", step, rescued, wantRescued)
					}
					var want []uint64
					for line, dirty := range ref.dirty {
						if dirty {
							want = append(want, uint64(line))
						}
					}
					if got := dirtySet(t, d); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: dirty set %v, reference %v", step, got, want)
					}
					for w := range ref.volatile {
						if d.volatile[w] != ref.volatile[w] || d.persisted[w] != ref.persisted[w] {
							t.Fatalf("step %d word %d: device has %d/%d (volatile/persisted), reference %d/%d",
								step, w, d.volatile[w], d.persisted[w], ref.volatile[w], ref.persisted[w])
						}
					}
				}
			})
		}
	}
}
