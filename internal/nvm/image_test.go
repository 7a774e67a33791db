package nvm

import (
	"maps"
	"sync"
	"testing"
)

// TestImageCutMatchesReplay is the crash image's oracle: a line cut at
// boundary j holds exactly what a plain map holds after replaying, onto
// the line's persisted content, the first j store-class operations
// recorded on it since its last write-back. Line 0 is written back
// mid-history, so its boundaries start after the flush; line 1 was
// dirty before the crash was armed, so its first boundary is the
// content arming found.
func TestImageCutMatchesReplay(t *testing.T) {
	type op struct {
		a    Addr
		vals []uint64 // a Store, a StoreBlock, or (for op cas) the new value
		cas  bool
	}
	pre := op{a: 9, vals: []uint64{7}} // before arming
	ops := []op{
		{a: 1, vals: []uint64{11}},
		{a: 3, vals: []uint64{12, 13}},
		{a: 9, vals: []uint64{21}},
		{a: 1, vals: []uint64{14}, cas: true},
		{a: 0, vals: []uint64{18}}, // then line 0 is flushed
		{a: 2, vals: []uint64{15}},
		{a: 10, vals: []uint64{22, 23}},
		{a: 1, vals: []uint64{16}, cas: true},
		{a: 7, vals: []uint64{17}},
		{a: 9, vals: []uint64{24}, cas: true},
	}
	const flushAfter = 5 // ops[:5] are written back with line 0
	apply := func(d *Device, m map[Addr]uint64, o op) {
		switch {
		case d == nil:
		case o.cas:
			d.CAS(o.a, d.Load(o.a), o.vals[0])
		case len(o.vals) == 1:
			d.Store(o.a, o.vals[0])
		default:
			d.StoreBlock(o.a, o.vals)
		}
		for i, v := range o.vals {
			m[o.a+Addr(i)] = v
		}
	}
	// cut serves the history to a fresh device and crashes it with line
	// cut at j and every other line dropped.
	cut := func(line uint64, j int) (*Device, int) {
		d := NewDevice(Config{Words: 32})
		apply(d, map[Addr]uint64{}, pre)
		d.ArmCrashAfter(1<<40, CrashOptions{})
		for i, o := range ops {
			apply(d, map[Addr]uint64{}, o)
			if i == flushAfter-1 {
				d.FlushWord(0)
			}
		}
		stores := -1
		d.Crash(CrashOptions{Keep: func(l uint64, n int) int {
			if l != line {
				return 0
			}
			stores = n
			return min(j, n)
		}})
		return d, stores
	}
	for _, tc := range []struct {
		line   uint64
		stores int
		replay func(j int) map[Addr]uint64 // the line after j boundaries
	}{
		{0, 3, func(j int) map[Addr]uint64 {
			m := map[Addr]uint64{}
			for i, o := range ops {
				switch {
				case o.a >= 8:
				case i < flushAfter: // written back by the flush
					apply(nil, m, o)
				case j > 0:
					apply(nil, m, o)
					j--
				}
			}
			return m
		}},
		{1, 4, func(j int) map[Addr]uint64 {
			m := map[Addr]uint64{}
			if j > 0 {
				apply(nil, m, pre)
				j--
			}
			for _, o := range ops {
				if o.a >= 8 && j > 0 {
					apply(nil, m, o)
					j--
				}
			}
			return m
		}},
	} {
		for j := 0; j <= tc.stores; j++ {
			d, stores := cut(tc.line, j)
			if stores != tc.stores {
				t.Fatalf("line %d has %d store boundaries, want %d", tc.line, stores, tc.stores)
			}
			got := map[Addr]uint64{}
			for a := Addr(tc.line * 8); a < Addr(tc.line*8+8); a++ {
				if v := d.Persisted(a); v != 0 {
					got[a] = v
				}
			}
			if want := tc.replay(j); !maps.Equal(got, want) {
				t.Fatalf("line %d cut at %d persists %v, replay has %v", tc.line, j, got, want)
			}
			if d.LineDirty(Addr(tc.line*8)) != (j < tc.stores) {
				t.Fatalf("line %d cut at %d of %d: dirty = %v", tc.line, j, tc.stores, !(j < tc.stores))
			}
			d.Restart()
			checkRestarted(t, d)
		}
	}
}

// A crash image taken under racing writers and a flusher persists, for
// each word, a value the word held: each writer owns its words and
// stores increasing values, so no persisted word may pass the final
// volatile one. The record path runs under the race detector here.
func TestImageUnderConcurrentWriters(t *testing.T) {
	d := NewDevice(Config{Words: 1 << 10})
	d.ArmCrashAfter(1<<40, CrashOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 5000; i++ {
				d.Store(Addr((i*4+g)%(1<<10)), uint64(i))
				if g == 0 && i%64 == 0 {
					d.FlushRange(0, 1<<9)
				}
			}
		}()
	}
	wg.Wait()
	final := make([]uint64, 1<<10)
	for a := range final {
		final[a] = d.Load(Addr(a))
	}
	cuts := 0
	d.Crash(CrashOptions{Keep: func(_ uint64, stores int) int {
		if stores > 1 {
			cuts++
		}
		return stores / 2
	}})
	if cuts == 0 {
		t.Fatal("no dirty line had a recorded history to cut")
	}
	for a, v := range final {
		if p := d.Persisted(Addr(a)); p > v {
			t.Fatalf("word %d persists %d, past its final value %d", a, p, v)
		}
	}
	d.Restart()
	checkRestarted(t, d)
}

// StopEvictor is a no-op kept for the benchmark's replay: any number of
// calls, on any device, change nothing.
func TestStopEvictorNeverStarted(t *testing.T) {
	d := NewDevice(Config{Words: 16})
	d.Store(0, 1)
	d.StopEvictor()
	if !d.LineDirty(0) || d.Persisted(0) != 0 {
		t.Fatal("StopEvictor wrote a line back")
	}
}

func TestStopEvictorIdempotent(t *testing.T) {
	d := NewDevice(Config{Words: 16})
	d.StopEvictor()
	d.StopEvictor()
	d.CrashRescue()
	d.StopEvictor()
	d.Restart()
	checkRestarted(t, d)
}
