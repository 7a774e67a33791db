package atlas

import (
	"math"
	"math/rand"
	"testing"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// TestFirstStoreFilterMatchesMapOracle: the thread-owned table that
// filters first stores past dirtySliceMax appends exactly the undo
// records a Go map as the filter would — record for record, old values
// included — over random address streams per OCS that stay under the
// switchover or cross it and grow the table. Half way the stamp is moved
// a few sections short of its wrap, so the stamps after the wrap are
// ones the slots still carry from the first half. Every fifth section
// also allocates a block with Thread.Alloc and sends half its stores
// there: the oracle counts the block's words as stored already, so they
// append no record — on either side of the switchover, as the block may
// itself push the filter past it.
func TestFirstStoreFilterMatchesMapOracle(t *testing.T) {
	e := newEnv(t, ModeTSP, Options{LogEntries: 4096})
	th := e.thread(t)
	const words = 2048
	p := e.alloc(t, words)
	mu := e.rt.NewMutex()
	rng := rand.New(rand.NewSource(30))
	wrapped := false

	for sec := 0; sec < 80; sec++ {
		n, span := 1+rng.Intn(1500), 1+rng.Intn(words)
		switch {
		case sec == 0:
			n, span = 1500, words // the largest table, grown once
		case sec == 40:
			th.dirty.gen = math.MaxUint32 - 3
		case sec%4 == 0:
			n = 1 + rng.Intn(2*dirtySliceMax) // around the switchover
		}
		head := th.head
		var want []entry
		first := map[nvm.Addr]bool{}
		th.Lock(mu)
		var fresh pheap.Ptr
		fw := 0
		if sec%5 == 2 {
			fw = 1 + rng.Intn(2*dirtySliceMax)
			var err error
			if fresh, err = th.Alloc(fw); err != nil {
				t.Fatalf("section %d: Alloc(%d): %v", sec, fw, err)
			}
			for w := 0; w < fw; w++ {
				first[fresh.Addr()+nvm.Addr(w)] = true
			}
		}
		for i := 0; i < n; i++ {
			a := p.Addr() + nvm.Addr(rng.Intn(span))
			if fw > 0 && rng.Intn(2) == 0 {
				a = fresh.Addr() + nvm.Addr(rng.Intn(fw))
			}
			if !first[a] {
				first[a] = true
				want = append(want, entry{kind: entryStore, a: uint64(a), v: th.Load(a)})
			}
			th.Store(a, rng.Uint64())
		}
		th.Unlock(mu)
		wrapped = wrapped || th.dirty.gen < 8

		tal := e.dev.Tally()
		var got []entry
		for h := head; h < th.head; h++ {
			base := th.buf + nvm.Addr(h%e.rt.opts.LogEntries*entryWords)
			rec, ok := readEntry(&tal, base, th.id, e.rt.epoch)
			if !ok {
				t.Fatalf("section %d: record %d does not validate", sec, h-head)
			}
			if rec.kind == entryStore {
				got = append(got, entry{kind: rec.kind, a: rec.a, v: rec.v})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("section %d (%d stores over %d words): %d undo records, the map oracle %d", sec, n, span, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("section %d: undo record %d is %+v, the map oracle's %+v", sec, i, got[i], want[i])
			}
		}
	}
	if len(th.dirty.slots) <= 4*dirtySliceMax {
		t.Errorf("the table never grew past %d slots", len(th.dirty.slots))
	}
	if !wrapped {
		t.Errorf("the generation stamp never wrapped (now %d)", th.dirty.gen)
	}
}
