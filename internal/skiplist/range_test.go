package skiplist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

func TestRangeBetweenBasic(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	for k := uint64(0); k < 100; k += 2 { // even keys only
		mustPut(t, l, k, k*10)
	}
	var got []uint64
	l.RangeBetween(10, 30, func(k, v uint64) bool {
		if v != k*10 {
			t.Fatalf("value for %d = %d", k, v)
		}
		got = append(got, k)
		return true
	})
	want := []uint64{10, 12, 14, 16, 18, 20, 22, 24, 26, 28}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRangeBetweenEmptyWindow(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	mustPut(t, l, 5, 1)
	n := 0
	l.RangeBetween(10, 10, func(_, _ uint64) bool { n++; return true })
	l.RangeBetween(20, 10, func(_, _ uint64) bool { n++; return true })
	l.RangeBetween(6, 9, func(_, _ uint64) bool { n++; return true })
	if n != 0 {
		t.Fatalf("empty windows visited %d keys", n)
	}
}

func TestRangeBetweenSkipsDeleted(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	for k := uint64(0); k < 20; k++ {
		mustPut(t, l, k, k)
	}
	for k := uint64(5); k < 10; k++ {
		if ok, _ := l.Delete(k); !ok {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	var got []uint64
	l.RangeBetween(0, 20, func(k, _ uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 15 {
		t.Fatalf("visited %d keys, want 15: %v", len(got), got)
	}
	for _, k := range got {
		if k >= 5 && k < 10 {
			t.Fatalf("deleted key %d visited", k)
		}
	}
}

func TestRangeBetweenEarlyStop(t *testing.T) {
	_, _, l := newList(t, 1<<16)
	for k := uint64(0); k < 50; k++ {
		mustPut(t, l, k, k)
	}
	n := 0
	l.RangeBetween(0, 50, func(_, _ uint64) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Property: RangeBetween agrees with filtering a model map, for random
// contents and windows.
func TestQuickRangeBetweenMatchesModel(t *testing.T) {
	f := func(raw []uint32, lo8, width uint8) bool {
		_, _, l := newListQuick()
		model := map[uint64]uint64{}
		for _, r := range raw {
			k := uint64(r) % 128
			if r%5 == 0 {
				l.Delete(k)
				delete(model, k)
			} else {
				if _, err := l.Put(k, uint64(r)); err != nil {
					return false
				}
				model[k] = uint64(r)
			}
		}
		lo := uint64(lo8) % 128
		hi := lo + uint64(width)%64
		got := map[uint64]uint64{}
		prev := int64(-1)
		ordered := true
		l.RangeBetween(lo, hi, func(k, v uint64) bool {
			if int64(k) <= prev {
				ordered = false
			}
			prev = int64(k)
			got[k] = v
			return true
		})
		if !ordered {
			return false
		}
		want := map[uint64]uint64{}
		for k, v := range model {
			if k >= lo && k < hi {
				want[k] = v
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// newListQuick builds a list without a *testing.T for quick properties.
func newListQuick() (*nvm.Device, *pheap.Heap, *List) {
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 16})
	heap, _ := pheap.Format(dev)
	l, _ := New(heap, 10)
	heap.SetRoot(l.Ptr())
	return dev, heap, l
}

// Benchmarks for the ordered-scan extension.
func BenchmarkRangeBetween(b *testing.B) {
	l := benchList(b, 1<<14)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(rng.Intn(1 << 14))
		n := 0
		l.RangeBetween(lo, lo+100, func(_, _ uint64) bool { n++; return true })
	}
}
