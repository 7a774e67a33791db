package hashmap

import (
	"math/rand"
	"slices"
	"testing"

	"tsp/internal/atlas"
)

// TestBucketAndStripeLayout: bucketOf masks and StripeOf shifts on
// power-of-two shapes and both divide on the rest, and on every shape
// they equal the modulo and division forms the map has always used — a
// persisted key's bucket never moves. The literals pin a few keys on the
// cache server's default shape (16384 buckets, 1024 a stripe), on the
// 4096-bucket shape it served before (a key's bucket there is its
// 16384-bucket one mod 4096) and on WithBuckets(1000, 7).
func TestBucketAndStripeLayout(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 1, 1)
	keys := []uint64{0, 1, 42, 1 << 40, ^uint64(0)}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 500; i++ {
		keys = append(keys, rng.Uint64())
	}
	for _, shape := range [][2]int{{16384, 1024}, {4096, 256}, {1024, 1}, {64, 8}, {1, 1}, {1000, 7}, {4096, 1000}, {1000, 256}, {97, 97}} {
		n, stride := shape[0], shape[1]
		m, err := New(e.rt, n, stride)
		if err != nil {
			t.Fatalf("New(%d, %d): %v", n, stride, err)
		}
		for _, k := range keys {
			b := int(mix64(k) % uint64(n))
			if got := m.bucketOf(k); got != b {
				t.Fatalf("%d buckets: bucketOf(%d) = %d, want %d", n, k, got, b)
			}
			if got := m.StripeOf(k); got != b/stride {
				t.Fatalf("%d buckets, %d a stripe: StripeOf(%d) = %d, want %d", n, stride, k, got, b/stride)
			}
		}
	}

	for _, shape := range []struct {
		n, stride int
		bucket    [5]int
	}{
		{16384, 1024, [5]int{0, 1509, 13858, 13304, 15739}},
		{4096, 256, [5]int{0, 1509, 1570, 1016, 3451}},
		{1000, 7, [5]int{0, 789, 962, 568, 67}},
	} {
		m, err := New(e.rt, shape.n, shape.stride)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for i, k := range keys[:5] {
			if got := m.bucketOf(k); got != shape.bucket[i] {
				t.Errorf("%d buckets: key %d moved to bucket %d, was %d", shape.n, k, got, shape.bucket[i])
			}
		}
	}
}

// TestStripeSetSortsAndDedups: for any group of keys the stripe bitset
// walks exactly the sorted, deduplicated list of their stripes — the
// seqlock bracket's order — and is empty again after, on the cache
// server's default shape (16384 buckets, 1024 a stripe: 16 stripes, one
// word) and on WithBuckets(1000, 7) (143 stripes over three words).
func TestStripeSetSortsAndDedups(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 1, 1)
	rng := rand.New(rand.NewSource(30))
	for _, shape := range [][2]int{{16384, 1024}, {1000, 7}} {
		m, err := New(e.rt, shape[0], shape[1])
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var set StripeSet
		for g := 0; g < 300; g++ {
			var want []int
			for n := rng.Intn(80); n > 0; n-- {
				st := m.StripeOf(rng.Uint64())
				want = append(want, st)
				set.Add(st)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if got := set.Sorted(); !slices.Equal(got, want) {
				t.Fatalf("%d stripes, group %d: bitset walked %v, want %v", m.Mutexes(), g, got, want)
			}
			if again := set.Sorted(); len(again) != 0 {
				t.Fatalf("%d stripes: an emptied set still holds %v", m.Mutexes(), again)
			}
		}
	}
}
