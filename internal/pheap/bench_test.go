package pheap

import (
	"testing"

	"tsp/internal/nvm"
)

func benchHeap(b *testing.B, words int) *Heap {
	b.Helper()
	h, err := Format(nvm.NewDevice(nvm.Config{Words: words}))
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func BenchmarkAllocFreePair(b *testing.B) {
	h := benchHeap(b, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := h.Alloc(4)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocVaried(b *testing.B) {
	h := benchHeap(b, 1<<22)
	sizes := []int{1, 3, 8, 17, 64}
	var live []Ptr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := h.Alloc(sizes[i%len(sizes)])
		if err != nil {
			b.StopTimer()
			for _, q := range live {
				h.Free(q)
			}
			live = live[:0]
			b.StartTimer()
			continue
		}
		live = append(live, p)
	}
}

func BenchmarkStoreLoad(b *testing.B) {
	h := benchHeap(b, 1<<16)
	p, _ := h.Alloc(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Store(p, i&7, uint64(i))
		_ = h.Load(p, i&7)
	}
}

// BenchmarkGC times one collection. "list" is 1000 reachable list nodes
// interleaved with 1000 garbage blocks. "shard" is shaped like one
// served cache-server shard at recovery: 16 384 four-word entries
// chained off a 16 384-bucket array at the root, a 16 384-word log ring
// at an auxiliary root, and the handful of blocks a crash leaks, the
// heap reopened untimed, so the collection takes Open's chain walk.
func BenchmarkGC(b *testing.B) {
	b.Run("list=1000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := benchHeap(b, 1<<18)
			var head Ptr
			for j := 0; j < 1000; j++ {
				p, err := h.Alloc(2)
				if err != nil {
					b.Fatal(err)
				}
				h.Store(p, 0, uint64(head))
				head = p
				if _, err := h.Alloc(2); err != nil { // garbage
					b.Fatal(err)
				}
			}
			h.SetRoot(head)
			b.StartTimer()
			rep, err := h.GC()
			if err != nil {
				b.Fatal(err)
			}
			if rep.BlocksFreed != 1000 {
				b.Fatalf("freed %d, want 1000", rep.BlocksFreed)
			}
		}
	})
	b.Run("shard=16384", func(b *testing.B) {
		const (
			buckets = 16384
			entries = 16384
			leaked  = 16
		)
		h := benchHeap(b, 1<<20)
		alloc := func(words int) Ptr {
			p, err := h.Alloc(words)
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
		table := alloc(buckets)
		h.SetRoot(table)
		h.SetAux(0, alloc(4*4096+4))
		for k := 0; k < entries; k++ {
			n := alloc(4)
			h.Store(n, 0, uint64(k))
			h.Store(n, 1, uint64(k)+1)
			h.Store(n, 3, h.Load(table, k%buckets))
			h.Store(table, k%buckets, uint64(n))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := 0; j < leaked; j++ {
				alloc(4)
			}
			dev := h.Device()
			dev.CrashRescue()
			dev.Restart()
			var err error
			if h, err = Open(dev); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			rep, err := h.GC()
			if err != nil {
				b.Fatal(err)
			}
			if rep.BlocksFreed != leaked || rep.BlocksMarked != entries+2 {
				b.Fatalf("GC = %+v, want %d marked and %d freed", rep, entries+2, leaked)
			}
		}
	})
}

func BenchmarkOpenRebuild(b *testing.B) {
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 18})
	h, _ := Format(dev)
	for j := 0; j < 2000; j++ {
		p, err := h.Alloc(4)
		if err != nil {
			b.Fatal(err)
		}
		if j%2 == 0 {
			h.Free(p)
		}
	}
	dev.FlushAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dev); err != nil {
			b.Fatal(err)
		}
	}
}
