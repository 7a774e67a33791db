package atlas

import (
	"testing"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// benchRuntime builds a single-thread runtime in the given mode.
func benchRuntime(b *testing.B, mode Mode) (*nvm.Device, *Thread, *Mutex, pheap.Ptr) {
	b.Helper()
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 20})
	heap, err := pheap.Format(dev)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := New(heap, mode, Options{MaxThreads: 1})
	if err != nil {
		b.Fatal(err)
	}
	region, err := heap.Alloc(1 << 12)
	if err != nil {
		b.Fatal(err)
	}
	heap.SetRoot(region)
	th, err := rt.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	return dev, th, rt.NewMutex(), region
}

// BenchmarkOCS measures one outermost critical section with a single
// guarded store — the common case of the paper's workload — across the
// three modes. The off/tsp/nontsp deltas ARE the paper's logging and
// flushing overheads at the runtime's own granularity.
func BenchmarkOCS(b *testing.B) {
	for _, mode := range []Mode{ModeOff, ModeTSP, ModeNonTSP} {
		b.Run(mode.String(), func(b *testing.B) {
			_, th, m, region := benchRuntime(b, mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Lock(m)
				th.Store(region.Addr()+nvm.Addr(i&0xfff), uint64(i))
				th.Unlock(m)
			}
		})
	}
}

// BenchmarkStoreInOCS isolates the per-store cost inside one long OCS
// (lock overhead amortized away).
func BenchmarkStoreInOCS(b *testing.B) {
	for _, mode := range []Mode{ModeOff, ModeTSP, ModeNonTSP} {
		b.Run(mode.String(), func(b *testing.B) {
			dev := nvm.NewDevice(nvm.Config{Words: 1 << 22})
			heap, _ := pheap.Format(dev)
			rt, err := New(heap, mode, Options{MaxThreads: 1, LogEntries: 1 << 21 / entryWords})
			if err != nil {
				b.Fatal(err)
			}
			region, err := heap.Alloc(1 << 16)
			if err != nil {
				b.Fatal(err)
			}
			heap.SetRoot(region)
			th, _ := rt.NewThread()
			m := rt.NewMutex()
			th.Lock(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Store(region.Addr()+nvm.Addr(i&0xffff), uint64(i))
			}
			b.StopTimer()
			th.Unlock(m)
		})
	}
}

// BenchmarkFirstStoreFilter measures the first-store filter on both of
// its paths. one: repeated stores to ONE location in an OCS — after the
// first, the filter should make them as cheap as raw stores. wide: one
// OCS per op storing twice to each of 256 scattered words, far past
// dirtySliceMax — the shape of the cache server's burst-sized sections.
func BenchmarkFirstStoreFilter(b *testing.B) {
	b.Run("one", func(b *testing.B) {
		_, th, m, region := benchRuntime(b, ModeTSP)
		th.Lock(m)
		defer th.Unlock(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.Store(region.Addr(), uint64(i))
		}
	})
	b.Run("wide", func(b *testing.B) {
		_, th, m, region := benchRuntime(b, ModeTSP)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.Lock(m)
			for pass := 0; pass < 2; pass++ {
				for w := 0; w < 256; w++ {
					th.Store(region.Addr()+nvm.Addr(w*13%4096), uint64(i+pass))
				}
			}
			th.Unlock(m)
		}
	})
}

// BenchmarkRecoveryScan measures a full recovery over a populated log.
func BenchmarkRecoveryScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := nvm.NewDevice(nvm.Config{Words: 1 << 20})
		heap, _ := pheap.Format(dev)
		rt, _ := New(heap, ModeTSP, Options{MaxThreads: 1, LogEntries: 4096})
		region, _ := heap.Alloc(256)
		heap.SetRoot(region)
		th, _ := rt.NewThread()
		m := rt.NewMutex()
		for j := 0; j < 1000; j++ {
			th.Lock(m)
			th.Store(region.Addr()+nvm.Addr(j&0xff), uint64(j))
			th.Unlock(m)
		}
		th.Lock(m)
		th.Store(region.Addr(), 999) // one incomplete OCS
		dev.CrashRescue()
		dev.Restart()
		heap2, _ := pheap.Open(dev)
		b.StartTimer()
		if _, err := Recover(heap2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint measures an explicit quiesce+flush+truncate.
func BenchmarkCheckpoint(b *testing.B) {
	_, th, m, region := benchRuntime(b, ModeTSP)
	rt := th.rt
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 100; j++ {
			th.Lock(m)
			th.Store(region.Addr()+nvm.Addr(j), uint64(j))
			th.Unlock(m)
		}
		b.StartTimer()
		rt.Checkpoint()
	}
}
