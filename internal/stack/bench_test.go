package stack

import (
	"testing"

	"tsp/internal/nvm"
)

// BenchmarkCrashReattach is one served shard's crash: a stack shaped
// like a cache-server shard with the server's defaults (the shape the
// repository benchmark's stack.reattach_ms replays), loaded with 16 384
// map entries, takes 1 024 more puts and is then crashed with a full
// rescue and brought back through Restart, pheap.Open, atlas.Recover
// (recovery GC included) and atlas.New.
func BenchmarkCrashReattach(b *testing.B) {
	const (
		entries = 16384
		dirtied = 1024
	)
	s, err := New(
		WithDeviceWords(1<<20),
		WithMaxThreads(10),
		WithLogEntries(4096),
		WithBuckets(4096, 256),
		WithSessionSlots(256),
	)
	if err != nil {
		b.Fatal(err)
	}
	put := func(lo, hi uint64) {
		th, err := s.RT.NewThread()
		if err != nil {
			b.Fatal(err)
		}
		for k := lo; k < hi; k++ {
			if err := s.Map.Put(th, k%entries, k); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.RT.ReleaseThread(th); err != nil {
			b.Fatal(err)
		}
	}
	put(0, entries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		put(uint64(i)*dirtied, uint64(i+1)*dirtied)
		b.StartTimer()
		if s, err = s.CrashReattach(nvm.CrashOptions{RescueFraction: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
