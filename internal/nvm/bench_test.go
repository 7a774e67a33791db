package nvm

import "testing"

// loadSink keeps the benchmarked loads from being optimized away.
var loadSink uint64

// BenchmarkLoadTallied is a simulated load as the layers issue it: on a
// tally, published once at the end. It inlines and has no locked
// instruction (scripts/check.sh holds both), so this is a bounds check,
// a private increment and the read.
func BenchmarkLoadTallied(b *testing.B) {
	d := NewDevice(Config{Words: 1 << 16})
	tal := d.Tally()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadSink += tal.Load(Addr(i & 0xffff))
	}
	tal.Publish()
}

// BenchmarkLoadOneShot is Device.Load, the tally of one: the same load
// plus one atomic add to publish it.
func BenchmarkLoadOneShot(b *testing.B) {
	d := NewDevice(Config{Words: 1 << 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadSink += d.Load(Addr(i & 0xffff))
	}
}

// BenchmarkFlushAllSparse is a rescue of a shard-sized device (1 Mi
// words, 131 072 lines) with 64 dirty lines spread over it: a walk of the
// dirty set's 2 048 words and 64 line copies.
func BenchmarkFlushAllSparse(b *testing.B) {
	const words = 1 << 20
	d := NewDevice(Config{Words: words})
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for a := Addr(0); a < words; a += words / 64 {
			d.Store(a, uint64(i)+1)
		}
		b.StartTimer()
		d.FlushAll()
	}
}

func BenchmarkStore(b *testing.B) {
	d := NewDevice(Config{Words: 1 << 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Store(Addr(i&0xffff), uint64(i))
	}
}

func BenchmarkStoreBlock(b *testing.B) {
	d := NewDevice(Config{Words: 1 << 16})
	vals := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.StoreBlock(Addr((i&0x1fff)*8), vals)
	}
}

func BenchmarkCAS(b *testing.B) {
	d := NewDevice(Config{Words: 1 << 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Addr(i & 0xffff)
		d.CAS(a, d.Load(a), uint64(i))
	}
}

func BenchmarkFlushWord(b *testing.B) {
	d := NewDevice(Config{Words: 1 << 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Addr(i & 0xffff)
		d.Store(a, uint64(i))
		d.FlushWord(a)
	}
}

func BenchmarkFlushWordWithCost(b *testing.B) {
	d := NewDevice(Config{Words: 1 << 16, FlushCost: 24})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Addr(i & 0xffff)
		d.Store(a, uint64(i))
		d.FlushWord(a)
	}
}

func BenchmarkLoadWithMissModelHit(b *testing.B) {
	d := NewDevice(Config{Words: 1 << 16, MissCost: 560})
	d.Load(0) // install the line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Load(0) // always a hit
	}
}

func BenchmarkLoadWithMissModelMiss(b *testing.B) {
	// Strided loads defeating an 8192-line tag table: every access
	// misses, paying the configured latency.
	d := NewDevice(Config{Words: 1 << 22, MissCost: 560})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Load(Addr((i * 8 * 8192) & (1<<22 - 1)))
	}
}

// BenchmarkStoreTelemetry pins the telemetry layer's overhead bound on
// the one-shot entry point: "on" is the default device (each Store
// publishes its tally of one into the DeviceStats section, one atomic
// add), "off" takes the nil-receiver fast path via DisableStats, where
// the publish is a branch.
//
//	go test -run ZZZ -bench StoreTelemetry ./internal/nvm
func BenchmarkStoreTelemetry(b *testing.B) {
	for _, sub := range []struct {
		name string
		cfg  Config
	}{
		{"on", Config{Words: 1 << 16}},
		{"off", Config{Words: 1 << 16, DisableStats: true}},
	} {
		b.Run(sub.name, func(b *testing.B) {
			d := NewDevice(sub.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Store(Addr(i&0xffff), uint64(i))
			}
		})
	}
}

// BenchmarkLoadTelemetry is the read-path twin of
// BenchmarkStoreTelemetry.
func BenchmarkLoadTelemetry(b *testing.B) {
	for _, sub := range []struct {
		name string
		cfg  Config
	}{
		{"on", Config{Words: 1 << 16}},
		{"off", Config{Words: 1 << 16, DisableStats: true}},
	} {
		b.Run(sub.name, func(b *testing.B) {
			d := NewDevice(sub.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Load(Addr(i & 0xffff))
			}
		})
	}
}

func BenchmarkCrashRescue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := NewDevice(Config{Words: 1 << 18})
		for a := Addr(0); a < 1<<18; a += 8 {
			d.Store(a, uint64(a))
		}
		b.StartTimer()
		d.CrashRescue()
	}
}

// BenchmarkRestart times Restart on a shard-sized device (2^20 words)
// by how many lines the crash left dirty: none (what a full TSP rescue
// leaves), one in a hundred, or all of them. The first is the dirty-bit
// scan alone; the last is what every Restart used to cost.
func BenchmarkRestart(b *testing.B) {
	const words = 1 << 20
	for _, sub := range []struct {
		name   string
		stride Addr // one dirtied line every stride words; 0 = none
	}{
		{"dirty=0", 0},
		{"dirty=1pct", 100 * DefaultLineWords},
		{"dirty=all", DefaultLineWords},
	} {
		b.Run(sub.name, func(b *testing.B) {
			d := NewDevice(Config{Words: words})
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for a := Addr(0); sub.stride != 0 && a < words; a += sub.stride {
					d.Store(a, uint64(i)+1)
				}
				d.CrashDrop()
				b.StartTimer()
				d.Restart()
			}
		})
	}
}
