package hashmap

import (
	"testing"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/telemetry"
)

func benchMap(b *testing.B, mode atlas.Mode, prefill int) (*Map, *atlas.Thread) {
	b.Helper()
	return benchMapTel(b, mode, prefill, nil)
}

// benchMapTel is benchMap with the runtime counting into tel.
func benchMapTel(b *testing.B, mode atlas.Mode, prefill int, tel *telemetry.AtlasStats) (*Map, *atlas.Thread) {
	b.Helper()
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 22})
	heap, err := pheap.Format(dev)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := atlas.New(heap, mode, atlas.Options{MaxThreads: 1, Telemetry: tel})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(rt, 1<<14, 1000)
	if err != nil {
		b.Fatal(err)
	}
	heap.SetRoot(m.Ptr())
	th, err := rt.NewThread()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < prefill; i++ {
		if err := m.Put(th, uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	return m, th
}

// BenchmarkPut compares the three fortification modes at the map level —
// the per-operation view of Table 1's mutex columns.
func BenchmarkPut(b *testing.B) {
	for _, mode := range []atlas.Mode{atlas.ModeOff, atlas.ModeTSP, atlas.ModeNonTSP} {
		b.Run(mode.String(), func(b *testing.B) {
			m, th := benchMap(b, mode, 1<<12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Put(th, uint64(i)%(1<<12), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsert is the insert path alone: every Put adds a key the
// map does not hold, so each one allocates a node and links it, under
// each fortification mode. The map is rebuilt, untimed, every 1<<16
// inserts. The undo records and device stores an insert makes are
// reported per op.
//
//	go test -run ZZZ -bench Insert -benchtime 200000x ./internal/hashmap
func BenchmarkInsert(b *testing.B) {
	const round = 1 << 16
	for _, mode := range []atlas.Mode{atlas.ModeOff, atlas.ModeTSP, atlas.ModeNonTSP} {
		b.Run(mode.String(), func(b *testing.B) {
			var tel telemetry.AtlasStats
			var m *Map
			var th *atlas.Thread
			var stores, from uint64
			for i := 0; i < b.N; i++ {
				if i%round == 0 {
					b.StopTimer()
					if m != nil {
						stores += m.heap.Device().Stats().Stores - from
					}
					m, th = benchMapTel(b, mode, 0, &tel)
					from = m.heap.Device().Stats().Stores
					b.StartTimer()
				}
				if err := m.Put(th, uint64(i%round), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stores += m.heap.Device().Stats().Stores - from
			b.ReportMetric(float64(stores)/float64(b.N), "stores/op")
			// Each Put is one section: its lock-acquire and release
			// records are the two appends that are not undo records.
			if mode != atlas.ModeOff {
				b.ReportMetric(float64(tel.LogAppends.Load())/float64(b.N)-2, "undo/op")
			}
		})
	}
}

func BenchmarkGet(b *testing.B) {
	m, th := benchMap(b, atlas.ModeTSP, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Get(th, uint64(i)%(1<<13)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInc(b *testing.B) {
	for _, mode := range []atlas.Mode{atlas.ModeOff, atlas.ModeTSP, atlas.ModeNonTSP} {
		b.Run(mode.String(), func(b *testing.B) {
			m, th := benchMap(b, mode, 1<<12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Inc(th, uint64(i)%(1<<12), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDelete(b *testing.B) {
	m, th := benchMap(b, atlas.ModeTSP, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		if err := m.Put(th, k, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Delete(th, k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutTelemetry compares map writes with a live telemetry
// section attached ("on") against the nil-section fast path ("off") —
// the map-level half of the telemetry overhead guard. The device under
// both runs still counts (benchMap uses the default device config), so
// the delta isolates the map layer's own increment.
//
//	go test -run ZZZ -bench PutTelemetry ./internal/hashmap
func BenchmarkPutTelemetry(b *testing.B) {
	for _, withTel := range []bool{true, false} {
		name := "off"
		if withTel {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			m, th := benchMap(b, atlas.ModeTSP, 1<<12)
			if withTel {
				m.SetTelemetry(&telemetry.MapStats{})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Put(th, uint64(i)%(1<<12), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	m, _ := benchMap(b, atlas.ModeOff, 1<<13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
