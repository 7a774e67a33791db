package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestCounterNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("nil Counter.Load() = %d, want 0", got)
	}

	var h *Histogram
	h.Observe(time.Millisecond)
	h.Reset()
	if got := h.Snapshot().Count(); got != 0 {
		t.Fatalf("nil Histogram snapshot count = %d, want 0", got)
	}

	var d *DeviceStats
	d.AddAccesses(1, 2, 3)
	d.IncFlush()
	d.AddWritebacks(1)
	d.IncRescue()
	d.IncDrop()
	Reset(RegistryRows.Bind(&Registry{Device: d}))

	var a *AtlasStats
	a.AddSection(1, 1, 1)

	var hp *HeapStats
	hp.IncAlloc()
	hp.IncFree()
	hp.AddGC(10)

	var m *MapStats
	m.IncGet()
	m.Publish(&MapTally{Puts: 1})

	var r *Registry
	if r.Counters() != nil {
		t.Fatal("nil Registry.Counters() should be nil")
	}
	r.Walk(func(string, uint64) { t.Fatal("nil Registry.Walk must not call fn") })
}

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if got := c.Load(); got != 10 {
		t.Fatalf("Load() = %d, want 10", got)
	}
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("after Reset, Load() = %d, want 0", got)
	}
}

// Every operation publishes its tally with one AddAccesses; operations
// on many goroutines must neither lose nor double an access.
func TestDeviceStatsConcurrentPublish(t *testing.T) {
	var d DeviceStats
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				d.AddAccesses(3, uint64(i&1), 0)
			}
		}()
	}
	wg.Wait()
	if l, s, c := d.Loads.Load(), d.Stores.Load(), d.CAS.Load(); l != 3*workers*per || s != workers*per/2 || c != 0 {
		t.Fatalf("loads/stores/cas = %d/%d/%d, want %d/%d/0", l, s, c, 3*workers*per, workers*per/2)
	}
	Reset(RegistryRows.Bind(&Registry{Device: &d}))
	if got := d.Loads.Load() + d.Stores.Load(); got != 0 {
		t.Fatalf("after Reset, loads+stores = %d, want 0", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast ops (~1us), 10 slow ops (~1ms).
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if got := s.Count(); got != 100 {
		t.Fatalf("Count() = %d, want 100", got)
	}
	p50 := s.Quantile(0.50)
	p99 := s.Quantile(0.99)
	if p50 < time.Microsecond || p50 >= 100*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1us bucket upper bound", p50)
	}
	if p99 < time.Millisecond || p99 >= 100*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1ms bucket upper bound", p99)
	}
	if max := s.Max(); max < time.Millisecond {
		t.Fatalf("Max() = %v, want >= 1ms", max)
	}
	if mean := s.Mean(); mean < time.Microsecond || mean > time.Millisecond {
		t.Fatalf("Mean() = %v, want between 1us and 1ms", mean)
	}
	// Quantiles never underestimate: p100 upper bound >= actual max sample.
	if got := s.Quantile(1.0); got < time.Millisecond {
		t.Fatalf("Quantile(1.0) = %v, want >= 1ms", got)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second) // clamped to zero
	s := h.Snapshot()
	if got := s.Count(); got != 2 {
		t.Fatalf("Count() = %d, want 2", got)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile(0.5) = %v, want 0", got)
	}
	if got := s.Max(); got != 0 {
		t.Fatalf("Max() = %v, want 0", got)
	}
	h.Reset()
	if got := h.Snapshot().Count(); got != 0 {
		t.Fatalf("after Reset, Count() = %d, want 0", got)
	}
}

// TestHistogramObserveN: a counted observation is n single ones.
func TestHistogramObserveN(t *testing.T) {
	var one, counted Histogram
	for i := 0; i < 5; i++ {
		one.Observe(3 * time.Microsecond)
	}
	counted.ObserveN(3*time.Microsecond, 5)
	counted.ObserveN(time.Second, 0) // no events, no sample
	if one.Snapshot() != counted.Snapshot() {
		t.Fatalf("ObserveN(d, 5) = %+v, five Observe(d) = %+v", counted.Snapshot(), one.Snapshot())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var s HistogramSnapshot
	if s.Count() != 0 || s.Mean() != 0 || s.Quantile(0.99) != 0 || s.Max() != 0 {
		t.Fatal("empty snapshot must report zeros")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	b.Observe(time.Millisecond)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if got := sa.Count(); got != 2 {
		t.Fatalf("merged Count() = %d, want 2", got)
	}
	if got := sa.Max(); got < time.Millisecond {
		t.Fatalf("merged Max() = %v, want >= 1ms", got)
	}
	if sa.Sum != sb.Sum+uint64(time.Microsecond) {
		t.Fatalf("merged Sum = %d, want %d", sa.Sum, sb.Sum+uint64(time.Microsecond))
	}
}

func TestRegistrySnapshotSubAdd(t *testing.T) {
	r := NewRegistry()
	r.Device.AddAccesses(0, 1, 0)
	r.Device.IncFlush()
	r.Atlas.AddSection(1, 0, 0)
	r.Map.Puts.Inc()
	r.Generation.Inc()

	s1 := r.Counters()
	if s1["nvm_stores"] != 1 || s1["nvm_flushes"] != 1 || s1["atlas_log_appends"] != 1 ||
		s1["map_puts"] != 1 || s1["stack_generation"] != 1 {
		t.Fatalf("unexpected snapshot: %v", s1)
	}

	r.Device.AddAccesses(0, 1, 0)
	r.Map.Puts.Inc()
	s2 := r.Counters()
	delta := s2.Sub(s1)
	if delta["nvm_stores"] != 1 || delta["map_puts"] != 1 || delta["nvm_flushes"] != 0 {
		t.Fatalf("unexpected delta: %v", delta)
	}

	agg := s1.Add(s2.Sub(s1))
	if agg["nvm_stores"] != 2 {
		t.Fatalf("Add: nvm_stores = %d, want 2", agg["nvm_stores"])
	}
}

func TestRegistryWalkDeterministicAndComplete(t *testing.T) {
	r := NewRegistry()
	var names1, names2 []string
	r.Walk(func(name string, _ uint64) { names1 = append(names1, name) })
	r.Walk(func(name string, _ uint64) { names2 = append(names2, name) })
	if len(names1) == 0 {
		t.Fatal("Walk emitted nothing")
	}
	if len(names1) != len(names2) {
		t.Fatalf("Walk not stable: %d vs %d names", len(names1), len(names2))
	}
	seen := make(map[string]bool, len(names1))
	for i, n := range names1 {
		if n != names2[i] {
			t.Fatalf("Walk order differs at %d: %q vs %q", i, n, names2[i])
		}
		if seen[n] {
			t.Fatalf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{
		"nvm_loads", "nvm_flushes", "atlas_log_appends", "heap_allocs",
		"map_gets", "server_hits", "recovery_count", "stack_generation",
	} {
		if !seen[want] {
			t.Fatalf("Walk missing %q (have %v)", want, names1)
		}
	}

	// A registry with nil sections still emits the full vocabulary, as
	// zeros.
	empty := &Registry{}
	var n int
	empty.Walk(func(_ string, v uint64) {
		n++
		if v != 0 {
			t.Fatalf("nil-section registry emitted nonzero value %d", v)
		}
	})
	if n != len(names1) {
		t.Fatalf("nil-section Walk emitted %d names, want %d", n, len(names1))
	}
}
