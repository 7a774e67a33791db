// Package tsp's root benchmark harness regenerates every quantitative
// result in the paper's evaluation (Section 5), plus the ablations
// DESIGN.md calls out. Each benchmark reports the paper's metric —
// worker iterations per second (Miter/s; each iteration performs three
// atomic map operations) — via b.ReportMetric, alongside the usual
// ns/op.
//
// Mapping to the paper:
//
//	BenchmarkTable1            — Table 1, all four variants x both platforms
//	BenchmarkFaultInjection    — Section 5.2's crash campaign (consistency rate)
//	BenchmarkAblationFlushLatency — where log+flush diverges from log-only
//	BenchmarkAblationThreads   — thread scaling of all four variants
//	BenchmarkAblationLockGrain — bucket-per-mutex striping sweep
//	BenchmarkAblationLogDedup  — Atlas first-store filter on/off
//	BenchmarkAblationWriteHeavy — write-heavy OCSes (the 3x/5x regime of [3])
//	BenchmarkRecovery          — recovery latency vs in-flight log volume
//
// Run everything:  go test -bench=. -benchmem
package tsp_test

import (
	"fmt"
	"testing"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/harness"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/platform"
)

// benchWindow is the measurement window per cell. Long enough to settle,
// short enough that the full suite stays tractable.
const benchWindow = 500 * time.Millisecond

// runThroughputBench measures one harness configuration and reports the
// Table-1 metric.
func runThroughputBench(b *testing.B, cfg harness.Config) harness.ThroughputResult {
	b.Helper()
	cfg.Duration = benchWindow
	var last harness.ThroughputResult
	for i := 0; i < b.N; i++ {
		res, err := harness.RunThroughput(cfg)
		if err != nil {
			b.Fatalf("RunThroughput: %v", err)
		}
		last = res
	}
	b.ReportMetric(last.IterPerSec()/1e6, "Miter/s")
	return last
}

// BenchmarkTable1 regenerates Table 1: the four variants on the desktop
// and server platform profiles.
func BenchmarkTable1(b *testing.B) {
	for _, prof := range platform.All() {
		for _, v := range harness.AllVariants() {
			b.Run(fmt.Sprintf("%s/%s", prof.Name, v), func(b *testing.B) {
				cfg := harness.Config{Variant: v, Seed: 1}.FromProfile(prof)
				runThroughputBench(b, cfg)
			})
		}
	}
}

// BenchmarkFaultInjection regenerates the Section 5.2 result: crashes at
// random instants, each followed by recovery and invariant verification.
// The reported metric is the fraction of runs that recovered to a
// consistent state — the paper's result is 1.0 for every fortified
// configuration under its intended failure/rescue pairing.
func BenchmarkFaultInjection(b *testing.B) {
	scenarios := []struct {
		name    string
		variant harness.Variant
		rescue  float64
	}{
		{"non-blocking/rescue", harness.NonBlocking, 1},
		{"log-only/rescue", harness.MutexAtlasTSP, 1},
		{"log+flush/rescue", harness.MutexAtlasNonTSP, 1},
		{"log+flush/no-rescue", harness.MutexAtlasNonTSP, 0},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			cfg := harness.Config{
				Variant:     sc.variant,
				Threads:     4,
				HighKeys:    1 << 10,
				Buckets:     1 << 10,
				DeviceWords: 1 << 21,
			}
			opts := harness.CrashOptions{
				RescueFraction: sc.rescue,
				MinRun:         2_000,
				MaxRun:         25_000,
			}
			consistent := 0
			total := 0
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				res, err := harness.RunCrash(cfg, opts)
				if err != nil {
					b.Fatalf("RunCrash: %v", err)
				}
				total++
				if res.OK() {
					consistent++
				}
			}
			if consistent != total {
				b.Fatalf("only %d/%d crashes recovered consistently", consistent, total)
			}
			b.ReportMetric(float64(consistent)/float64(total), "consistent-frac")
		})
	}
}

// BenchmarkAblationFlushLatency sweeps the simulated cache-line flush
// cost: log-only throughput must stay flat (it never flushes on the
// critical path) while log+flush degrades — the mechanism behind the
// paper's TSP-vs-non-TSP gap.
func BenchmarkAblationFlushLatency(b *testing.B) {
	prof := platform.Desktop()
	for _, flushCost := range []int{0, 8, 32, 128, 512} {
		for _, v := range []harness.Variant{harness.MutexAtlasTSP, harness.MutexAtlasNonTSP} {
			b.Run(fmt.Sprintf("flush=%d/%s", flushCost, v), func(b *testing.B) {
				cfg := harness.Config{Variant: v, Seed: 1}.FromProfile(prof)
				cfg.FlushCost = flushCost
				runThroughputBench(b, cfg)
			})
		}
	}
}

// BenchmarkAblationThreads scales the worker count for all four
// variants.
func BenchmarkAblationThreads(b *testing.B) {
	prof := platform.Desktop()
	for _, threads := range []int{1, 2, 4, 8, 16} {
		for _, v := range harness.AllVariants() {
			b.Run(fmt.Sprintf("t=%d/%s", threads, v), func(b *testing.B) {
				cfg := harness.Config{Variant: v, Seed: 1}.FromProfile(prof)
				cfg.Threads = threads
				runThroughputBench(b, cfg)
			})
		}
	}
}

// BenchmarkAblationLockGrain sweeps the paper's "one mutex per 1000
// buckets" striping decision on the unfortified map.
func BenchmarkAblationLockGrain(b *testing.B) {
	prof := platform.Desktop()
	for _, grain := range []int{1, 10, 100, 1000, 10000, 131072} {
		b.Run(fmt.Sprintf("bucketsPerMutex=%d", grain), func(b *testing.B) {
			cfg := harness.Config{Variant: harness.MutexNoAtlas, Seed: 1}.FromProfile(prof)
			cfg.BucketsPerMutex = grain
			runThroughputBench(b, cfg)
		})
	}
}

// BenchmarkAblationLogDedup measures what Atlas's first-store-per-OCS
// filter buys by disabling it. The Table-1 workload stores each location
// at most once per OCS (the filter never fires there), so this ablation
// uses OCSes that repeatedly update a handful of hot words — the pattern
// the filter exists for (e.g. a counter bumped many times inside one
// critical section).
func BenchmarkAblationLogDedup(b *testing.B) {
	const hotWords, storesPerOCS = 4, 32
	for _, every := range []bool{false, true} {
		name := "first-store-filter"
		if every {
			name = "log-every-store"
		}
		b.Run(name, func(b *testing.B) {
			dev := nvm.NewDevice(nvm.Config{Words: 1 << 20, MissCost: 560})
			heap, err := pheap.Format(dev)
			if err != nil {
				b.Fatal(err)
			}
			rt, err := atlas.New(heap, atlas.ModeTSP, atlas.Options{
				MaxThreads: 1, LogEntries: 1 << 10, LogEveryStore: every,
			})
			if err != nil {
				b.Fatal(err)
			}
			region, err := heap.Alloc(hotWords)
			if err != nil {
				b.Fatal(err)
			}
			heap.SetRoot(region)
			th, err := rt.NewThread()
			if err != nil {
				b.Fatal(err)
			}
			m := rt.NewMutex()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Lock(m)
				for s := 0; s < storesPerOCS; s++ {
					th.Store(region.Addr()+nvm.Addr(s%hotWords), uint64(i+s))
				}
				th.Unlock(m)
			}
		})
	}
}

// BenchmarkAblationWriteHeavy reproduces the regime of the paper's
// previously published Atlas measurements (3x overhead from logging
// alone, 5x with flushing, on write-heavy applications): each OCS writes
// a burst of distinct words, so logging dominates the op.
func BenchmarkAblationWriteHeavy(b *testing.B) {
	const storesPerOCS = 16
	for _, mode := range []atlas.Mode{atlas.ModeOff, atlas.ModeTSP, atlas.ModeNonTSP} {
		b.Run(mode.String(), func(b *testing.B) {
			dev := nvm.NewDevice(nvm.Config{Words: 1 << 20, FlushCost: 18, MissCost: 560})
			heap, err := pheap.Format(dev)
			if err != nil {
				b.Fatal(err)
			}
			rt, err := atlas.New(heap, mode, atlas.Options{MaxThreads: 1})
			if err != nil {
				b.Fatal(err)
			}
			region, err := heap.Alloc(1 << 16)
			if err != nil {
				b.Fatal(err)
			}
			heap.SetRoot(region)
			th, err := rt.NewThread()
			if err != nil {
				b.Fatal(err)
			}
			m := rt.NewMutex()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Lock(m)
				base := region.Addr() + nvm.Addr((i*storesPerOCS)%(1<<15))
				for w := nvm.Addr(0); w < storesPerOCS; w++ {
					th.Store(base+w, uint64(i))
				}
				th.Unlock(m)
			}
		})
	}
}

// BenchmarkRecovery measures recovery latency as a function of how much
// in-flight log the crash left behind (incomplete OCS size).
func BenchmarkRecovery(b *testing.B) {
	for _, storesInFlight := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("inflight=%d", storesInFlight), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := nvm.NewDevice(nvm.Config{Words: 1 << 20})
				heap, err := pheap.Format(dev)
				if err != nil {
					b.Fatal(err)
				}
				rt, err := atlas.New(heap, atlas.ModeTSP, atlas.Options{MaxThreads: 1})
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
				m := rt.NewMutex()
				th.Lock(m)
				for w := 0; w < storesInFlight; w++ {
					th.Store(region.Addr()+nvm.Addr(w), uint64(w)+1)
				}
				dev.CrashRescue()
				dev.Restart()
				heap2, err := pheap.Open(dev)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := atlas.Recover(heap2)
				if err != nil {
					b.Fatal(err)
				}
				if rep.UndoApplied != storesInFlight {
					b.Fatalf("undo applied = %d, want %d", rep.UndoApplied, storesInFlight)
				}
			}
		})
	}
}
