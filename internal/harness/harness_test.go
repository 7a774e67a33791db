package harness

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"tsp/internal/nvm"
	"tsp/internal/platform"
)

// fastCfg returns a configuration small enough for unit tests.
func fastCfg(v Variant) Config {
	return Config{
		Variant:     v,
		Threads:     4,
		HighKeys:    1 << 10,
		Buckets:     1 << 10,
		DeviceWords: 1 << 21,
		Duration:    30 * time.Millisecond,
		Seed:        1,
	}
}

func fastCrash(frac float64) CrashOptions {
	return CrashOptions{
		Crash:  nvm.CrashOptions{RescueFraction: frac},
		MinRun: 2_000,
		MaxRun: 40_000,
	}
}

func TestThroughputAllVariantsProduceWork(t *testing.T) {
	for _, v := range AllVariants() {
		t.Run(v.String(), func(t *testing.T) {
			res, err := RunThroughput(fastCfg(v))
			if err != nil {
				t.Fatalf("RunThroughput: %v", err)
			}
			if res.Iterations == 0 {
				t.Fatal("no iterations completed")
			}
			if res.IterPerSec() <= 0 {
				t.Fatalf("nonpositive throughput: %s", res)
			}
			if !strings.Contains(res.String(), "M iter/s") {
				t.Fatalf("malformed result string: %q", res)
			}
		})
	}
}

func TestCrashRecoveryTSPVariants(t *testing.T) {
	// The Section 5.2 claim: with a full TSP rescue, all fortified (and
	// the non-blocking) variants recover consistently from crashes at
	// arbitrary instants.
	for _, v := range []Variant{MutexAtlasTSP, MutexAtlasNonTSP, NonBlocking} {
		t.Run(v.String(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				cfg := fastCfg(v)
				cfg.Seed = seed
				res, err := RunCrash(cfg, fastCrash(1))
				if err != nil {
					t.Fatalf("RunCrash: %v", err)
				}
				if !res.OK() {
					t.Fatalf("seed %d: inconsistent recovery: %s (recovery err: %v)",
						seed, res, res.RecoveryErr)
				}
				if res.IterationsRun == 0 {
					t.Fatalf("seed %d: crash landed before any work", seed)
				}
			}
		})
	}
}

func TestCrashRecoveryNonTSPWithoutRescue(t *testing.T) {
	// The non-TSP configuration's raison d'être: it must recover even
	// when the crash rescues nothing.
	for seed := int64(0); seed < 5; seed++ {
		cfg := fastCfg(MutexAtlasNonTSP)
		cfg.Seed = seed
		res, err := RunCrash(cfg, fastCrash(0))
		if err != nil {
			t.Fatalf("RunCrash: %v", err)
		}
		if !res.OK() {
			t.Fatalf("seed %d: non-TSP mode failed a no-rescue crash: %s (recovery err: %v)",
				seed, res, res.RecoveryErr)
		}
	}
}

func TestUnfortifiedSurvivesCrashBetweenOperations(t *testing.T) {
	// Even unfortified code recovers if the crash happens to land
	// between OCSes on every thread — the runs here merely must not
	// error; consistency is not guaranteed and not asserted.
	cfg := fastCfg(MutexNoAtlas)
	if _, err := RunCrash(cfg, fastCrash(1)); err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
}

func TestTSPModeWithPartialRescueEventuallyInconsistent(t *testing.T) {
	// The hazard the paper's framework predicts: Atlas TSP mode relies
	// on a COMPLETE rescue. An interrupted rescue (or background
	// eviction) that persists an arbitrary subset of lines leaves some
	// uncommitted data durable with its undo records lost, and recovery
	// cannot restore consistency. (A total loss, rescue=0, is NOT the
	// dangerous case: it reverts to the last fully durable state.)
	sawInconsistent := false
	for seed := int64(0); seed < 20 && !sawInconsistent; seed++ {
		cfg := fastCfg(MutexAtlasTSP)
		cfg.Seed = seed
		res, err := RunCrash(cfg, fastCrash(0.5))
		if err != nil {
			t.Fatalf("RunCrash: %v", err)
		}
		if !res.OK() {
			sawInconsistent = true
		}
	}
	if !sawInconsistent {
		t.Skip("no inconsistency observed in 20 runs; timing-dependent, not a failure")
	}
}

func TestNonTSPSurvivesPartialRescue(t *testing.T) {
	// The non-TSP design's durability never depends on the rescue, so
	// ANY rescue fraction must recover consistently.
	for _, frac := range []float64{0, 0.3, 0.7, 1} {
		for seed := int64(0); seed < 3; seed++ {
			cfg := fastCfg(MutexAtlasNonTSP)
			cfg.Seed = seed
			res, err := RunCrash(cfg, fastCrash(frac))
			if err != nil {
				t.Fatalf("RunCrash: %v", err)
			}
			if !res.OK() {
				t.Fatalf("frac=%v seed=%d: inconsistent: %s (recovery err: %v)",
					frac, seed, res, res.RecoveryErr)
			}
		}
	}
}

func TestUnfortifiedWithPartialRescueEventuallyInconsistent(t *testing.T) {
	// The motivating hazard for Section 4.2: unfortified mutex code plus
	// a partial rescue leaves torn critical sections visible.
	sawInconsistent := false
	for seed := int64(0); seed < 20 && !sawInconsistent; seed++ {
		cfg := fastCfg(MutexNoAtlas)
		cfg.Seed = seed
		res, err := RunCrash(cfg, fastCrash(0.5))
		if err != nil {
			t.Fatalf("RunCrash: %v", err)
		}
		if !res.OK() {
			sawInconsistent = true
		}
	}
	if !sawInconsistent {
		t.Skip("no inconsistency observed in 20 runs; timing-dependent, not a failure")
	}
}

func TestTable1SmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table run in -short mode")
	}
	prof := platform.Unit()
	prof.Threads = 2
	for _, runs := range []int{1, 2} {
		rows, err := Table1([]platform.Profile{prof}, 20*time.Millisecond, 7, runs)
		if err != nil {
			t.Fatalf("Table1: %v", err)
		}
		if len(rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(rows))
		}
		for _, v := range AllVariants() {
			if got := len(rows[0].Runs[v]); got != runs {
				t.Fatalf("variant %s: %d runs, want %d", v, got, runs)
			}
			if rows[0].Best(v).Iterations == 0 {
				t.Fatalf("variant %s did no work", v)
			}
		}
		out := FormatTable1(rows)
		want := []string{"no Atlas", "log only", "log + flush", "Non-Blocking", "TSP speedup"}
		if runs > 1 {
			want = append(want, "mean±sd, 2 runs")
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Fatalf("FormatTable1 output missing %q:\n%s", w, out)
			}
		}
	}
}

// TestOverheads holds the one ratio formula to hand-computed values.
func TestOverheads(t *testing.T) {
	for _, c := range []struct {
		base, logOnly, logFlush float64
		lo, lf, sp              float64
	}{
		{4, 3, 2, 0.25, 0.5, 0.5},
		{3.66, 2.36, 1.58, 1.30 / 3.66, 2.08 / 3.66, 0.78 / 1.58}, // the paper's desktop row
		{2, 2, 2, 0, 0, 0},
		{2, 3, 1, -0.5, 0.5, 2},
		{0, 3, 2, 0, 0, 0.5},  // no baseline: no overhead
		{4, 3, 0, 0.25, 1, 0}, // no log+flush run: no speedup
	} {
		lo, lf, sp := overheads(c.base, c.logOnly, c.logFlush)
		if math.Abs(lo-c.lo) > 1e-12 || math.Abs(lf-c.lf) > 1e-12 || math.Abs(sp-c.sp) > 1e-12 {
			t.Errorf("overheads(%v, %v, %v) = %v, %v, %v; want %v, %v, %v",
				c.base, c.logOnly, c.logFlush, lo, lf, sp, c.lo, c.lf, c.sp)
		}
	}
}

// TestOverheadsUseBestRuns checks that a row's ratios and Best come
// from each cell's fastest run, not its first or its mean.
func TestOverheadsUseBestRuns(t *testing.T) {
	run := func(iters uint64) ThroughputResult {
		return ThroughputResult{Iterations: iters, Elapsed: time.Second}
	}
	row := Table1Row{Runs: map[Variant][]ThroughputResult{
		MutexNoAtlas:     {run(1), run(4), run(2)},
		MutexAtlasTSP:    {run(3), run(1)},
		MutexAtlasNonTSP: {run(1), run(2)},
	}}
	if got := row.Best(MutexNoAtlas).Iterations; got != 4 {
		t.Fatalf("Best = %d iterations, want 4", got)
	}
	if lo, lf, sp := row.Overheads(); lo != 0.25 || lf != 0.5 || sp != 0.5 {
		t.Fatalf("Overheads = %v, %v, %v; want 0.25, 0.5, 0.5", lo, lf, sp)
	}
	if s := row.Rates(MutexNoAtlas); s.N() != 3 || math.Abs(s.Mean()-7e-6/3) > 1e-15 {
		t.Fatalf("Rates: n=%d mean=%v, want 3 runs averaging %v M/s", s.N(), s.Mean(), 7e-6/3)
	}
}

func TestLatencyRunProducesDistribution(t *testing.T) {
	res, err := RunLatency(fastCfg(MutexAtlasTSP))
	if err != nil {
		t.Fatalf("RunLatency: %v", err)
	}
	if res.Iterations == 0 {
		t.Fatal("no latency samples collected")
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.Max < res.P99 {
		t.Fatalf("distribution not ordered: %s", res)
	}
	if !strings.Contains(res.String(), "p99=") {
		t.Fatalf("malformed result string: %q", res)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Variant: Variant(9), Threads: 1, HighKeys: 1, DeviceWords: 1 << 20},
		{Variant: NonBlocking, Threads: -1, HighKeys: 1, DeviceWords: 1 << 20},
		{Variant: NonBlocking, Threads: 1, HighKeys: 0, DeviceWords: 1 << 20},
		{Variant: NonBlocking, Threads: 1, HighKeys: 1, DeviceWords: 16},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestKeySpaceLayout(t *testing.T) {
	// L and H must not overlap, and per-thread counters must be unique.
	const T = 8
	seen := map[uint64]bool{}
	for th := 0; th < T; th++ {
		for _, k := range []uint64{KeyC1(th), KeyC2(th)} {
			if seen[k] {
				t.Fatalf("duplicate counter key %d", k)
			}
			seen[k] = true
			if k >= HighBase(T) {
				t.Fatalf("counter key %d overlaps the high range", k)
			}
		}
	}
}

func TestVariantStrings(t *testing.T) {
	for _, v := range AllVariants() {
		if strings.HasPrefix(v.String(), "Variant(") {
			t.Errorf("missing name for variant %d", int(v))
		}
	}
}

func TestInvariantReportErr(t *testing.T) {
	good := InvariantReport{PerThreadOK: true, Eq1OK: true, Eq2OK: true, StructureOK: true}
	if err := good.Err(); err != nil {
		t.Fatalf("Err on good report: %v", err)
	}
	bad := InvariantReport{PerThreadOK: true, Eq1OK: false, Eq2OK: true, StructureOK: true}
	if err := bad.Err(); err == nil {
		t.Fatal("Err on bad report returned nil")
	}
}

func TestObserveOverAReadFunction(t *testing.T) {
	// Two threads: c1,t at keys 0 and 2, c2,t at 1 and 3, H from 4.
	store := func(vals map[uint64]uint64) func(uint64) (uint64, error) {
		return func(k uint64) (uint64, error) { return vals[k], nil }
	}
	for _, tc := range []struct {
		name   string
		vals   map[uint64]uint64
		verify func() error
		want   string // "" = every invariant holds
	}{
		{"consistent", map[uint64]uint64{0: 5, 1: 4, 2: 3, 3: 3, 4: 7}, nil, ""},
		{"empty", map[uint64]uint64{}, nil, ""},
		{"per-thread", map[uint64]uint64{0: 5, 1: 3, 2: 3, 3: 4, 4: 7}, nil, "perThread=false"},
		{"equation 2", map[uint64]uint64{0: 5, 1: 4, 2: 3, 3: 3, 5: 9}, nil, "eq2=false"},
		{"structure", map[uint64]uint64{}, func() error { return errors.New("bad chain") }, "bad chain"},
	} {
		rep, err := Observe(2, 3, store(tc.vals), tc.verify)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := rep.Err(); tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
	boom := errors.New("connection reset")
	if _, err := Observe(2, 3, func(uint64) (uint64, error) { return 0, boom }, nil); !errors.Is(err, boom) {
		t.Fatalf("read error: got %v", err)
	}
}
