// Command tspsoak is a crash-recovery fuzzer: it runs continuous
// random crash-inject-recover-verify cycles across the fortified
// variants, randomizing the variant, thread count, crash point (a number
// of device stores) and — within each variant's soundness envelope — the
// rescue fraction, until the time budget expires or an inconsistency is
// found.
//
// This is the long-running counterpart of cmd/faultinject's fixed
// campaign: where the paper reports "hundreds of injected crashes", a
// soak run makes that thousands, with the configuration space explored
// instead of fixed.
//
// Usage:
//
//	tspsoak [-for 30s] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"tsp/internal/harness"
)

func main() {
	budget := flag.Duration("for", 30*time.Second, "soak duration")
	seed := flag.Int64("seed", 1, "master seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	deadline := time.Now().Add(*budget)
	runs, inconsistent := 0, 0
	perVariant := map[harness.Variant]int{}

	for time.Now().Before(deadline) {
		// Pick a configuration within the soundness envelope:
		// non-blocking and Atlas-TSP require a full rescue; Atlas
		// non-TSP tolerates any rescue fraction.
		var variant harness.Variant
		var rescue float64
		switch rng.Intn(3) {
		case 0:
			variant, rescue = harness.NonBlocking, 1
		case 1:
			variant, rescue = harness.MutexAtlasTSP, 1
		default:
			variant, rescue = harness.MutexAtlasNonTSP, rng.Float64()
		}
		cfg := harness.Config{
			Variant:     variant,
			Threads:     1 + rng.Intn(8),
			HighKeys:    1 << (8 + rng.Intn(6)),
			Buckets:     1 << (8 + rng.Intn(6)),
			DeviceWords: 1 << 21,
			Seed:        rng.Int63(),
		}
		opts := harness.CrashOptions{
			RescueFraction: rescue,
			MinRun:         2_000,
			MaxRun:         uint64(1+rng.Intn(15)) * 5_000,
		}
		res, err := harness.RunCrash(cfg, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak run error: %v\n", err)
			os.Exit(1)
		}
		runs++
		perVariant[variant]++
		if !res.OK() {
			inconsistent++
			fmt.Printf("INCONSISTENT: %s\n  config: %+v\n  recovery err: %v\n",
				res, cfg, res.RecoveryErr)
		}
	}

	fmt.Printf("soak complete: %d crash-recover cycles in %v\n", runs, *budget)
	for _, v := range harness.AllVariants() {
		if perVariant[v] > 0 {
			fmt.Printf("  %-18s %d runs\n", v, perVariant[v])
		}
	}
	if inconsistent > 0 {
		fmt.Printf("FAILURES: %d inconsistent recoveries\n", inconsistent)
		os.Exit(1)
	}
	fmt.Println("every recovery was consistent")
}
