// Command faultinject runs the Section 5.2 fault-injection experiment
// and the crash campaigns built on it, each crashing a running workload
// over and over and holding what recovery leaves to a stated condition:
//
//   - harness: the paper's map workload under the recovery observer
//     (Equations 1 and 2, the map's structure), for the fortified
//     variants under a full TSP rescue and for non-TSP mode with none
//     and with a seeded partial one. Each crash draws its threads, key
//     range, buckets and crash point from its seed. A last row, left
//     out of the tally, gives TSP mode HALF a rescue: the hazard the
//     TSP framework predicts.
//   - multi-engine: the hash map and the skip list on one heap.
//   - durability: durable, relaxed and barrier writers on one server;
//     every shard crashes inside the epoch close a parked `wait` asked for.
//   - exactly-once: sessioned writers on a replicated pair; the primary
//     crashes mid-storm, then the follower is promoted.
//   - cluster: sessioned writers through a proxy to three nodes; node A
//     crashes mid-storm, then every slot it owns migrates away.
//
// All but the first hold every read to its key's recorded history
// (keyHist): durable linearizability for durable writes, buffered
// durable linearizability for relaxed ones, detectability for sessioned
// ones. The closing "STAT campaign_* <n>" lines speak a server's
// `stats` schema.
//
// Usage:
//
//	faultinject [-campaign all] [-n 0] [-threads 8] [-seed 1]
package main

import (
	"cmp"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"tsp/internal/harness"
	"tsp/internal/telemetry"
)

// campTel accumulates every campaign's outcome in the telemetry
// registry's campaign_* vocabulary.
var campTel = &telemetry.CampaignStats{}

// campaigns lists every campaign in the order `-campaign all` runs
// them, with its default crash or cycle count.
var campaigns = []struct {
	name string
	n    int
	run  func(n, threads int, seed int64) bool
}{
	{"harness", 100, runHarness},
	{"multi-engine", 100, runMultiEngine},
	{"durability", 10, runDurability},
	{"exactly-once", 4, runExactlyOnce},
	{"cluster", 3, runCluster},
}

func main() {
	campaign := flag.String("campaign", "all", "campaign to run: all, harness, multi-engine, durability, exactly-once or cluster")
	n := flag.Int("n", 0, "crashes or cycles per campaign (0: each campaign's default)")
	threads := flag.Int("threads", 8, "worker threads (harness: each crash draws its count from 1 to this)")
	seed := flag.Int64("seed", 1, "base seed")
	flag.Parse()
	if *threads < 1 {
		fmt.Fprintln(os.Stderr, "faultinject: -threads must be at least 1")
		os.Exit(2)
	}

	ok, ran := true, false
	for _, c := range campaigns {
		if *campaign == "all" || *campaign == c.name {
			ok = c.run(cmp.Or(*n, c.n), *threads, *seed) && ok
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "faultinject: unknown campaign %q\n", *campaign)
		os.Exit(2)
	}
	fmt.Println()
	telemetry.Text(os.Stdout, telemetry.CampaignRows.Bind(campTel))
	if !ok {
		os.Exit(1)
	}
}

// report runs n cycles of one campaign row, tallies them, and prints
// the row with its first failure. It reports whether every cycle held.
func report(name string, n int, cycle func(i int) error) bool {
	consistent := 0
	var first error
	for i := 0; i < n; i++ {
		if err := cycle(i); err == nil {
			consistent++
		} else if first == nil {
			first = err
		}
	}
	campTel.Record(n, consistent)
	campTel.Crashes.Add(uint64(n))
	status := "OK"
	if consistent != n {
		status = "FAILED"
	}
	fmt.Printf("%-55s %3d/%3d consistent  %s\n", name, consistent, n, status)
	if first != nil {
		fmt.Printf("    failure: %v\n", first)
	}
	return consistent == n
}

// runHarness runs the Section 5.2 rows, then the hazard row. Each
// crash draws its shape from its own seed, so a long run explores the
// configuration space: Threads in [1, threads], HighKeys and Buckets in
// 2^[8,13], and the window of device stores the crash lands in. A
// negative rescue is drawn from the seed too: non-TSP mode flushes its
// log ahead of its data, so it must recover under any rescue fraction.
func runHarness(n, threads int, seed int64) bool {
	ok := true
	for _, row := range []struct {
		name    string
		variant harness.Variant
		rescue  float64
	}{
		{"non-blocking + TSP rescue", harness.NonBlocking, 1},
		{"atlas log-only (TSP mode) + TSP rescue", harness.MutexAtlasTSP, 1},
		{"atlas log+flush (non-TSP) + TSP rescue", harness.MutexAtlasNonTSP, 1},
		{"atlas log+flush (non-TSP) + NO rescue", harness.MutexAtlasNonTSP, 0},
		{"atlas log+flush (non-TSP) + seeded partial rescue", harness.MutexAtlasNonTSP, -1},
	} {
		ok = report(row.name, n, func(i int) error {
			rng := rand.New(rand.NewSource(seed + int64(i)*1000003))
			cfg := harness.Config{
				Variant:  row.variant,
				Threads:  1 + rng.Intn(threads),
				HighKeys: 1 << (8 + rng.Intn(6)),
				Buckets:  1 << (8 + rng.Intn(6)),
				Seed:     rng.Int63(),
			}
			opts := harness.CrashOptions{
				RescueFraction: row.rescue,
				MinRun:         2_000,
				MaxRun:         uint64(1+rng.Intn(15)) * 5_000,
			}
			if opts.RescueFraction < 0 {
				opts.RescueFraction = rng.Float64()
			}
			r, err := harness.RunCrash(cfg, opts)
			if err == nil && !r.OK() {
				err = fmt.Errorf("%s (recovery err: %v; threads=%d |H|=%d buckets=%d seed=%d)",
					r, r.RecoveryErr, cfg.Threads, cfg.HighKeys, cfg.Buckets, cfg.Seed)
			}
			return err
		}) && ok
	}

	// A half-completed rescue (or cache eviction having persisted an
	// arbitrary subset of stores) leaves TSP mode's unflushed undo log
	// partly gone while some uncommitted data stores are durable: the
	// mixed outcome that corrupts. A total loss would merely revert to
	// the last durable state.
	cfg := harness.Config{Variant: harness.MutexAtlasTSP, Threads: threads, Seed: seed}
	camp, err := harness.Campaign(cfg, harness.CrashOptions{RescueFraction: 0.5}, n)
	if err != nil {
		fmt.Printf("    hazard: %v\n", err)
	}
	fmt.Printf("%-55s %3d/%3d consistent  expected: recovery not guaranteed\n",
		"atlas log-only (TSP mode) + HALF rescue  [hazard]", camp.Consistent, camp.Runs)
	return ok
}
