// Command faultinject runs the Section 5.2 fault-injection experiment:
// it repeatedly crashes the running map workload at uniformly random
// instants (the in-process analogue of the paper's SIGKILL), recovers,
// and has the recovery observer verify the integrity invariants
// (Equations 1 and 2) plus the structural invariants of the map.
//
// The default campaign covers the paper's claim — hundreds of crashes,
// all recovering consistently — for the fortified variants under a full
// TSP rescue, and for Atlas non-TSP mode under a crash with NO rescue.
// With -hazard it additionally demonstrates the failure mode the TSP
// framework predicts: Atlas TSP mode crashed WITHOUT its rescue.
//
// The durability-tier campaign (see durability.go) crashes a full cache
// server under mixed durable/relaxed/wait-barrier traffic and holds each
// tier to its crash contract: durable and barrier-covered writes always
// survive, relaxed losses stay above the recovered epoch frontier.
// -durability-only runs just that campaign (the pre-merge gate's shape);
// -durability-cycles sets its crash-cycle count.
//
// The exactly-once campaign (see exactlyonce.go) runs a replicated
// primary/follower pair under a sessioned retry storm — every mutation
// resent as a lost-ack duplicate — with a mid-storm power failure and an
// end-of-cycle follower promotion, holding the seq=<n> dedup window to
// the detectable-operation contract: no duplicate ever applies twice,
// on the recovered primary or the promoted follower. -exactly-once runs
// just that campaign; -exactly-once-cycles sets its cycle count.
//
// The cluster campaign (see cluster.go) runs a three-node cluster
// behind a routing proxy under the same duplicate-send storm, crashes
// one owning node mid-storm, then migrates every one of its slots away
// while traffic continues — holding the cluster to zero acked-write
// loss across the migration flips, exactly-once replay on whichever
// node owns each key afterwards, MOVED correctness on the old owner,
// and Eq 1 & 2 on every node. -cluster runs just that campaign;
// -cluster-cycles sets its cycle count.
//
// Every campaign also tallies into the telemetry registry's campaign_*
// vocabulary; the final "STAT campaign_* <n>" lines are the same schema
// a server's `stats` command speaks, so campaign results aggregate and
// diff with the shared Snapshot arithmetic.
//
// Usage:
//
//	faultinject [-n 100] [-threads 8] [-seed 1] [-hazard]
//	            [-durability-only] [-durability-cycles 10]
//	            [-exactly-once] [-exactly-once-cycles 4]
//	            [-cluster] [-cluster-cycles 3]
package main

import (
	"flag"
	"fmt"
	"os"

	"tsp/internal/harness"
	"tsp/internal/telemetry"
)

// campTel accumulates every campaign's outcome in the telemetry
// registry's campaign_* vocabulary (see printCampaignStats).
var campTel = &telemetry.CampaignStats{}

// printCampaignStats renders the accumulated campaign counters in the
// servers' STAT vocabulary — one schema for campaigns and servers.
func printCampaignStats() {
	fmt.Println()
	telemetry.Text(os.Stdout, telemetry.CampaignRows.Bind(campTel))
}

func main() {
	n := flag.Int("n", 100, "crashes to inject per configuration")
	threads := flag.Int("threads", 8, "worker threads")
	seed := flag.Int64("seed", 1, "base seed")
	hazard := flag.Bool("hazard", false, "also run TSP-mode-without-rescue to demonstrate the hazard")
	durOnly := flag.Bool("durability-only", false, "run only the durability-tier cache-server campaign")
	durCycles := flag.Int("durability-cycles", 10, "crash cycles in the durability-tier campaign")
	eoOnly := flag.Bool("exactly-once", false, "run only the exactly-once retry campaign (replicated pair, crash + promote)")
	eoCycles := flag.Int("exactly-once-cycles", 4, "crash+promote cycles in the exactly-once campaign")
	clOnly := flag.Bool("cluster", false, "run only the cluster campaign (3 nodes + proxy, crash + slot rebalance)")
	clCycles := flag.Int("cluster-cycles", 3, "crash+rebalance cycles in the cluster campaign")
	flag.Parse()

	if *durOnly {
		ok := runDurability(*durCycles, *threads, *seed)
		printCampaignStats()
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *eoOnly {
		ok := runExactlyOnce(*eoCycles, *threads, *seed)
		printCampaignStats()
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *clOnly {
		ok := runCluster(*clCycles, *threads, *seed)
		printCampaignStats()
		if !ok {
			os.Exit(1)
		}
		return
	}

	type scenario struct {
		name    string
		variant harness.Variant
		rescue  float64
		expect  string // "all" = every run must be consistent
	}
	scenarios := []scenario{
		{"non-blocking + TSP rescue", harness.NonBlocking, 1, "all"},
		{"atlas log-only (TSP mode) + TSP rescue", harness.MutexAtlasTSP, 1, "all"},
		{"atlas log+flush (non-TSP) + TSP rescue", harness.MutexAtlasNonTSP, 1, "all"},
		{"atlas log+flush (non-TSP) + NO rescue", harness.MutexAtlasNonTSP, 0, "all"},
	}
	if *hazard {
		// A half-completed rescue (or equivalently, cache eviction having
		// persisted an arbitrary subset of stores) is the dangerous case
		// for TSP mode: the unflushed undo log is partially gone while
		// some uncommitted data stores are durable. A total loss
		// (rescue=0) would merely revert to the last fully durable state,
		// which is consistent; it is the *mixed* outcome that corrupts.
		scenarios = append(scenarios,
			scenario{"atlas log-only (TSP mode) + HALF rescue  [hazard demo]", harness.MutexAtlasTSP, 0.5, "some-may-fail"})
	}

	exitCode := 0
	for _, sc := range scenarios {
		cfg := harness.Config{
			Variant: sc.variant,
			Threads: *threads,
			Seed:    *seed,
		}
		camp, err := harness.Campaign(cfg, harness.CrashOptions{RescueFraction: sc.rescue}, *n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", sc.name, err)
			os.Exit(1)
		}
		// The hazard demo is excluded from the shared tally: its failures
		// are the expected demonstration, not campaign inconsistency.
		if sc.expect == "all" {
			campTel.Record(camp.Runs, camp.Consistent)
			campTel.Crashes.Add(uint64(camp.Runs))
		}
		status := "OK"
		if sc.expect == "all" && !camp.OK() {
			status = "FAILED"
			exitCode = 1
		}
		if sc.expect != "all" {
			status = fmt.Sprintf("expected: recovery not guaranteed (observed %d/%d consistent)",
				camp.Consistent, camp.Runs)
		}
		fmt.Printf("%-55s %3d/%3d consistent  %s\n", sc.name, camp.Consistent, camp.Runs, status)
		for i, f := range camp.Failures {
			if sc.expect == "all" && i < 3 {
				fmt.Printf("    failure: %s (recovery err: %v)\n", f, f.RecoveryErr)
			}
		}
	}
	// The multi-engine campaign crashes map and skip-list writers
	// sharing one heap (see multiengine.go).
	if !runMultiEngine(*n, *threads, *seed) {
		exitCode = 1
	}
	// The durability-tier campaign crashes the cache server under
	// mixed-tier wire traffic (see durability.go).
	if !runDurability(*durCycles, *threads, *seed) {
		exitCode = 1
	}
	// The exactly-once campaign holds the session dedup window to its
	// retry contract across crash and promotion (see exactlyonce.go).
	if !runExactlyOnce(*eoCycles, *threads, *seed) {
		exitCode = 1
	}
	// The cluster campaign holds the routing tier to zero acked-write
	// loss across crash and slot rebalance (see cluster.go).
	if !runCluster(*clCycles, *threads, *seed) {
		exitCode = 1
	}
	printCampaignStats()
	os.Exit(exitCode)
}
