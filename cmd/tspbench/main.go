// Command tspbench regenerates the paper's Table 1: throughput of the
// four map variants (mutex-based with no Atlas, Atlas log-only = TSP
// mode, Atlas log+flush = non-TSP mode, and the lock-free skip list) on
// the desktop and server platform profiles, followed by the derived
// overhead and speedup percentages the paper quotes.
//
// With -json the same results are additionally written as a
// machine-readable report to BENCH_tspbench.json (see benchReport), so
// perf trajectories can be tracked across commits without scraping the
// human-readable tables.
//
// The served system (the cache server, the proxy) is measured by the
// repo benchmark under bench/, with repeat runs and a spread; this
// command measures only the map variants the paper compares.
//
// Usage:
//
//	tspbench [-duration 2s] [-seed 1] [-profiles desktop,server] [-runs 3]
//	         [-latency] [-json] [-out BENCH_tspbench.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tsp/internal/harness"
	"tsp/internal/platform"
)

// benchCell is one (profile, variant) measurement in the JSON report.
// Throughput fields are in millions of worker iterations per second
// (Iterations is the best run's); latency fields are nanoseconds. Fields
// that don't apply to the mode are omitted, and so is a one-run cell's
// zero stddev.
type benchCell struct {
	Profile string `json:"profile"`
	Variant string `json:"variant"`
	Threads int    `json:"threads"`
	Runs    int    `json:"runs,omitempty"`

	BestMIterPerSec   float64 `json:"best_miter_per_sec,omitempty"`
	MeanMIterPerSec   float64 `json:"mean_miter_per_sec,omitempty"`
	StddevMIterPerSec float64 `json:"stddev_miter_per_sec,omitempty"`

	Iterations uint64  `json:"iterations,omitempty"`
	P50Ns      float64 `json:"p50_ns,omitempty"`
	P90Ns      float64 `json:"p90_ns,omitempty"`
	P99Ns      float64 `json:"p99_ns,omitempty"`
	MaxNs      float64 `json:"max_ns,omitempty"`
	MeanNs     float64 `json:"mean_ns,omitempty"`
}

// benchDerived carries the paper's headline percentages for one profile.
type benchDerived struct {
	Profile             string  `json:"profile"`
	LogOnlyOverheadPct  float64 `json:"log_only_overhead_pct"`
	LogFlushOverheadPct float64 `json:"log_flush_overhead_pct"`
	TSPSpeedupPct       float64 `json:"tsp_speedup_pct"`
}

// benchReport is the top-level JSON document.
type benchReport struct {
	Mode        string         `json:"mode"` // "throughput" or "latency"
	DurationSec float64        `json:"duration_sec"`
	Seed        int64          `json:"seed"`
	Timestamp   string         `json:"timestamp"`
	Cells       []benchCell    `json:"cells"`
	Derived     []benchDerived `json:"derived,omitempty"`
}

func main() {
	duration := flag.Duration("duration", 2*time.Second, "measurement window per cell")
	seed := flag.Int64("seed", 1, "workload seed")
	profiles := flag.String("profiles", "desktop,server", "comma-separated platform profiles")
	runs := flag.Int("runs", 1, "runs per cell (run r uses seed+r; best, mean and stddev reported, ratios from the best)")
	latency := flag.Bool("latency", false, "measure per-iteration latency distributions instead of throughput")
	jsonOut := flag.Bool("json", false, "also write a machine-readable report (see -out)")
	outPath := flag.String("out", "BENCH_tspbench.json", "report path used with -json")
	flag.Parse()

	var profs []platform.Profile
	for _, name := range strings.Split(*profiles, ",") {
		p, err := platform.ByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		profs = append(profs, p)
	}

	report := benchReport{
		Mode:        "throughput",
		DurationSec: duration.Seconds(),
		Seed:        *seed,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	if *latency {
		report.Mode = "latency"
	}

	if *latency {
		runLatencyMode(profs, *duration, *seed, &report)
	} else {
		runTable1(profs, *duration, *seed, *runs, &report)
	}

	if *jsonOut {
		if err := writeReport(*outPath, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d cells)\n", *outPath, len(report.Cells))
	}
}

func runLatencyMode(profs []platform.Profile, duration time.Duration, seed int64, report *benchReport) {
	fmt.Println("Per-iteration latency distributions (extension experiment: the tail cost")
	fmt.Println("of prevention — synchronous flushing — versus TSP procrastination)")
	fmt.Println()
	for _, prof := range profs {
		fmt.Printf("== %s ==\n", prof)
		for _, v := range harness.AllVariants() {
			cfg := harness.Config{Variant: v, Duration: duration, Seed: seed}.FromProfile(prof)
			res, err := harness.RunLatency(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("  %s\n", res)
			report.Cells = append(report.Cells, benchCell{
				Profile:    prof.Name,
				Variant:    v.String(),
				Threads:    res.Threads,
				Iterations: res.Iterations,
				P50Ns:      float64(res.P50),
				P90Ns:      float64(res.P90),
				P99Ns:      float64(res.P99),
				MaxNs:      float64(res.Max),
				MeanNs:     float64(res.Mean),
			})
		}
		fmt.Println()
	}
}

func runTable1(profs []platform.Profile, duration time.Duration, seed int64, runs int, report *benchReport) {
	fmt.Println("Reproducing Table 1 (throughput in millions of worker iterations per second;")
	fmt.Println("each iteration = 3 atomic map operations, as in Section 5.1)")
	fmt.Println()
	rows, err := harness.Table1(profs, duration, seed, runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(harness.FormatTable1(rows))
	for _, row := range rows {
		for _, v := range harness.AllVariants() {
			best, rates := row.Best(v), row.Rates(v)
			report.Cells = append(report.Cells, benchCell{
				Profile:           row.Profile.Name,
				Variant:           v.String(),
				Threads:           best.Threads,
				Runs:              rates.N(),
				BestMIterPerSec:   best.IterPerSec() / 1e6,
				MeanMIterPerSec:   rates.Mean(),
				StddevMIterPerSec: rates.Stddev(),
				Iterations:        best.Iterations,
			})
		}
		lo, lf, sp := row.Overheads()
		report.Derived = append(report.Derived, benchDerived{
			Profile:             row.Profile.Name,
			LogOnlyOverheadPct:  lo * 100,
			LogFlushOverheadPct: lf * 100,
			TSPSpeedupPct:       sp * 100,
		})
	}
}

func writeReport(path string, report benchReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
