package harness

import (
	"fmt"
	"strings"
	"time"

	"tsp/internal/platform"
	"tsp/internal/telemetry"
)

// Table1Row holds the four variant measurements for one platform.
type Table1Row struct {
	Profile platform.Profile
	Results map[Variant]ThroughputResult
}

// Table1 reproduces the paper's Table 1: for each platform profile,
// measure the throughput of the four variants with the profile's thread
// count, for `duration` per cell.
func Table1(profiles []platform.Profile, duration time.Duration, seed int64) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(profiles))
	for _, prof := range profiles {
		row := Table1Row{Profile: prof, Results: map[Variant]ThroughputResult{}}
		for _, v := range AllVariants() {
			cfg := Config{Variant: v, Duration: duration, Seed: seed}.FromProfile(prof)
			res, err := RunThroughput(cfg)
			if err != nil {
				return nil, fmt.Errorf("table1 %s/%s: %w", prof.Name, v, err)
			}
			row.Results[v] = res
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Overheads derives the percentages the paper quotes from a row:
// log-only and log+flush overhead relative to the unfortified baseline,
// and the TSP-vs-non-TSP speedup.
func (r Table1Row) Overheads() (logOnlyOverhead, logFlushOverhead, tspSpeedup float64) {
	base := r.Results[MutexNoAtlas].IterPerSec()
	logOnly := r.Results[MutexAtlasTSP].IterPerSec()
	logFlush := r.Results[MutexAtlasNonTSP].IterPerSec()
	if base > 0 {
		logOnlyOverhead = 1 - logOnly/base
		logFlushOverhead = 1 - logFlush/base
	}
	if logFlush > 0 {
		tspSpeedup = logOnly/logFlush - 1
	}
	return
}

// FormatTable1 renders rows in the layout of the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s | %14s %14s %14s | %14s\n",
		"Platform", "Threads", "no Atlas", "log only", "log + flush", "Non-Blocking")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 96))
	for _, row := range rows {
		fmt.Fprintf(&b, "%-10s %-8d |", row.Profile.Name, row.Profile.Threads)
		for _, v := range []Variant{MutexNoAtlas, MutexAtlasTSP, MutexAtlasNonTSP} {
			fmt.Fprintf(&b, " %11.3f M/s", row.Results[v].IterPerSec()/1e6)
		}
		fmt.Fprintf(&b, " | %11.3f M/s\n", row.Results[NonBlocking].IterPerSec()/1e6)
	}
	fmt.Fprintf(&b, "\n")
	for _, row := range rows {
		lo, lf, sp := row.Overheads()
		fmt.Fprintf(&b, "%-10s: log-only overhead %.0f%%, log+flush overhead %.0f%%, TSP speedup over non-TSP %.0f%%\n",
			row.Profile.Name, lo*100, lf*100, sp*100)
	}
	return b.String()
}

// CampaignResult aggregates a fault-injection campaign.
type CampaignResult struct {
	Variant        Variant
	RescueFraction float64
	Runs           int
	Consistent     int
	Failures       []CrashResult // the inconsistent runs, if any
}

// OK reports whether every injected crash recovered consistently.
func (c CampaignResult) OK() bool { return c.Consistent == c.Runs }

// String renders the campaign outcome.
func (c CampaignResult) String() string {
	return fmt.Sprintf("%-16s rescue=%.2f: %d/%d crashes recovered consistently",
		c.Variant, c.RescueFraction, c.Consistent, c.Runs)
}

// Counters exports the campaign's outcome in the telemetry registry's
// campaign_* vocabulary, so campaign reports merge (Snapshot.Add) and
// diff (Snapshot.Sub) like any server stats section. Every run injects
// exactly one crash, so campaign_crashes equals campaign_runs here.
func (c CampaignResult) Counters() telemetry.Snapshot {
	var cs telemetry.CampaignStats
	cs.Record(c.Runs, c.Consistent)
	cs.Crashes.Add(uint64(c.Runs))
	return telemetry.CampaignRows.Bind(&cs).Counters()
}

// Campaign injects n crashes into the configured variant and reports how
// many recovered to a consistent state — the Section 5.2 fault-injection
// experiment ("hundreds of injected process crashes").
func Campaign(cfg Config, opts CrashOptions, n int) (CampaignResult, error) {
	res := CampaignResult{Variant: cfg.Variant, RescueFraction: opts.RescueFraction, Runs: n}
	for i := 0; i < n; i++ {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + int64(i)*1000003
		r, err := RunCrash(runCfg, opts)
		if err != nil {
			return res, fmt.Errorf("campaign run %d: %w", i, err)
		}
		if r.OK() {
			res.Consistent++
		} else {
			res.Failures = append(res.Failures, r)
		}
	}
	return res, nil
}
