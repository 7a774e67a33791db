package harness

import (
	"fmt"
	"strings"
	"time"

	"tsp/internal/platform"
	"tsp/internal/stats"
)

// Table1Row holds one platform's measurements: every run of each of the
// four variants.
type Table1Row struct {
	Profile platform.Profile
	Runs    map[Variant][]ThroughputResult
}

// Table1 reproduces the paper's Table 1: for each platform profile,
// measure the throughput of the four variants with the profile's thread
// count, `runs` times per cell (run r uses seed+r) for `duration` each.
func Table1(profiles []platform.Profile, duration time.Duration, seed int64, runs int) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(profiles))
	for _, prof := range profiles {
		row := Table1Row{Profile: prof, Runs: map[Variant][]ThroughputResult{}}
		for _, v := range AllVariants() {
			for r := 0; r < max(runs, 1); r++ {
				cfg := Config{Variant: v, Duration: duration, Seed: seed + int64(r)}.FromProfile(prof)
				res, err := RunThroughput(cfg)
				if err != nil {
					return nil, fmt.Errorf("table1 %s/%s: %w", prof.Name, v, err)
				}
				row.Runs[v] = append(row.Runs[v], res)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Best returns v's fastest run.
func (r Table1Row) Best(v Variant) ThroughputResult {
	var best ThroughputResult
	for i, res := range r.Runs[v] {
		if i == 0 || res.IterPerSec() > best.IterPerSec() {
			best = res
		}
	}
	return best
}

// Rates returns v's runs in millions of iterations per second.
func (r Table1Row) Rates(v Variant) *stats.Sample {
	var s stats.Sample
	for _, res := range r.Runs[v] {
		s.Add(res.IterPerSec() / 1e6)
	}
	return &s
}

// Overheads derives the percentages the paper quotes from the row's best
// runs (see overheads).
func (r Table1Row) Overheads() (logOnlyOverhead, logFlushOverhead, tspSpeedup float64) {
	return overheads(r.Best(MutexNoAtlas).IterPerSec(), r.Best(MutexAtlasTSP).IterPerSec(),
		r.Best(MutexAtlasNonTSP).IterPerSec())
}

// overheads is the one formula behind Table 1's ratios: log-only and
// log+flush overhead relative to the unfortified baseline, and the
// TSP-vs-non-TSP speedup, as fractions. A zero denominator yields 0.
func overheads(base, logOnly, logFlush float64) (logOnlyOverhead, logFlushOverhead, tspSpeedup float64) {
	if base > 0 {
		logOnlyOverhead = 1 - logOnly/base
		logFlushOverhead = 1 - logFlush/base
	}
	if logFlush > 0 {
		tspSpeedup = logOnly/logFlush - 1
	}
	return
}

// FormatTable1 renders rows in the layout of the paper's Table 1: each
// cell's best run, then, when a cell has more than one run, a line of
// mean±stddev beneath its row, then the ratios.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s | %14s %14s %14s | %14s\n",
		"Platform", "Threads", "no Atlas", "log only", "log + flush", "Non-Blocking")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 96))
	line := func(label string, cell func(Variant) string) {
		fmt.Fprintf(&b, "%-19s |", label)
		for _, v := range AllVariants() {
			if v == NonBlocking {
				b.WriteString(" |")
			}
			fmt.Fprintf(&b, " %15s", cell(v))
		}
		b.WriteByte('\n')
	}
	for _, row := range rows {
		line(fmt.Sprintf("%-10s %-8d", row.Profile.Name, row.Profile.Threads), func(v Variant) string {
			return fmt.Sprintf("%.3f M/s", row.Best(v).IterPerSec()/1e6)
		})
		if n := len(row.Runs[MutexNoAtlas]); n > 1 {
			line(fmt.Sprintf("  mean±sd, %d runs", n), func(v Variant) string {
				s := row.Rates(v)
				return fmt.Sprintf("%.3f±%.3f", s.Mean(), s.Stddev())
			})
		}
	}
	fmt.Fprintf(&b, "\n")
	for _, row := range rows {
		lo, lf, sp := row.Overheads()
		fmt.Fprintf(&b, "%-10s: log-only overhead %.0f%%, log+flush overhead %.0f%%, TSP speedup over non-TSP %.0f%%\n",
			row.Profile.Name, lo*100, lf*100, sp*100)
	}
	return b.String()
}
