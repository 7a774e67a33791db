package main

import (
	"bufio"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q'th quantile (0..1) of sorted by linear
// interpolation between closest ranks, 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 quantile of xs in any order.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// passSummary condenses one value per pass (a throughput, say) into the
// estimators the benchmark reports: the median pass, the lower and
// upper quartile passes, and their distance as a share of the median.
type passSummary struct {
	median, q1, q3, iqrFrac float64
}

func summarizePasses(perPass []float64) passSummary {
	s := sortedCopy(perPass)
	ps := passSummary{
		median: percentile(s, 0.5),
		q1:     percentile(s, 0.25),
		q3:     percentile(s, 0.75),
	}
	if ps.median != 0 {
		ps.iqrFrac = (ps.q3 - ps.q1) / ps.median
	}
	return ps
}

// counters is one `stats` reply: every "STAT <name> <number>" line.
type counters map[string]float64

// parseStats reads the body of a native `stats` reply (with or without
// its END line). Lines that are not "STAT name number" — the per-shard
// breakdown, say — are skipped.
func parseStats(text string) counters {
	c := counters{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] != "STAT" {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			c[f[1]] = v
		}
	}
	return c
}

// add accumulates another server's counters (the proxy workload sums
// its nodes).
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// delta is after[name] - before[name]; a counter missing on either side
// reads as 0.
func delta(before, after counters, name string) float64 {
	return after[name] - before[name]
}

// ratio is num/den, 0 when the denominator is 0 (a layer the workload
// never entered).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
