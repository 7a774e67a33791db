// Package stats provides the small statistical helpers the benchmark
// harness and command-line tools use to summarize repeated measurements:
// streaming mean/variance (Welford) and order statistics.
package stats

import (
	"math"
	"sort"
)

// Sample accumulates observations for summary statistics.
type Sample struct {
	values []float64
	mean   float64
	m2     float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	// Welford's online update keeps mean/variance numerically stable.
	delta := v - s.mean
	s.mean += delta / float64(len(s.values))
	s.m2 += delta * (v - s.mean)
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.values) }

// Merge folds every observation of other into s — the per-worker
// aggregation step the harness previously hand-rolled over the exposed
// slice. Merging a sample into itself is safe (the count is captured
// before any append).
func (s *Sample) Merge(other *Sample) {
	if other == nil {
		return
	}
	n := len(other.values)
	for i := 0; i < n; i++ {
		s.Add(other.values[i])
	}
}

// Mean returns the sample mean (0 with no observations).
func (s *Sample) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Sample) Var() float64 {
	if len(s.values) < 2 {
		return 0
	}
	return s.m2 / float64(len(s.values)-1)
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Var()) }

// Max returns the largest observation (0 with none).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on a sorted copy.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
