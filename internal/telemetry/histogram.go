package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the histogram's fixed bucket count: bucket i holds
// observations whose nanosecond value has bit length i, i.e. values in
// [2^(i-1), 2^i). Bucket 0 holds exact zeros. 65 buckets cover every
// possible uint64 duration, so Observe never needs bounds checks or
// configuration — the power-of-two resolution (quantiles accurate to a
// factor of two) is plenty for the p50/p95/p99 attribution the stats
// surfaces report.
const histBuckets = 65

// Histogram is a fixed-bucket, lock-free latency histogram. All methods
// are nil-receiver safe; a nil *Histogram is "telemetry off".
type Histogram struct {
	// Buckets are padless atomic words: one histogram's buckets are
	// updated by the same operation stream, so per-bucket padding would
	// buy nothing.
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64 // total observed nanoseconds (for Mean)
}

// Observe records one duration. Negative durations are clamped to zero
// (the clock went backwards; the sample is still an event).
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n events that took d each for the price of one: the
// commands of one commit plan share its completion time.
func (h *Histogram) ObserveN(d time.Duration, n uint64) {
	if h == nil || n == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[bits.Len64(uint64(d))].Add(n)
	h.sum.Add(uint64(d) * n)
}

// ObserveValue records an arbitrary uint64 magnitude (a batch size, a
// byte count) in the same power-of-two buckets. Quantiles over a
// value-observed histogram read back as plain integers through the
// returned Duration's numeric value; Histogram imposes no unit, only
// bit-length bucketing.
func (h *Histogram) ObserveValue(v uint64) {
	if h == nil {
		return
	}
	h.counts[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot returns a point-in-time copy of the buckets. The copy is not
// atomic across buckets; concurrent observations may straddle it, which
// distorts a quantile by at most the in-flight events.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.add(h)
	return s
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// HistogramSnapshot is a point-in-time copy of a Histogram, and the unit
// of aggregation: shard snapshots Merge into a whole-server view.
type HistogramSnapshot struct {
	Counts [histBuckets]uint64
	Sum    uint64
}

// Count returns the number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the average observation (0 with none).
func (s HistogramSnapshot) Mean() time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(s.Sum / n)
}

// Quantile returns the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket holding that rank — a conservative (never underestimating)
// answer at power-of-two resolution. It returns 0 with no observations.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket.
func (s HistogramSnapshot) Max() time.Duration {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			return bucketUpper(i)
		}
	}
	return 0
}

// Merge adds other's buckets into s.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Sum += other.Sum
}

// add merges a live histogram's buckets into s (nothing on nil).
func (s *HistogramSnapshot) add(h *Histogram) {
	if h == nil {
		return
	}
	for i := range h.counts {
		s.Counts[i] += h.counts[i].Load()
	}
	s.Sum += h.sum.Load()
}

// bucketUpper returns bucket i's inclusive upper bound in nanoseconds.
func bucketUpper(i int) time.Duration {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(uint64(1)<<i - 1)
}
