package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanAndVariance(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Var() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample returned nonzero statistics")
	}
}

func TestMerge(t *testing.T) {
	var a, b Sample
	for _, v := range []float64{1, 2, 3} {
		a.Add(v)
	}
	for _, v := range []float64{4, 5} {
		b.Add(v)
	}
	a.Merge(&b)
	if a.N() != 5 {
		t.Fatalf("merged N = %d, want 5", a.N())
	}
	if math.Abs(a.Mean()-3) > 1e-12 {
		t.Fatalf("merged Mean = %v, want 3", a.Mean())
	}
	if a.Max() != 5 {
		t.Fatalf("merged max = %v, want 5", a.Max())
	}
	a.Merge(nil) // nil is a no-op
	if a.N() != 5 {
		t.Fatalf("N after nil merge = %d, want 5", a.N())
	}
	// Self-merge doubles the sample instead of looping forever.
	var c Sample
	c.Add(1)
	c.Add(3)
	c.Merge(&c)
	if c.N() != 4 {
		t.Fatalf("self-merge N = %d, want 4", c.N())
	}
	if math.Abs(c.Mean()-2) > 1e-12 {
		t.Fatalf("self-merge Mean = %v, want 2", c.Mean())
	}
}

func TestMax(t *testing.T) {
	var s Sample
	for _, v := range []float64{3, -1, 7, 0} {
		s.Add(v)
	}
	if s.Max() != 7 {
		t.Fatalf("Max = %v", s.Max())
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v, want 100", got)
	}
	if got := s.Percentile(-5); got != 1 {
		t.Fatalf("clamped p-5 = %v, want 1", got)
	}
	if got := s.Percentile(200); got != 100 {
		t.Fatalf("clamped p200 = %v, want 100", got)
	}
}

func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		var sum float64
		clean := vals[:0]
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			clean = append(clean, v)
		}
		for _, v := range clean {
			s.Add(v)
			sum += v
		}
		if len(clean) == 0 {
			return s.Mean() == 0
		}
		naive := sum / float64(len(clean))
		return math.Abs(s.Mean()-naive) < 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMeanLEMax(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		for _, v := range vals {
			// Exclude magnitudes where v-mean itself overflows; Welford
			// is stable but not immune to float64 range limits.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		return s.Mean() <= s.Max()+1e-9*math.Abs(s.Max())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
