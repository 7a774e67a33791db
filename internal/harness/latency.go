package harness

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tsp/internal/stats"
)

// LatencyResult reports the per-iteration latency distribution of one
// variant — an extension experiment the paper's framework implies but
// does not plot: preventive designs pay their synchronous flushes on the
// critical path of every update, which shows up in the tail; TSP designs
// defer that work to failure time, keeping the tail flat.
type LatencyResult struct {
	Variant    Variant
	Threads    int
	Iterations uint64
	P50        time.Duration
	P90        time.Duration
	P99        time.Duration
	Max        time.Duration
	Mean       time.Duration
}

// String renders the distribution for reports.
func (r LatencyResult) String() string {
	return fmt.Sprintf("%-16s p50=%v p90=%v p99=%v max=%v mean=%v (n=%d)",
		r.Variant, r.P50, r.P90, r.P99, r.Max, r.Mean, r.Iterations)
}

// RunLatency measures per-iteration latency for cfg.Duration. Every
// iteration is timed; the distribution is aggregated across workers.
func RunLatency(cfg Config) (LatencyResult, error) {
	cfg.fillDefaults()
	d, err := build(cfg)
	if err != nil {
		return LatencyResult{}, err
	}
	// As in RunThroughput, no crash is armed: stores record nothing.
	workers := make([]*worker, cfg.Threads)
	samples := make([]*stats.Sample, cfg.Threads)
	for i := range workers {
		w, err := d.newWorker(i)
		if err != nil {
			return LatencyResult{}, err
		}
		workers[i] = w
		samples[i] = &stats.Sample{}
	}

	stop := make(chan struct{})
	errs := make(chan error, cfg.Threads)
	var wg sync.WaitGroup
	for wi, w := range workers {
		wg.Add(1)
		go func(w *worker, sample *stats.Sample) {
			defer wg.Done()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				if err := d.iterate(w, i); err != nil {
					if !errors.Is(err, ErrTerminated) {
						errs <- err
					}
					return
				}
				sample.Add(float64(time.Since(start)))
			}
		}(w, samples[wi])
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return LatencyResult{}, err
	}

	// Merge the per-worker samples.
	var all stats.Sample
	for _, s := range samples {
		all.Merge(s)
	}
	res := LatencyResult{
		Variant:    cfg.Variant,
		Threads:    cfg.Threads,
		Iterations: uint64(all.N()),
		P50:        time.Duration(all.Percentile(50)),
		P90:        time.Duration(all.Percentile(90)),
		P99:        time.Duration(all.Percentile(99)),
		Max:        time.Duration(all.Max()),
		Mean:       time.Duration(all.Mean()),
	}
	return res, nil
}
