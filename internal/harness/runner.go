package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/skiplist"
	"tsp/internal/stack"
)

// ThroughputResult reports one failure-free measurement run.
type ThroughputResult struct {
	Variant    Variant
	Threads    int
	Iterations uint64        // total completed worker iterations
	Elapsed    time.Duration // wall-clock measurement window
	DevStats   nvm.StatsSnapshot
}

// IterPerSec returns the Table-1 metric: total worker iterations per
// second (each iteration performs three atomic map operations).
func (r ThroughputResult) IterPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Iterations) / r.Elapsed.Seconds()
}

// String renders the result the way Table 1 does (millions of
// iterations per second).
func (r ThroughputResult) String() string {
	return fmt.Sprintf("%-16s %d threads: %8.3f M iter/s (%d iters in %v)",
		r.Variant, r.Threads, r.IterPerSec()/1e6, r.Iterations, r.Elapsed.Round(time.Millisecond))
}

// RunThroughput measures failure-free throughput of the configured
// variant for cfg.Duration.
func RunThroughput(cfg Config) (ThroughputResult, error) {
	cfg.fillDefaults()
	d, err := build(cfg)
	if err != nil {
		return ThroughputResult{}, err
	}
	// The evictor stays off during throughput measurement: on real
	// hardware cache write-back is free background work by the memory
	// system, but the simulated evictor is a goroutine that would steal
	// CPU from the workers and distort exactly the ratios Table 1
	// measures. Crash runs keep it (RunCrash), where its effect — an
	// arbitrary subset of stores already durable at the crash — is the
	// point.

	workers := make([]*worker, cfg.Threads)
	for i := range workers {
		w, err := d.newWorker(i)
		if err != nil {
			return ThroughputResult{}, err
		}
		workers[i] = w
	}

	stop := make(chan struct{})
	errs := make(chan error, cfg.Threads)
	var wg sync.WaitGroup
	statsBefore := d.dev.Stats()
	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := d.iterate(w, i); err != nil {
					if !errors.Is(err, ErrTerminated) {
						errs <- err
					}
					return
				}
			}
		}(w)
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return ThroughputResult{}, err
	}

	res := ThroughputResult{
		Variant:  cfg.Variant,
		Threads:  cfg.Threads,
		Elapsed:  elapsed,
		DevStats: d.dev.Stats().Sub(statsBefore),
	}
	for _, w := range workers {
		res.Iterations += w.iters
	}
	return res, nil
}

// CrashResult reports one fault-injection run.
type CrashResult struct {
	Variant        Variant
	RescueFraction float64
	IterationsRun  uint64 // iterations completed before the crash signal
	Recovered      bool   // recovery machinery completed without error
	Invariants     InvariantReport
	RecoveryErr    error
}

// OK reports whether the run recovered to a consistent state.
func (r CrashResult) OK() bool { return r.Recovered && r.Invariants.OK() }

// String renders the result for logs.
func (r CrashResult) String() string {
	verdict := "CONSISTENT"
	if !r.OK() {
		verdict = "INCONSISTENT"
	}
	return fmt.Sprintf("%-16s rescue=%.2f iters=%d -> %s (%s)",
		r.Variant, r.RescueFraction, r.IterationsRun, verdict, r.Invariants)
}

// CrashOptions parameterizes fault injection.
type CrashOptions struct {
	// RescueFraction is passed to the device crash: 1 = full TSP rescue,
	// 0 = no rescue.
	RescueFraction float64

	// MinRun/MaxRun bound the seeded, uniformly drawn number of device
	// stores the workload issues before the crash. Defaults 10k/100k —
	// roughly 2–20 ms of the mutex variants at a few thousand stores
	// per millisecond.
	MinRun, MaxRun uint64
}

func (o *CrashOptions) fillDefaults() {
	if o.MinRun == 0 {
		o.MinRun = 10_000
	}
	if o.MaxRun == 0 {
		o.MaxRun = 100_000
	}
}

// RunCrash executes the Section 5 fault-injection experiment once:
// start the workload, crash the machine after a seeded number of stores
// (mimicking the paper's SIGKILL, which abruptly terminates all
// threads), run recovery, and let the recovery observer verify the
// invariants.
func RunCrash(cfg Config, opts CrashOptions) (CrashResult, error) {
	cfg.fillDefaults()
	opts.fillDefaults()
	d, err := build(cfg)
	if err != nil {
		return CrashResult{}, err
	}
	d.dev.StartEvictor()

	workers := make([]*worker, cfg.Threads)
	for i := range workers {
		w, err := d.newWorker(i)
		if err != nil {
			return CrashResult{}, err
		}
		workers[i] = w
	}

	// Crash after a seeded number of stores while the workload is hot:
	// the paper's SIGKILL at an arbitrary instant, counted in stores
	// rather than wall time, so a saturated host cannot land it before
	// the workers have started. It fires inside whichever worker issues
	// that store; every worker stops at its next iteration boundary.
	rng := rand.New(rand.NewSource(cfg.Seed))
	after := opts.MinRun + uint64(rng.Int63n(int64(opts.MaxRun-opts.MinRun)+1))
	crash := nvm.CrashOptions{RescueFraction: opts.RescueFraction, Seed: cfg.Seed}
	d.dev.ArmCrashAfter(after, crash)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := uint64(1); !d.dev.Crashed(); i++ {
				if err := d.iterate(w, i); err != nil {
					return // terminated by crash (or allocator exhaustion post-crash)
				}
			}
		}(w)
	}
	wg.Wait()
	// The cache controller dies with the machine. Workers that all failed
	// before the countdown ran out leave the crash to this call; after an
	// armed crash it is a no-op.
	d.dev.StopEvictor()
	d.dev.Crash(crash)

	res := CrashResult{Variant: cfg.Variant, RescueFraction: opts.RescueFraction}
	for _, w := range workers {
		res.IterationsRun += w.iters
	}

	// New incarnation: restart, recover, observe.
	d.dev.Restart()
	d2, err := recoverDeployment(cfg, d.dev)
	if err != nil {
		res.RecoveryErr = err
		return res, nil
	}
	res.Recovered = true
	res.Invariants = checkInvariants(d2)
	return res, nil
}

// recoverDeployment reopens the heap, runs Atlas recovery (a no-op with
// GC for the non-blocking variant) and reattaches the store. The
// mutex-based variants go through the shared stack recovery path; the
// non-blocking variant has no runtime or map to rebuild, only the skip
// list at the root.
func recoverDeployment(cfg Config, dev *nvm.Device) (*deployment, error) {
	cfg.fillDefaults()
	switch cfg.Variant {
	case NonBlocking:
		heap, err := pheap.Open(dev)
		if err != nil {
			return nil, err
		}
		// Recover is a directory-less no-op here but still runs the
		// recovery-time GC the observer expects.
		if _, err := atlas.Recover(heap); err != nil {
			return nil, err
		}
		l, err := skiplist.Open(heap, heap.Root())
		if err != nil {
			return nil, err
		}
		return &deployment{cfg: cfg, dev: dev, heap: heap, store: &nonBlockingStore{l: l}}, nil
	default:
		st, err := stack.Reattach(dev, cfg.stackOptions()...)
		if err != nil {
			return nil, err
		}
		return &deployment{cfg: cfg, dev: st.Dev, heap: st.Heap, rt: st.RT, store: &mutexStore{m: st.Map}}, nil
	}
}
