package main

import (
	"runtime"
	"sort"
	"time"
)

// warmPasses run before measuring starts, so that connection threads
// are registered and buffers have grown.
const warmPasses = 2

// run is one workload being measured: the instance, every pass it has
// made and the counter snapshots around them.
type run struct {
	sp        spec
	in        *instance
	seed      int64
	epoch     time.Time // the process's time zero, for span clocks
	maxPasses int       // sizes the sample buffers
	layers    bool      // fetch stats around passes (traced runs and the full report)
	setupS    []float64
	untraced  []passResult
	traced    []passResult
	deltas    []passDelta // one per untraced pass, when layers is set
	turn      int         // untraced passes per turn of the ring
	lastSrv   counters    // server 0's latest stats, for its histograms
	lat       []float64   // scratch: one pass's latency samples, sorted
	from      []int       // scratch: where each connection's samples of the pass begin
	extra     int         // requests outside passes: warm-up and audit
	failed    int
	notes     []string
}

// passDelta is the servers' counter movement over one pass.
type passDelta struct {
	before, after counters // summed over the workload's servers
	route         [2]counters
	requests      int
	wall          time.Duration
}

// newRun prepares a run of sp; setUp gives it its instance.
func newRun(sp spec, seed int64, epoch time.Time, maxPasses int, layers bool) *run {
	return &run{sp: sp, seed: seed, epoch: epoch, maxPasses: maxPasses, layers: layers, turn: ringPasses}
}

// setUp sets the workload up, in place of the instance of the set-up
// before it, and records how long that took.
func (r *run) setUp() error {
	r.close()
	runtime.GC()
	t0 := time.Now()
	in, err := setUp(r.sp, r.seed, r.epoch, r.maxPasses+warmPasses)
	if err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	r.in = in
	return nil
}

// warm runs the warm-up passes on the latest instance and leaves it at
// the head of its ring with empty sample buffers and reset counters.
func (r *run) warm() error {
	for i := 0; i < warmPasses; i++ {
		warm, err := r.in.pass(false)
		if err != nil {
			return err
		}
		r.extra += warm.requests
		r.failed += warm.failed
	}
	r.in.next = 0
	for _, lc := range r.in.load {
		lc.rec.lat, lc.rec.getRTT, lc.rec.setRTT = lc.rec.lat[:0], lc.rec.getRTT[:0], lc.rec.setRTT[:0]
		lc.rec.waits, lc.rec.spans = lc.rec.waits[:0], lc.rec.spans[:0]
	}
	if r.layers {
		for _, c := range r.in.ctl {
			if _, err := c.command("stats reset", false); err != nil {
				return err
			}
		}
	}
	return nil
}

// prepare sets every run up `setups` times, round-robin — set-up 1 of
// every workload, then set-up 2 — and warms them. The first round maps
// the memory all of them need; from the second on a set-up finds the
// memory of the instance it replaces, so no workload's median depends
// on its place in the order. Measuring then starts from a collected
// heap: what the workloads themselves keep alive.
func prepare(runs []*run, setups int) error {
	for i := 0; i < setups; i++ {
		for _, r := range runs {
			if err := r.setUp(); err != nil {
				return err
			}
		}
	}
	for _, r := range runs {
		if err := r.warm(); err != nil {
			return err
		}
	}
	runtime.GC()
	return nil
}

func (r *run) close() {
	if r.in != nil {
		r.in.close()
		r.in = nil
	}
}

// snapshot sums `stats` over the workload's servers and fetches the
// proxy's route counters.
func (r *run) snapshot() (sum, route counters, err error) {
	sum = counters{}
	for i, c := range r.in.ctl {
		st, err := c.stats()
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			r.lastSrv = st
		}
		sum.add(st)
	}
	if r.in.pctl != nil {
		if route, err = r.in.pctl.stats(); err != nil {
			return nil, nil, err
		}
	}
	return sum, route, nil
}

// step runs one pass. No collection is forced between passes: a pass is
// an eighth of a second, so forcing one would keep every collection out
// of the timed region and a change that allocates more would pay for
// the allocation only. Collections fall where the runtime puts them and
// passResult.gcCycles says which passes held one.
func (r *run) step(traced bool) error {
	var pd passDelta
	var err error
	takeDelta := r.layers && !traced
	if takeDelta {
		if pd.before, pd.route[0], err = r.snapshot(); err != nil {
			return err
		}
	}
	if traced {
		r.reserveSpans()
	}
	r.from = r.from[:0]
	for _, lc := range r.in.load {
		r.from = append(r.from, len(lc.rec.lat))
	}
	res, err := r.in.pass(traced)
	if err != nil {
		return err
	}
	r.lat = r.lat[:0]
	for i, lc := range r.in.load {
		r.lat = append(r.lat, lc.rec.lat[r.from[i]:]...)
	}
	sort.Float64s(r.lat)
	res.p50, res.p90 = percentile(r.lat, 0.50), percentile(r.lat, 0.90)
	r.failed += res.failed
	if traced {
		r.traced = append(r.traced, res)
		return nil
	}
	r.untraced = append(r.untraced, res)
	if takeDelta {
		if pd.after, pd.route[1], err = r.snapshot(); err != nil {
			return err
		}
		pd.requests, pd.wall = res.requests, res.wall
		r.deltas = append(r.deltas, pd)
	}
	return nil
}

// reserveSpans grows the span buffers outside the timed pass.
func (r *run) reserveSpans() {
	per := r.sp.bursts/ringPasses + 1
	if r.sp.name == "relaxed_wait" {
		per *= groupBursts
	}
	for _, lc := range r.in.load {
		if cap(lc.rec.spans)-len(lc.rec.spans) < per {
			grown := make([]burstTimes, len(lc.rec.spans), 2*cap(lc.rec.spans)+per)
			copy(grown, lc.rec.spans)
			lc.rec.spans = grown
		}
	}
}

// finish audits the keyspace against the model and gathers the notes.
func (r *run) finish() error {
	n, bad, err := r.in.audit()
	if err != nil {
		return err
	}
	r.extra += n
	r.failed += bad
	for _, lc := range r.in.load {
		r.notes = append(r.notes, lc.rec.notes...)
	}
	return nil
}

func (r *run) attempted() int {
	n := r.extra
	for _, p := range r.untraced {
		n += p.requests
	}
	for _, p := range r.traced {
		n += p.requests
	}
	return n
}

// stealFrac is the share of the host's CPU time, over the untraced
// passes, that the hypervisor gave to other tenants: how disturbed the
// run was, by the guest kernel's own accounting.
func (r *run) stealFrac() float64 {
	var total, stolen uint64
	for _, p := range r.untraced {
		total, stolen = total+p.jiffies, stolen+p.stolen
	}
	return ratio(float64(stolen), float64(total))
}

// pooled returns the samples pick selects from every connection, sorted.
func (r *run) pooled(pick func(*recorder) []float64) []float64 {
	var all []float64
	for _, lc := range r.in.load {
		all = append(all, pick(&lc.rec)...)
	}
	sort.Float64s(all)
	return all
}

// perPass extracts one value per pass.
func perPass(ps []passResult, f func(passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func passP50(p passResult) float64 { return p.p50 }

func kreqOf(ps []passResult) []float64 { return perPass(ps, passResult.kreqPerSec) }

// bestDecile is the quantile of passes the end-to-end metrics report:
// the pass that a tenth of the passes beat. The host this benchmark was
// defined on (a shared 2-vCPU VM) disturbs a run in one direction only
// — a pass is slowed, never sped up — and for minutes at a time, so the
// median pass moved by 30% between sets of runs of the same code while
// the best-decile pass moved by 2-5%. Everything periodic inside the
// program (the 5 ms epoch clock, batch drains) happens many times in
// every pass, so it is in the best passes as much as in the others.
const bestDecile = 0.10

// bestPass is the q'th quantile over the untraced passes of f.
func (r *run) bestPass(q float64, f func(passResult) float64) float64 {
	return percentile(sortedCopy(perPass(r.untraced, f)), q)
}

// endToEnd computes the gated metrics from the untraced passes.
func (r *run) endToEnd() map[string]float64 {
	return map[string]float64{
		"kreq_s":  r.bestPass(1-bestDecile, passResult.kreqPerSec),
		"p50_us":  r.bestPass(bestDecile, passP50) / 1e3,
		"setup_s": median(r.setupS),
	}
}
