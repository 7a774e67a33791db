package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// hostRecord describes where and how the numbers were taken, so that a
// report is never read without its machine.
func hostRecord(o options, runs []*run) map[string]any {
	perPass := map[string]int{}
	passes := map[string]int{}
	for _, r := range runs {
		perPass[r.sp.name] = passRequests(&r.sp)
		passes[r.sp.name] = len(r.untraced)
	}
	return map[string]any{
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"cpu":               cpuModel(),
		"kernel":            strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		"commit":            gitCommit(),
		"seed":              o.seed,
		"passes":            passes,
		"requests_per_pass": perPass,
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from the enclosing repository
// without running git; a plain checkout answers "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for ; dir != filepath.Dir(dir); dir = filepath.Dir(dir) {
		head := strings.TrimSpace(readFile(filepath.Join(dir, ".git", "HEAD")))
		if head == "" {
			continue
		}
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if c := strings.TrimSpace(readFile(filepath.Join(dir, ".git", ref))); c != "" {
				return c
			}
			return ref
		}
		return head
	}
	return "unknown"
}

// printRun prints one workload's metrics by name with their units.
func printRun(w io.Writer, r *run, metrics map[string]metricValue) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	samples := 0
	for _, lc := range r.in.load {
		samples += len(lc.rec.lat)
	}
	fmt.Fprintf(w, "# %s: %d passes (%d traced) of %d requests, %d latency samples, %d of %d requests failed, %.1f%% of CPU time stolen by the host\n",
		r.sp.name, len(r.untraced), len(r.traced), passRequests(&r.sp), samples, r.failed, r.attempted(), 100*r.stealFrac())
	// The median pass beside the best-decile pass the metrics report: the
	// distance between them is what the estimator sets aside.
	var with, without []float64
	for _, p := range r.untraced {
		if p.gcCycles > 0 {
			with = append(with, p.wall.Seconds())
		} else {
			without = append(without, p.wall.Seconds())
		}
	}
	fmt.Fprintf(w, "# %s: median pass %.4f k/s, p50 %.4f us; best-decile pass %.4f k/s, p50 %.4f us; %d of %d passes held a garbage collection and took %.3f times as long as the others\n",
		r.sp.name, r.bestPass(0.5, passResult.kreqPerSec), r.bestPass(0.5, passP50)/1e3,
		r.bestPass(1-bestDecile, passResult.kreqPerSec), r.bestPass(bestDecile, passP50)/1e3,
		len(with), len(r.untraced), ratio(median(with), median(without)))
	for _, n := range names {
		fmt.Fprintf(w, "%-14s %-34s %14.4f %s\n", r.sp.name, n, metrics[n].Value, metrics[n].Unit)
	}
}

// report is the full run's document: every workload's metrics under
// the host that produced them.
type report struct {
	Host      map[string]any                    `json:"host"`
	Workloads map[string]map[string]metricValue `json:"workloads"`
	Failed    int                               `json:"failed"`
	Attempted int                               `json:"attempted"`
}

// fullReport sets every workload up, runs their passes round-robin
// (pass 1 of every workload, then pass 2, ...) so that slow drift of
// the host lands on all of them alike, then makes one traced pass of
// each and replays their inputs.
func fullReport(o options, w io.Writer) (*report, error) {
	passes, setups := defaultPasses, setupRepeats
	if o.quick {
		passes, setups = 1, 1
		replaySpans, recoverRounds = 4, 1
	}
	epoch := time.Now()
	var runs []*run
	defer func() {
		for _, r := range runs {
			r.close()
		}
	}()
	for _, sp := range specs {
		runs = append(runs, newRun(sp, o.seed, epoch, passes+1, true))
	}
	if err := prepare(runs, setups); err != nil {
		return nil, err
	}
	for p := 0; p < passes; p++ {
		for _, r := range runs {
			if err := r.step(false); err != nil {
				return nil, err
			}
		}
	}
	// End-to-end figures come from the untraced passes alone, so they
	// are taken before any traced pass adds its samples.
	e2e := make([]map[string]float64, len(runs))
	for i, r := range runs {
		e2e[i] = r.endToEnd()
	}
	for _, r := range runs {
		if err := r.step(true); err != nil {
			return nil, err
		}
	}
	rep := &report{Workloads: map[string]map[string]metricValue{}}
	tr := newTracer()
	fixed := replayFixed(tr, epoch)
	for i, r := range runs {
		if err := r.finish(); err != nil {
			return nil, err
		}
		layer := r.perLayer(tr, fixed)
		ms := map[string]metricValue{}
		for _, m := range endToEndMetrics {
			ms[m.name] = metricValue{e2e[i][m.name], m.unit}
		}
		ms["failed_frac"] = metricValue{ratio(float64(r.failed), float64(r.attempted())), "frac"}
		for _, m := range layerMetrics {
			ms[m.name] = metricValue{layer[m.name], m.unit}
		}
		rep.Workloads[r.sp.name] = ms
		rep.Failed += r.failed
		rep.Attempted += r.attempted()
		for _, n := range r.notes {
			fmt.Fprintf(os.Stderr, "mismatch (%s): %s\n", r.sp.name, n)
		}
		printRun(w, r, ms)
	}
	rep.Host = hostRecord(o, runs)
	if err := tr.write(o.outDir, rep.Host); err != nil {
		return nil, err
	}
	return rep, nil
}

// reportMain prints the full report and its JSON document, and fails if
// any reply was wrong.
func reportMain(o options) error {
	rep, err := fullReport(o, os.Stdout)
	if err != nil {
		return err
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(doc))
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Failed, rep.Attempted)
	}
	return nil
}

// selfcheckMain runs the full report twice on the same code and prints,
// for every end-to-end metric and workload, both values, how far the
// second is from the first, and PASS or FAIL against the metric's
// bound, then the counts that must repeat exactly: the benchmark's own
// agreement test.
func selfcheckMain(o options) error {
	var reps [2]*report
	for i := range reps {
		rep, err := fullReport(o, io.Discard)
		if err != nil {
			return err
		}
		if rep.Failed > 0 {
			return fmt.Errorf("set %d: %d of %d requests failed", i+1, rep.Failed, rep.Attempted)
		}
		reps[i] = rep
	}
	fmt.Printf("%-14s %-10s %14s %14s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "diff", "bound", "")
	bad := 0
	for _, sp := range specs {
		for _, m := range endToEndMetrics {
			a := reps[0].Workloads[sp.name][m.name].Value
			b := reps[1].Workloads[sp.name][m.name].Value
			diff := math.Abs(b-a) / a
			verdict := "PASS"
			if diff > m.bound || math.IsNaN(diff) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-14s %-10s %14.4f %14.4f %8.2f%% %6.0f%%  %s\n", sp.name, m.name, a, b, 100*diff, 100*m.bound, verdict)
		}
	}
	// Counts that no timer and no second writer can touch must be the
	// same number in both sets, not merely close.
	for _, w := range exactWorkloads {
		for _, name := range exactCounts {
			a := reps[0].Workloads[w][name].Value
			b := reps[1].Workloads[w][name].Value
			verdict := "SAME"
			if a != b {
				verdict = "DIFFERENT"
				bad++
			}
			fmt.Printf("%-14s %-28s %14.9f %14.9f  %s\n", w, name, a, b, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric x workload pairs disagree", bad)
	}
	return nil
}

// The per-layer counts that repeat exactly for a given seed, and the
// workloads on which they do: one connection, durable operations, no
// timer in their path.
var (
	exactWorkloads = []string{"rtt", "read_pipe"}
	exactCounts    = []string{
		"atlas.ocs_per_req", "atlas.log_appends_per_req",
		"pheap.allocs_per_req", "pheap.frees_per_req",
		"hashmap.opt_retry_frac", "hashmap.opt_fallback_frac",
		"cacheserver.ops_per_batch",
	}
)
