// Command bench is the repository's benchmark: it drives in-process
// cache servers over loopback TCP in a closed loop, checks every reply
// against a model, and reports end-to-end metrics (what a client of the
// server sees) and per-layer metrics (what each module did and costs).
// See README.md in this directory for the workloads, the metrics and
// how they are expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Defaults of the full report (no -workload): fixed pass counts, so a
// report always measures the same work.
const (
	defaultPasses = 15 * ringPasses // about as long as a -workload run of 15 s
	setupRepeats  = 9               // set-ups of each workload; setup_s is their median
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	selfcheck bool
	outDir    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload for -seconds and print one JSON result line (the driver contract); empty runs the full report")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "with -workload: how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 traces and prints the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "full report: one pass per workload and a short replay, a smoke run (under 10 s)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the full report twice and compare every end-to-end metric against its bound")
	flag.StringVar(&o.outDir, "out", "out", "directory for trace.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case o.workload != "":
		err = driverMain(o)
	case o.selfcheck:
		err = selfcheckMain(o)
	default:
		err = reportMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line of a -workload run.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverMain measures one workload for o.seconds and prints the result
// line. With -trace 1 it alternates untraced and traced passes, replays
// the workload's input through each module, and writes trace.json.
func driverMain(o options) error {
	sp := specByName(o.workload)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	traced := o.trace != 0
	epoch := time.Now()
	// Sample room for passes three times as fast as when the benchmark
	// was defined (eight to the second).
	maxPasses := int(o.seconds)*25 + 2*ringPasses
	r := newRun(*sp, o.seed, epoch, maxPasses, traced)
	defer r.close()
	if err := prepare([]*run{r}, setupRepeats); err != nil {
		return err
	}

	if traced {
		// Passes alternate untraced and traced, so the untraced ones see
		// every other piece of the ring.
		r.turn = ringPasses / 2
	}
	start := time.Now()
	for i := 0; i < maxPasses && (time.Since(start).Seconds() < o.seconds || i < 2*ringPasses); i++ {
		if err := r.step(traced && i%2 == 1); err != nil {
			return err
		}
	}
	if err := r.finish(); err != nil {
		return err
	}

	res := driverResult{Attempted: r.attempted(), Failed: r.failed, Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0
	if traced {
		tr := newTracer()
		layer := r.perLayer(tr, replayFixed(tr, epoch))
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
		if err := tr.write(o.outDir, hostRecord(o, []*run{r})); err != nil {
			return err
		}
	} else {
		e2e := r.endToEnd()
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "mismatch:", n)
	}
	printRun(os.Stdout, r, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d requests failed", res.Failed, res.Attempted)
	}
	return nil
}
