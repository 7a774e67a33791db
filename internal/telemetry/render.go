package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Suffixes lists the series one row renders, on every surface: a counter
// or gauge is its own value; a histogram is its observation count, three
// quantiles and its maximum, with "_us" on a duration histogram's
// microsecond figures.
func (k Kind) Suffixes() []string {
	switch k {
	case KindDuration:
		return []string{"_count", "_p50_us", "_p95_us", "_p99_us", "_max_us"}
	case KindValue:
		return []string{"_count", "_p50", "_p95", "_p99", "_max"}
	}
	return []string{""}
}

// format renders suffix i of a reading.
func (k Kind) format(r reading, i int) string {
	if k == KindCounter || k == KindGauge {
		return strconv.FormatUint(r.n, 10)
	}
	var v time.Duration
	switch i {
	case 0:
		return strconv.FormatUint(r.h.Count(), 10)
	case 4:
		v = r.h.Max()
	default:
		v = r.h.Quantile([...]float64{0.50, 0.95, 0.99}[i-1])
	}
	if k == KindDuration {
		return strconv.FormatFloat(float64(v)/float64(time.Microsecond), 'f', 1, 64)
	}
	return strconv.FormatUint(uint64(v), 10)
}

// live drops a labelled histogram's unobserved series: the label values
// a histogram renders are the ones it has seen. The choice is made on
// the sum over instances, so every shard shows the same series.
func live(d *Desc, series [][]string, cells func(int, int) []cell) []int {
	var out []int
	for i, labels := range series {
		if labels == nil || d.Kind < KindDuration || sum(cells(i, -1)).h.Count() > 0 {
			out = append(out, i)
		}
	}
	return out
}

// each calls fn with the name and value of every series srcs render:
// summed over the instances when inst < 0, else shard inst's value of
// every shard-scoped row.
func each(srcs []Source, inst int, fn func(name, value string)) {
	for _, src := range srcs {
		if inst >= 0 && src.src.scope() != ScopeShard {
			continue
		}
		src.src.rows(func(d *Desc, series [][]string, cells func(int, int) []cell) {
			for _, i := range live(d, series, cells) {
				r, name := sum(cells(i, inst)), spell(d.Name, series[i])
				for j, suf := range d.Kind.Suffixes() {
					fn(name+suf, d.Kind.format(r, j))
				}
			}
		})
	}
}

// Text renders `stats`: one "STAT <name> <value>" line per series, a
// shard-scoped row summed over its shards.
func Text(w io.Writer, srcs ...Source) {
	each(srcs, -1, func(name, v string) { fmt.Fprintf(w, "STAT %s %s\r\n", name, v) })
}

// ShardText renders `stats shards`: one "STAT shard <i>" line per shard
// carrying every shard-scoped row's series as name-value pairs. A source
// with no shard-scoped rows (a proxy) renders no line.
func ShardText(w io.Writer, srcs ...Source) {
	n := 0
	for _, src := range srcs {
		if src.src.scope() == ScopeShard {
			n = max(n, src.src.instances())
		}
	}
	for inst := 0; inst < n; inst++ {
		fmt.Fprintf(w, "STAT shard %d", inst)
		each(srcs, inst, func(name, v string) { fmt.Fprintf(w, " %s %s", name, v) })
		io.WriteString(w, "\r\n")
	}
}

// Prometheus renders /metrics in the Prometheus text format: one family
// per row and suffix, named tsp_<name> with the name's <label> tokens
// moved into labels. A shard-scoped series carries shard="all" (the sum)
// and one shard="<i>" value per shard.
func Prometheus(w io.Writer, srcs ...Source) {
	for _, src := range srcs {
		shards := 0
		if src.src.scope() == ScopeShard {
			shards = src.src.instances()
		}
		src.src.rows(func(d *Desc, series [][]string, cells func(int, int) []cell) {
			idx := live(d, series, cells)
			if len(idx) == 0 {
				return
			}
			family, names := promName(d.Name)
			for j, suf := range d.Kind.Suffixes() {
				typ := "gauge"
				if d.Kind == KindCounter || d.Kind != KindGauge && j == 0 {
					typ = "counter"
				}
				fmt.Fprintf(w, "# TYPE %s%s %s\n", family, suf, typ)
				for _, i := range idx {
					for inst := -1; inst < shards; inst++ {
						shard := ""
						switch {
						case inst >= 0:
							shard = strconv.Itoa(inst)
						case shards > 0:
							shard = "all"
						}
						promLine(w, family+suf, names, series[i], shard, d.Kind.format(sum(cells(i, inst)), j))
					}
				}
			}
		})
	}
}

// promName drops a row name's <label> tokens, returning the family name
// and the label names in order.
func promName(name string) (family string, labels []string) {
	var keep []string
	for _, p := range strings.Split(name, "_") {
		if l, ok := strings.CutPrefix(p, "<"); ok {
			labels = append(labels, strings.TrimSuffix(l, ">"))
		} else {
			keep = append(keep, p)
		}
	}
	return "tsp_" + strings.Join(keep, "_"), labels
}

// promLine writes one sample: name{labels,shard} value.
func promLine(w io.Writer, name string, names, values []string, shard, v string) {
	io.WriteString(w, name)
	sep := "{"
	for i, n := range names {
		fmt.Fprintf(w, "%s%s=%q", sep, n, values[i])
		sep = ","
	}
	if shard != "" {
		fmt.Fprintf(w, "%sshard=%q", sep, shard)
		sep = ","
	}
	if sep == "," {
		io.WriteString(w, "}")
	}
	fmt.Fprintf(w, " %s\n", v)
}
