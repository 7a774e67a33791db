package telemetry

import (
	"strings"
	"sync/atomic"
)

// Kind is how a row counts, and so how it renders and resets.
type Kind uint8

const (
	// KindCounter is a monotonic event count; `stats reset` zeroes it.
	KindCounter Kind = iota
	// KindGauge is a level its owner sets; `stats reset` leaves it.
	KindGauge
	// KindDuration is a latency histogram, rendered in microseconds.
	KindDuration
	// KindValue is a histogram of plain magnitudes (sizes, lengths).
	KindValue
)

func (k Kind) String() string { return [...]string{"counter", "gauge", "duration", "value"}[k] }

// Scope is how a row's instances combine.
type Scope uint8

const (
	// ScopeShard rows have one instance per shard registry: `stats` and
	// the `shard="all"` series sum them, `stats shards` shows each.
	ScopeShard Scope = iota
	// ScopeServer rows have one instance per process (server or proxy).
	ScopeServer
)

func (s Scope) String() string { return [...]string{"shard", "server"}[s] }

// Desc is what every surface knows about a row.
type Desc struct {
	// Name is the canonical name. A labelled row spells each label as an
	// underscore-separated <label> token ("cmd_<cmd>"): `stats` puts the
	// label's value there, /metrics drops the token and adds the label.
	Name  string
	Kind  Kind
	Scope Scope
	Help  string
}

// Row is one metric of a section of type S: its description and how to
// read series i (an index into the label values, 0 for an unlabelled
// row) from a section instance.
type Row[S any] struct {
	Desc
	labels func(*S) [][]string // nil: one unlabelled series
	read   func(s *S, i int, c *cell)
}

// cell is where one series lives in one section instance: its counter,
// its gauge's level, or every histogram the series merges.
type cell struct {
	c  *Counter
	v  uint64
	hs []*Histogram
}

func counter[S any](name, help string, f func(*S) *Counter) Row[S] {
	return Row[S]{Desc: Desc{Name: name, Kind: KindCounter, Help: help},
		read: func(s *S, _ int, c *cell) { c.c = f(s) }}
}

func gauge[S any](name, help string, f func(*S) *atomic.Uint64) Row[S] {
	return Row[S]{Desc: Desc{Name: name, Kind: KindGauge, Help: help},
		read: func(s *S, _ int, c *cell) { c.v = f(s).Load() }}
}

func histogram[S any](name string, k Kind, help string, f func(*S) *Histogram) Row[S] {
	return Row[S]{Desc: Desc{Name: name, Kind: k, Help: help},
		read: func(s *S, _ int, c *cell) { c.hs = append(c.hs, f(s)) }}
}

// fixed is a label set that does not depend on the section.
func fixed[S any](values [][]string) func(*S) [][]string {
	return func(*S) [][]string { return values }
}

// oneLabel makes one single-label tuple per value.
func oneLabel(values ...string) [][]string {
	out := make([][]string, len(values))
	for i, v := range values {
		out[i] = []string{v}
	}
	return out
}

// lift re-roots a section's rows in the struct that points at the
// section. A nil section reads as zero and resets as a no-op.
func lift[P, S any](sec func(*P) *S, rows []Row[S]) []Row[P] {
	out := make([]Row[P], len(rows))
	for i, r := range rows {
		out[i] = Row[P]{Desc: r.Desc, read: func(p *P, j int, c *cell) {
			if s := sec(p); s != nil {
				r.read(s, j, c)
			}
		}}
		if r.labels != nil {
			out[i].labels = func(p *P) [][]string { return r.labels(sec(p)) }
		}
	}
	return out
}

// Table is one section type's rows, all of one scope.
type Table[S any] struct {
	scope Scope
	rows  []Row[S]
}

func newTable[S any](scope Scope, groups ...[]Row[S]) *Table[S] {
	t := &Table[S]{scope: scope}
	for _, g := range groups {
		t.rows = append(t.rows, g...)
	}
	for i := range t.rows {
		t.rows[i].Scope = scope
	}
	return t
}

// Descs lists the table's rows in rendering order.
func (t *Table[S]) Descs() []Desc {
	out := make([]Desc, len(t.rows))
	for i := range t.rows {
		out[i] = t.rows[i].Desc
	}
	return out
}

// Bind reads the table from its section instances: one for a
// server-scoped table, one per shard for a shard-scoped one. A nil
// instance reads as zero.
func (t *Table[S]) Bind(secs ...*S) Source { return Source{&bound[S]{t, secs}} }

// Source is one table bound to the section instances it reads — the unit
// every renderer and Reset takes.
type Source struct{ src source }

// source is a bound table with its section type erased.
type source interface {
	scope() Scope
	instances() int
	// rows calls fn per row with its series' label values and the cells
	// of series s at instance inst (inst < 0: at every instance).
	rows(fn func(d *Desc, series [][]string, cells func(s, inst int) []cell))
}

type bound[S any] struct {
	t    *Table[S]
	secs []*S
}

func (b *bound[S]) scope() Scope   { return b.t.scope }
func (b *bound[S]) instances() int { return len(b.secs) }

// unlabelled is an unlabelled row's one series.
var unlabelled = [][]string{nil}

func (b *bound[S]) rows(fn func(*Desc, [][]string, func(s, inst int) []cell)) {
	for r := range b.t.rows {
		row := &b.t.rows[r]
		// A row's label values come from its first live instance.
		series := unlabelled
		if row.labels != nil {
			series = nil
			for _, s := range b.secs {
				if s != nil {
					series = row.labels(s)
					break
				}
			}
		}
		fn(&row.Desc, series, func(i, inst int) (out []cell) {
			for j, s := range b.secs {
				if s != nil && (inst < 0 || j == inst) {
					var c cell
					row.read(s, i, &c)
					out = append(out, c)
				}
			}
			return out
		})
	}
}

// reading is one series' value summed over cells: n for counters and
// gauges, h for histograms.
type reading struct {
	n uint64
	h HistogramSnapshot
}

func sum(cells []cell) (r reading) {
	for _, c := range cells {
		r.n += c.c.Load() + c.v
		for _, h := range c.hs {
			r.h.add(h)
		}
	}
	return r
}

// Reset zeroes every counter and histogram row of every source. Gauges
// (a stack's generation, item counts, stream positions) keep their
// levels: they describe the server, not its traffic.
func Reset(srcs ...Source) {
	for _, src := range srcs {
		src.src.rows(func(d *Desc, series [][]string, cells func(int, int) []cell) {
			for i := range series {
				for _, c := range cells(i, -1) {
					if d.Kind != KindGauge {
						c.c.Reset()
						for _, h := range c.hs {
							h.Reset()
						}
					}
				}
			}
		})
	}
}

// Walk calls fn with every counter and gauge series' name and value,
// summed over the instances, in row order.
func (s Source) Walk(fn func(name string, value uint64)) {
	s.src.rows(func(d *Desc, series [][]string, cells func(int, int) []cell) {
		if d.Kind == KindCounter || d.Kind == KindGauge {
			for i, labels := range series {
				fn(spell(d.Name, labels), sum(cells(i, -1)).n)
			}
		}
	})
}

// Counters snapshots Walk.
func (s Source) Counters() Snapshot {
	out := make(Snapshot, 64)
	s.Walk(func(name string, v uint64) { out[name] = v })
	return out
}

// spell puts a series' label values into its row name's <label> tokens.
func spell(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	parts := strings.Split(name, "_")
	j := 0
	for i, p := range parts {
		if strings.HasPrefix(p, "<") {
			parts[i] = labels[j]
			j++
		}
	}
	return strings.Join(parts, "_")
}
