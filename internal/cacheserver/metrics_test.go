package cacheserver

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"tsp/internal/telemetry"
)

// TestStatsTelemetry verifies the extended stats vocabulary: per-layer
// counters and op-latency percentiles from the shard registries.
func TestStatsTelemetry(t *testing.T) {
	s := startServer(t, WithShards(2))
	c := dial(t, s.Addr().String())

	c.cmd(t, "set 1 10")
	c.cmd(t, "set 2 20")
	c.cmd(t, "get 1")
	c.cmd(t, "crash 0")

	out := strings.Join(c.lines(t, "stats"), "\n")
	for _, want := range []string{
		"STAT op_count ",
		"STAT op_p50_us ",
		"STAT op_p95_us ",
		"STAT op_p99_us ",
		"STAT nvm_stores ",
		"STAT nvm_flushes ",
		"STAT atlas_log_appends ",
		"STAT atlas_ocs_commits ",
		"STAT map_gets ",
		"STAT map_puts ",
		"STAT heap_allocs ",
		"STAT server_gets 1",
		"STAT server_sets 2",
		"STAT recovery_count 1",
		"STAT stack_generation 3", // 2 shards at gen 1, one reattach bumps one to 2
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}

	// Per-shard lines carry the per-layer highlights too.
	shardOut := strings.Join(c.lines(t, "stats shards"), "\n")
	for _, want := range []string{"atlas_log_appends ", "map_gets ", "op_p50_us ", "op_p99_us "} {
		if !strings.Contains(shardOut, want) {
			t.Fatalf("stats shards output missing %q:\n%s", want, shardOut)
		}
	}
}

// TestMetricsEndpoint exercises the -metrics-addr HTTP surface: the
// same registry data in Prometheus text form, per shard and aggregated.
func TestMetricsEndpoint(t *testing.T) {
	s := startServer(t, WithShards(2), WithMetricsAddr("127.0.0.1:0"))
	c := dial(t, s.Addr().String())

	c.cmd(t, "set 1 10")
	c.cmd(t, "get 1")
	c.cmd(t, "crash")

	out := httpGet(t, s, "/metrics")
	for _, want := range []string{
		"# TYPE tsp_nvm_stores counter",
		`tsp_nvm_stores{shard="all"}`,
		`tsp_nvm_stores{shard="0"}`,
		`tsp_nvm_stores{shard="1"}`,
		`tsp_server_gets{shard="all"} 1`,
		`tsp_recovery_count{shard="all"} 2`,
		"# TYPE tsp_op_count counter",
		"# TYPE tsp_op_p99_us gauge",
		`tsp_op_p99_us{shard="all"}`,
		`tsp_op_count{shard="1"}`,
		"# TYPE tsp_recovery_latency_count counter",
		`tsp_recovery_latency_count{shard="all"} 2`,
		`tsp_items{shard="all"} 1`,
		"tsp_shards 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// httpGet fetches path from the server's metrics endpoint and fails the
// test unless it answers 200.
func httpGet(t *testing.T, s *Server, path string) string {
	t.Helper()
	addr := s.MetricsAddr()
	if addr == nil {
		t.Fatal("MetricsAddr is nil with WithMetricsAddr set")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(body)
}

// TestMetricsPprof: the runtime profiles ride the metrics listener.
func TestMetricsPprof(t *testing.T) {
	s := startServer(t, WithMetricsAddr("127.0.0.1:0"))
	if out := httpGet(t, s, "/debug/pprof/cmdline"); out == "" {
		t.Fatal("empty /debug/pprof/cmdline")
	}
}

// spelling is every name one row renders: the pattern of its `stats`
// names (label values in place of its <label> tokens, then one of its
// kind's suffixes) and the exact /metrics family names.
type spelling struct {
	d    telemetry.Desc
	stat *regexp.Regexp
	prom map[string]bool
}

func spellings(descs []telemetry.Desc) []spelling {
	var out []spelling
	for _, d := range descs {
		var pat, keep, sufs []string
		for _, p := range strings.Split(d.Name, "_") {
			if strings.HasPrefix(p, "<") {
				pat = append(pat, `[^_ ]+`)
			} else {
				pat = append(pat, regexp.QuoteMeta(p))
				keep = append(keep, p)
			}
		}
		prom := map[string]bool{}
		for _, suf := range d.Kind.Suffixes() {
			sufs = append(sufs, regexp.QuoteMeta(suf))
			prom["tsp_"+strings.Join(keep, "_")+suf] = true
		}
		re := regexp.MustCompile("^" + strings.Join(pat, "_") + "(" + strings.Join(sufs, "|") + ")$")
		out = append(out, spelling{d: d, stat: re, prom: prom})
	}
	return out
}

// rowOf parses one emitted name back to its row, failing unless exactly
// one row spells it.
func rowOf(t *testing.T, sp []spelling, name string, prom bool) telemetry.Desc {
	t.Helper()
	var hits []telemetry.Desc
	for _, s := range sp {
		if prom && s.prom[name] || !prom && s.stat.MatchString(name) {
			hits = append(hits, s.d)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("%q parses back to %d rows (%v), want exactly one", name, len(hits), hits)
	}
	return hits[0]
}

// TestStatsSurfacesFromRows: on a node that is an epoch-enabled
// replication primary and a cluster node, every row appears on `stats`
// and /metrics, every shard-scoped row appears on each `stats shards`
// line, and every emitted line parses back to exactly one row.
func TestStatsSurfacesFromRows(t *testing.T) {
	s := startServer(t, WithShards(2), WithReplListen("127.0.0.1:0"), WithClusterSlots("all"),
		WithMetricsAddr("127.0.0.1:0"))
	c := dial(t, s.Addr().String())
	c.cmd(t, "set 1 10") // a command, a protocol and a decoded batch for the labelled histograms
	c.cmd(t, "wait")

	var rows []telemetry.Desc
	for _, tbl := range [][]telemetry.Desc{telemetry.ServerRows.Descs(), telemetry.RegistryRows.Descs(),
		telemetry.ReplRows.Descs(), telemetry.ClusterRows.Descs()} {
		rows = append(rows, tbl...)
	}
	sp := spellings(rows)
	everyRow := func(surface string, seen map[string]bool, want func(telemetry.Desc) bool) {
		t.Helper()
		for _, d := range rows {
			if want(d) && !seen[d.Name] {
				t.Errorf("%s: row %s missing", surface, d.Name)
			}
		}
	}
	all := func(telemetry.Desc) bool { return true }

	seen := map[string]bool{}
	stats := c.lines(t, "stats")
	for _, l := range stats[:len(stats)-1] {
		f := strings.Fields(l)
		if len(f) != 3 || f[0] != "STAT" {
			t.Fatalf("stats line %q is not STAT <name> <value>", l)
		}
		seen[rowOf(t, sp, f[1], false).Name] = true
	}
	everyRow("stats", seen, all)

	shards := c.lines(t, "stats shards")
	if len(shards) != 3 {
		t.Fatalf("stats shards: %d lines, want 2 and END", len(shards))
	}
	for i, l := range shards[:2] {
		f := strings.Fields(l)
		if len(f)%2 != 1 || f[0] != "STAT" || f[1] != "shard" || f[2] != fmt.Sprint(i) {
			t.Fatalf("stats shards line %d = %q", i, l)
		}
		seen := map[string]bool{}
		for j := 3; j < len(f); j += 2 {
			d := rowOf(t, sp, f[j], false)
			if d.Scope != telemetry.ScopeShard {
				t.Fatalf("stats shards line %d carries server-wide row %s", i, d.Name)
			}
			seen[d.Name] = true
		}
		everyRow(fmt.Sprintf("stats shards line %d", i), seen, func(d telemetry.Desc) bool { return d.Scope == telemetry.ScopeShard })
	}

	seen = map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(httpGet(t, s, "/metrics")), "\n") {
		name := strings.Fields(strings.TrimPrefix(l, "# TYPE "))[0]
		name, _, _ = strings.Cut(name, "{")
		seen[rowOf(t, sp, name, true).Name] = true
	}
	everyRow("/metrics", seen, all)
}

// TestMetricsDisabled: no WithMetricsAddr means no endpoint.
func TestMetricsDisabled(t *testing.T) {
	s := startServer(t)
	if s.MetricsAddr() != nil {
		t.Fatal("MetricsAddr should be nil by default")
	}
}
