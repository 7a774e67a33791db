package telemetry

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestStatsRowsDocumented holds docs/PROTOCOL.md §9 to the rows both
// ways: every row is documented with its kind, scope and help, and every
// documented row exists.
func TestStatsRowsDocumented(t *testing.T) {
	raw, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "## 9. The stats vocabulary")
	if start < 0 {
		t.Fatal("docs/PROTOCOL.md has no stats vocabulary section")
	}
	sec := doc[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	row := regexp.MustCompile("^\\| `([^`]+)` \\| (\\w+) \\| (\\w+) \\| (.+) \\|$")
	documented := map[string][]string{}
	for _, line := range strings.Split(sec, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			if documented[m[1]] != nil {
				t.Errorf("row %s documented twice", m[1])
			}
			documented[m[1]] = m[2:]
		}
	}
	seen := map[string]bool{}
	var rows []Desc
	for _, tbl := range [][]Desc{ServerRows.Descs(), RegistryRows.Descs(), ReplRows.Descs(),
		ClusterRows.Descs(), RouteRows.Descs(), CampaignRows.Descs()} {
		rows = append(rows, tbl...)
	}
	for _, d := range rows {
		if seen[d.Name] {
			t.Errorf("two rows are named %s", d.Name)
		}
		seen[d.Name] = true
		got, ok := documented[d.Name]
		want := []string{d.Kind.String(), d.Scope.String(), d.Help}
		if !ok {
			t.Errorf("row %s is missing from docs/PROTOCOL.md §9", d.Name)
		} else if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("row %s documented as %q, the row says %q", d.Name, got, want)
		}
	}
	for name := range documented {
		if !seen[name] {
			t.Errorf("docs/PROTOCOL.md §9 documents %s, which is no row", name)
		}
	}
}

// stat renders srcs as `stats` text and returns the named line's value
// ("" when absent).
func stat(name string, srcs ...Source) string {
	var b strings.Builder
	Text(&b, srcs...)
	for _, line := range strings.Split(b.String(), "\r\n") {
		if v, ok := strings.CutPrefix(line, "STAT "+name+" "); ok {
			return v
		}
	}
	return ""
}

// TestRenderersShareOneSpelling renders two shard registries and a proxy
// section on every surface: one spelling per row, shard rows summed on
// `stats`, per shard on `stats shards`, all plus per shard on /metrics,
// and unobserved label values of a histogram left out.
func TestRenderersShareOneSpelling(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Map.IncPut()
	b.Map.IncPut()
	b.Items.Store(3)
	a.CmdLatency.ObserveProto(ProtoNative, CmdGet, 3*time.Microsecond)
	regs := RegistryRows.Bind(a, b)

	var text strings.Builder
	Text(&text, regs)
	for _, want := range []string{
		"STAT map_puts 2\r\n", "STAT items 3\r\n", "STAT cmd_get_count 1\r\n", "STAT cmd_get_p50_us 4.1\r\n",
		"STAT proto_native_cmd_get_max_us 4.1\r\n", "STAT batch_size_p50 0\r\n",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("stats missing %q", want)
		}
	}
	if strings.Contains(text.String(), "cmd_set") || strings.Contains(text.String(), "proto_resp") {
		t.Error("stats renders an unobserved label value")
	}

	var shards strings.Builder
	ShardText(&shards, regs, ServerRows.Bind(&ServerWide{}))
	lines := strings.Split(strings.TrimSuffix(shards.String(), "\r\n"), "\r\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "STAT shard 0 nvm_loads 0 ") ||
		!strings.Contains(lines[1], " map_puts 1 ") || !strings.Contains(lines[1], " cmd_get_count 0 ") ||
		strings.Contains(shards.String(), "shards") {
		t.Errorf("stats shards = %q", shards.String())
	}

	var prom strings.Builder
	Prometheus(&prom, regs)
	for _, want := range []string{
		"# TYPE tsp_map_puts counter\ntsp_map_puts{shard=\"all\"} 2\ntsp_map_puts{shard=\"0\"} 1\ntsp_map_puts{shard=\"1\"} 1\n",
		"# TYPE tsp_cmd_p50_us gauge\ntsp_cmd_p50_us{cmd=\"get\",shard=\"all\"} 4.1\n",
		"# TYPE tsp_proto_cmd_count counter\ntsp_proto_cmd_count{proto=\"native\",cmd=\"get\",shard=\"all\"} 1\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	route := &RouteStats{}
	route.Node("10.0.0.1:7").Sent.Add(5)
	route.RingEpoch.Store(4)
	var rt strings.Builder
	Text(&rt, RouteRows.Bind(route))
	Prometheus(&rt, RouteRows.Bind(route))
	for _, want := range []string{"STAT node_10.0.0.1:7_sent 5\r\n", "STAT ring_epoch 4\r\n", "tsp_node_sent{node=\"10.0.0.1:7\"} 5\n", "tsp_ring_epoch 4\n"} {
		if !strings.Contains(rt.String(), want) {
			t.Errorf("proxy surfaces missing %q", want)
		}
	}
	Reset(RouteRows.Bind(route))
	if route.Node("10.0.0.1:7").Sent.Load() != 0 || route.RingEpoch.Load() != 4 {
		t.Error("Reset must zero per-node counters and keep gauges")
	}
}
