package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}, {0.125, 15},
	} {
		if got := percentile(sorted, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

func TestSummarizePasses(t *testing.T) {
	// One stalled pass (40) among steady ones must not move the median
	// and must show in the quartile distance.
	ps := summarizePasses([]float64{100, 102, 40, 98, 101})
	if ps.median != 100 {
		t.Errorf("median = %v, want 100", ps.median)
	}
	if ps.q1 != 98 || ps.q3 != 101 {
		t.Errorf("quartiles = %v, %v, want 98, 101", ps.q1, ps.q3)
	}
	if want := 3.0 / 100; math.Abs(ps.iqrFrac-want) > 1e-12 {
		t.Errorf("iqrFrac = %v, want %v", ps.iqrFrac, want)
	}
	if z := summarizePasses(nil); z != (passSummary{}) {
		t.Errorf("summary of no passes = %+v, want zeros", z)
	}
}

func TestParseStatsAndDelta(t *testing.T) {
	before := parseStats("STAT atlas_ocs_commits 10\r\nSTAT op_p50_us 8.2\r\nSTAT shard 0 items 3 zitems 0\r\nEND\r\n")
	after := parseStats("STAT atlas_ocs_commits 25\r\nSTAT heap_allocs 4\r\nnoise\r\nEND")
	if len(before) != 2 || before["op_p50_us"] != 8.2 {
		t.Fatalf("parsed %v, want the two STAT name value lines", before)
	}
	if d := delta(before, after, "atlas_ocs_commits"); d != 15 {
		t.Errorf("delta = %v, want 15", d)
	}
	if d := delta(before, after, "heap_allocs"); d != 4 {
		t.Errorf("delta of a counter absent before = %v, want 4", d)
	}
	sum := counters{"a": 1}
	sum.add(counters{"a": 2, "b": 3})
	if sum["a"] != 3 || sum["b"] != 3 {
		t.Errorf("add = %v", sum)
	}
	if ratio(1, 0) != 0 || ratio(6, 4) != 1.5 {
		t.Errorf("ratio misbehaves")
	}
	if got := commonestCommandP50(counters{"cmd_get_count": 9, "cmd_get_p50_us": 4.1, "cmd_set_count": 2, "cmd_set_p50_us": 8.2}); got != 4.1 {
		t.Errorf("commonestCommandP50 = %v, want the get histogram's 4.1", got)
	}
}

// TestStreamAndModel pins the generator and the model: the same seed
// gives the same bytes, another seed gives others, and the model's
// expected replies follow the wire protocol's reply grammar.
func TestStreamAndModel(t *testing.T) {
	sp := *specByName("write_pipe")
	sp.bursts = 64
	a, b, c := genStream(&sp, 0, 7), genStream(&sp, 0, 7), genStream(&sp, 0, 8)
	if !bytes.Equal(a.wire, b.wire) {
		t.Fatal("same seed, different request bytes")
	}
	if bytes.Equal(a.wire, c.wire) {
		t.Fatal("different seeds, same request bytes")
	}
	other := genStream(&sp, 1, 7)
	for i := range other.reqs {
		rq := &other.reqs[i]
		if rq.kind == opZAdd {
			continue
		}
		step := 1
		if rq.kind != opDelete {
			step = 2
		}
		for j, args := 0, other.argsOf(rq); j < len(args); j += step {
			if args[j]%2 != 1 {
				t.Fatalf("connection 1 drew key %d, which connection 0 owns", args[j])
			}
		}
	}

	// A hand-written burst: get hit, delete, get miss, incr on the
	// missing key, mget over both states.
	st := &stream{}
	st.add(opGet, 5)
	st.add(opDelete, 5)
	st.add(opGet, 5)
	st.add(opIncr, 5, 7)
	st.add(opMGet, 5, 6)
	st.add(opDelete, 6)
	st.add(opMGet, 6)
	bu := burst{wire: [2]uint32{0, uint32(len(st.wire))}, reqs: [2]uint32{0, uint32(len(st.reqs))}}
	got, lines := newModel().expect(st, &bu, &session{}, nil)
	want := "VALUE 5 6\r\nDELETED\r\nNOT_FOUND\r\n7\r\nVALUE 5 7\r\nVALUE 6 7\r\nEND\r\nDELETED\r\nNOT_FOUND 6\r\nEND\r\n"
	if string(got) != want || lines != 10 {
		t.Errorf("expected replies:\n%q (%d lines)\nwant\n%q (10 lines)", got, lines, want)
	}
	if wire := "get 5\r\ndelete 5\r\nget 5\r\nincr 5 7\r\nmget 5 6\r\ndelete 6\r\nmget 6\r\n"; string(st.wire) != wire {
		t.Errorf("wire = %q, want %q", st.wire, wire)
	}

	// A duplicate seq repeats the recorded reply and leaves the key alone.
	st = &stream{}
	st.add(opSeqIncr, 9, 1)
	st.add(opSeqIncr, 9, 1)
	st.reqs[1].dup = true
	st.add(opGet, 9)
	bu = burst{wire: [2]uint32{0, uint32(len(st.wire))}, reqs: [2]uint32{0, 3}}
	se := &session{}
	got, _ = newModel().expect(st, &bu, se, nil)
	if want := "11\r\n11\r\nVALUE 9 11\r\n"; string(got) != want {
		t.Errorf("seq duplicate: expected replies %q, want %q", got, want)
	}
	if want := "incr 9 1 seq=000000000001\r\nincr 9 1 seq=000000000001\r\nget 9\r\n"; string(st.wire) != want || se.seq != 1 {
		t.Errorf("seq stamping: wire %q, session at %d", st.wire, se.seq)
	}
}

// TestCycleStream pins recover's replay input to what crashCycles sends:
// a cycle's 512 durable and 256 relaxed sets of fresh values, then gets
// of those keys and 256 bystanders, in bursts of the workload's depth.
func TestCycleStream(t *testing.T) {
	w := newCycleWalk(7)
	st := w.stream(64, 2)
	if w.pos != 0 {
		t.Fatal("stream moved the walk it was called on")
	}
	const perCycle = cycleDurable + cycleRelaxed + cycleKeys
	if len(st.reqs) != 2*perCycle || len(st.bursts) != 2*perCycle/64 {
		t.Fatalf("%d requests in %d bursts, want %d in %d", len(st.reqs), len(st.bursts), 2*perCycle, 2*perCycle/64)
	}
	keys, fresh := make([]uint64, cycleKeys), make([]uint64, cycleDurable+cycleRelaxed)
	for cy := 0; cy < 2; cy++ {
		w.next(keys, fresh)
		reqs := st.reqs[cy*perCycle:]
		for i := range fresh {
			kind := opSet
			if i >= cycleDurable {
				kind = opRelaxedSet
			}
			if a := st.argsOf(&reqs[i]); reqs[i].kind != kind || a[0] != keys[i] || a[1] != fresh[i] {
				t.Fatalf("cycle %d request %d = kind %d %v, want kind %d [%d %d]", cy, i, reqs[i].kind, a, kind, keys[i], fresh[i])
			}
		}
		for i := range keys {
			rq := &reqs[len(fresh)+i]
			if a := st.argsOf(rq); rq.kind != opGet || a[0] != keys[i] {
				t.Fatalf("cycle %d read %d = kind %d %v, want get %d", cy, i, rq.kind, a, keys[i])
			}
		}
	}
	ks := collectKeys(st)
	if len(ks.put) != 2*len(fresh) || len(ks.read) != 2*len(keys) || len(ks.inc)+len(ks.del)+len(ks.zput)+len(ks.zrange) != 0 {
		t.Errorf("collectKeys: %d put, %d read, %d inc, %d del, %d zput, %d zrange", len(ks.put), len(ks.read), len(ks.inc), len(ks.del), len(ks.zput), len(ks.zrange))
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository's root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the code's
// tables from drifting apart.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the code %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the code %+v", i, m, d)
		}
	}
}

// TestQuickReport runs the whole benchmark in its smoke shape: every
// workload set up, one pass, one traced pass, the replay, the audit.
// Every workload and metric BENCHMARK.json names must come out, and no
// reply may be wrong.
func TestQuickReport(t *testing.T) {
	if testing.Short() {
		t.Skip("drives six servers for several seconds")
	}
	bf := loadBenchmarkFile(t)
	dir := t.TempDir()
	rep, err := fullReport(options{seed: 1, quick: true, outDir: dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%d of %d requests failed", rep.Failed, rep.Attempted)
	}
	for _, w := range bf.Workloads {
		ms, ok := rep.Workloads[w.Name]
		if !ok {
			t.Errorf("workload %s missing from the report", w.Name)
			continue
		}
		for _, m := range bf.EndToEnd {
			if v, ok := ms[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.Name, m.Name, v, m.Unit)
			}
		}
		for _, m := range bf.PerLayer {
			if v, ok := ms[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v, want a value in %s", w.Name, m.Name, v, m.Unit)
			}
		}
		if v := ms["failed_frac"]; v.Value != 0 {
			t.Errorf("%s: failed_frac = %v", w.Name, v.Value)
		}
		// A fixed replay is measured once and reads the same everywhere.
		if got, want := ms["atlas.section_ns"].Value, rep.Workloads["rtt"]["atlas.section_ns"].Value; got != want || got <= 0 {
			t.Errorf("%s: atlas.section_ns = %v, rtt's row says %v", w.Name, got, want)
		}
	}
	// An input replay is timed only where the workload makes the call.
	for _, tc := range []struct {
		workload, metric string
		timed            bool
	}{
		{"rtt", "hashmap.put_ns", true}, {"rtt", "hashmap.getopt_ns", true}, {"rtt", "hashmap.inc_ns", false}, {"rtt", "skiplist.get_ns", false},
		{"write_pipe", "hashmap.get_ns", false}, {"write_pipe", "hashmap.delete_ns", true}, {"write_pipe", "skiplist.put_ns", true}, {"write_pipe", "skiplist.range16_ns", false},
		{"read_pipe", "skiplist.range16_ns", true}, {"read_pipe", "skiplist.put_ns", false},
		{"relaxed_wait", "hashmap.put_ns", true}, {"relaxed_wait", "hashmap.get_ns", false},
		{"recover", "hashmap.put_ns", true}, {"recover", "hashmap.get_ns", true}, {"recover", "proto.decode_ns_per_req", true},
	} {
		if v := rep.Workloads[tc.workload][tc.metric].Value; (v > 0) != tc.timed {
			t.Errorf("%s: %s = %v, want timed = %v", tc.workload, tc.metric, v, tc.timed)
		}
	}
	for _, key := range []string{"nproc", "gomaxprocs", "go", "cpu", "kernel", "commit", "seed", "passes", "requests_per_pass"} {
		if _, ok := rep.Host[key]; !ok {
			t.Errorf("host record lacks %q", key)
		}
	}
	var trace struct {
		Spans []span `json:"spans"`
	}
	data, err := os.ReadFile(dir + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range trace.Spans {
		seen[s.Name] = true
		if s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Fatalf("span %+v is malformed", s)
		}
	}
	for _, name := range []string{"burst", "client.write", "client.first_byte", "client.drain", "proto.decode", "hashmap.put", "stack.reattach"} {
		if !seen[name] {
			t.Errorf("trace.json has no %q span", name)
		}
	}
}
