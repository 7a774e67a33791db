package main

import (
	"fmt"
	"os"
	"strings"
)

// perLayer computes every per-layer metric of a traced run: the
// client's own timings, the servers' counter movement per request, the
// replay of the workload's input through each module, and the fixed
// replay's figures, which are the same for every workload. A metric
// that does not apply to the workload stays 0. Burst and replay spans
// go to tr.
func (r *run) perLayer(tr *tracer, fixed map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range layerMetrics {
		out[m.name] = fixed[m.name]
	}
	r.clientLayer(out, tr)
	r.counterLayers(out)
	replayInput(r, out, tr)
	if err := r.proxyHop(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench: proxy hop baseline:", err)
	}
	return out
}

// proxyHop measures what the routing tier adds: the proxy workload's
// p50 minus the p50 of the same bytes sent straight to one cluster node
// that owns every slot.
func (r *run) proxyHop(out map[string]float64) error {
	if r.in.proxy == nil {
		return nil
	}
	direct := r.sp
	direct.nodes, direct.allSlots = 0, true
	const passes = 3
	dr := newRun(direct, r.seed, r.epoch, passes, false)
	defer dr.close()
	if err := prepare([]*run{dr}, 1); err != nil {
		return err
	}
	for i := 0; i < passes; i++ {
		if err := dr.step(false); err != nil {
			return err
		}
	}
	r.failed += dr.failed
	r.extra += dr.attempted()
	pick := func(rc *recorder) []float64 { return rc.lat }
	out["cluster.hop_p50_us"] = (percentile(r.pooled(pick), 0.5) - percentile(dr.pooled(pick), 0.5)) / 1e3
	return nil
}

// clientLayer fills the client.* metrics: what the harness and the
// loopback contribute, none of it a layer of the program.
func (r *run) clientLayer(out map[string]float64, tr *tracer) {
	lat := r.pooled(func(rc *recorder) []float64 { return rc.lat })
	out["client.p90_us"] = r.bestPass(bestDecile, func(p passResult) float64 { return p.p90 }) / 1e3
	out["client.p99_us"] = percentile(lat, 0.99) / 1e3
	out["client.p999_us"] = percentile(lat, 0.999) / 1e3
	out["client.get_p50_us"] = percentile(r.pooled(func(rc *recorder) []float64 { return rc.getRTT }), 0.5) / 1e3
	out["client.set_p50_us"] = percentile(r.pooled(func(rc *recorder) []float64 { return rc.setRTT }), 0.5) / 1e3
	out["client.wait_p50_us"] = percentile(r.pooled(func(rc *recorder) []float64 { return rc.waits }), 0.5) / 1e3
	if r.sp.name == "recover" {
		out["client.recover_p50_ms"] = percentile(lat, 0.5) / 1e6
	}

	var write, first, drain []float64
	for _, lc := range r.in.load {
		tr.addBursts(r.sp.name, lc.rec.spans)
		for _, b := range lc.rec.spans {
			write = append(write, float64(b.wrote-b.start))
			first = append(first, float64(b.firstByte-b.wrote))
			drain = append(drain, float64(b.end-b.firstByte))
		}
	}
	out["client.write_us"] = median(write) / 1e3
	out["client.first_byte_us"] = median(first) / 1e3
	out["client.drain_us"] = median(drain) / 1e3

	var cpu []float64
	for _, p := range r.untraced {
		cpu = append(cpu, float64(p.cpu.Microseconds())/float64(p.requests))
	}
	out["client.cpu_us_per_req"] = median(cpu)
	// Collections and allocation are counted over traced passes too: the
	// runtime's pacing can lock onto the alternation of the two kinds.
	var gcCycles, allocBytes, requests float64
	for _, ps := range [][]passResult{r.untraced, r.traced} {
		for _, p := range ps {
			gcCycles, allocBytes, requests = gcCycles+float64(p.gcCycles), allocBytes+float64(p.allocBytes), requests+float64(p.requests)
		}
	}
	out["client.gc_cycles_per_pass"] = ratio(gcCycles, float64(len(r.untraced)+len(r.traced)))
	out["client.alloc_bytes_per_req"] = ratio(allocBytes, requests)
	out["client.steal_frac"] = r.stealFrac()
	plain := summarizePasses(kreqOf(r.untraced))
	out["client.pass_iqr_frac"] = plain.iqrFrac
	if len(r.traced) > 0 && plain.median > 0 {
		out["client.trace_overhead_frac"] = 1 - summarizePasses(kreqOf(r.traced)).median/plain.median
	}

	var in, outb int64
	for _, lc := range r.in.load {
		in, outb = in+lc.bytesIn, outb+lc.bytesOut
	}
	out["proto.bytes_per_req"] = ratio(float64(in+outb), float64(r.attempted()))
}

// counterLayers fills the metrics read from `stats`: a counter's
// movement over the untraced passes, summed over whole turns of the
// ring. Every turn sends the same bytes, so with one connection and no
// timer in the path a counter's per-request figure repeats exactly for
// a given seed and number of turns. The full report fixes that number;
// a -workload run makes as many turns as it has time for, and there
// rtt's figures still repeat exactly while read_pipe's move in the
// fifth digit with the number of turns.
func (r *run) counterLayers(out map[string]float64) {
	use := len(r.deltas) - len(r.deltas)%r.turn
	if use == 0 {
		use = len(r.deltas)
	}
	deltas := r.deltas[:use]
	var requests, wall float64
	for i := range deltas {
		requests += float64(deltas[i].requests)
		wall += deltas[i].wall.Seconds()
	}
	moved := func(side func(pd *passDelta) (before, after counters), names ...string) float64 {
		var d float64
		for i := range deltas {
			before, after := side(&deltas[i])
			for _, name := range names {
				d += delta(before, after, name)
			}
		}
		return d
	}
	server := func(pd *passDelta) (counters, counters) { return pd.before, pd.after }
	route := func(pd *passDelta) (counters, counters) { return pd.route[0], pd.route[1] }
	perReq := func(counter string) float64 { return ratio(moved(server, counter), requests) }
	share := func(num string, den ...string) float64 {
		return ratio(moved(server, num), moved(server, den...))
	}
	out["atlas.ocs_per_req"] = perReq("atlas_ocs_commits")
	out["atlas.log_appends_per_req"] = perReq("atlas_log_appends")
	out["pheap.allocs_per_req"] = perReq("heap_allocs")
	out["pheap.frees_per_req"] = perReq("heap_frees")
	out["nvm.stores_per_req"] = perReq("nvm_stores")
	out["nvm.loads_per_req"] = perReq("nvm_loads")
	out["nvm.flushes_per_req"] = perReq("nvm_flushes")
	out["nvm.writebacks_per_req"] = perReq("nvm_writebacks")

	out["cacheserver.ops_per_batch"] = share("server_batched_ops", "server_batches")
	out["cacheserver.batch_fallback_frac"] = share("server_batch_fallbacks", "server_batches", "server_batch_fallbacks")
	out["cacheserver.opt_read_frac"] = share("map_opt_gets", "map_gets")
	out["cacheserver.session_dup_frac"] = share("server_session_dups", "server_session_ops")
	out["cacheserver.epoch_flushed_per_close"] = share("server_epoch_flushed", "server_epoch_closes")
	out["cacheserver.epoch_closes_per_s"] = ratio(moved(server, "server_epoch_closes"), wall)
	out["hashmap.opt_retry_frac"] = share("map_opt_retries", "map_opt_gets", "map_opt_retries")
	out["hashmap.opt_fallback_frac"] = share("map_opt_fallbacks", "map_opt_gets", "map_opt_fallbacks")

	out["cluster.forwards_per_req"] = ratio(moved(route, "route_forwards"), requests)
	out["cluster.fanout_legs_per_req"] = ratio(moved(route, "route_fanout_legs"), requests)
	out["cluster.redirects"] = moved(route, "route_redirects")

	// Histograms cover everything since the post-warm-up `stats reset`.
	out["proto.decoded_batch_p50"] = r.lastSrv["proto_native_decoded_batch_p50"]
	out["cacheserver.server_p50_us"] = commonestCommandP50(r.lastSrv)
}

// commonestCommandP50 is the server's own p50 for the command it served
// most: cmd_<name>_p50_us of the largest cmd_<name>_count.
func commonestCommandP50(st counters) float64 {
	best, bestCount := "", 0.0
	for name, v := range st {
		if cmd, ok := strings.CutPrefix(name, "cmd_"); ok {
			if cmd, ok = strings.CutSuffix(cmd, "_count"); ok && (v > bestCount || v == bestCount && cmd < best) {
				best, bestCount = cmd, v
			}
		}
	}
	return st["cmd_"+best+"_p50_us"]
}
