package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; bench_test.go checks the two against each other.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEndMetrics are what a client of the server sees. Every one is
// reported for every workload.
var endToEndMetrics = []metricDef{
	{"kreq_s", "k/s", "higher", 0.25}, // thousand requests per second: requests / pass wall time, of the best-decile pass
	{"p50_us", "us", "lower", 0.25},   // median latency per request (a timed burst's wall time / its depth) within a pass, of the best-decile pass
	{"setup_s", "s", "lower", 0.25},   // building the servers, preloading the keys and generating the input: median of nine set-ups
}

// layerMetrics are the per-layer metrics, ungated. A layer is a module
// of the repository; `client` is the harness and the loopback. A
// "replay" metric feeds the workload's own requests to the function and
// reads 0 on a workload that never makes the call; a "fixed replay"
// metric does not depend on the requests, is measured once per process
// and reads the same on every workload.
var layerMetrics = []metricDef{
	{name: "client.p90_us", unit: "us", better: "lower"},                // 90th percentile latency per request within a pass, of the best-decile pass (demoted from end to end: its spread on the defining host was above a third of any allowed bound)
	{name: "client.p99_us", unit: "us", better: "lower"},                // 99th percentile latency per request
	{name: "client.p999_us", unit: "us", better: "lower"},               // 99.9th percentile latency per request
	{name: "client.get_p50_us", unit: "us", better: "lower"},            // median round trip of a depth-1 get (rtt only)
	{name: "client.set_p50_us", unit: "us", better: "lower"},            // median round trip of a depth-1 durable set (rtt only)
	{name: "client.wait_p50_us", unit: "us", better: "lower"},           // median latency of the wait epoch barrier (relaxed_wait only)
	{name: "client.recover_p50_ms", unit: "ms", better: "lower"},        // median crash to OK RECOVERED, all shards (recover only)
	{name: "client.write_us", unit: "us", better: "lower"},              // median time in the burst's write call
	{name: "client.first_byte_us", unit: "us", better: "lower"},         // median time from write return to the first reply byte
	{name: "client.drain_us", unit: "us", better: "lower"},              // median time from the first reply byte to the last
	{name: "client.cpu_us_per_req", unit: "us", better: "lower"},        // process CPU time (client and servers share it) per request
	{name: "client.gc_cycles_per_pass", unit: "count", better: "lower"}, // Go garbage collections completed inside a pass, mean over the passes: under 0.1 means the best-decile pass held none
	{name: "client.alloc_bytes_per_req", unit: "B", better: "lower"},    // bytes the process allocated during the passes, per request (client and servers share the heap)
	{name: "client.steal_frac", unit: "frac", better: "lower"},          // share of the host's CPU time during the passes that the hypervisor gave to other tenants (/proc/stat steal)
	{name: "client.pass_iqr_frac", unit: "frac", better: "lower"},       // quartile distance of per-pass kreq_s over its median
	{name: "client.trace_overhead_frac", unit: "frac", better: "lower"}, // 1 - traced kreq_s / untraced kreq_s

	{name: "proto.decode_ns_per_req", unit: "ns", better: "lower"},      // replay: Decoder.Next over the workload's native request bytes
	{name: "proto.resp_decode_ns_per_req", unit: "ns", better: "lower"}, // replay: the same requests encoded with RESP.AppendRequest
	{name: "proto.encode_ns_per_reply", unit: "ns", better: "lower"},    // replay: Encoder.Stage+Flush of the workload's replies
	{name: "proto.append_ns_per_req", unit: "ns", better: "lower"},      // replay: Native.AppendRequest, the client-side encoder the proxy uses
	{name: "proto.bytes_per_req", unit: "B", better: "lower"},           // wire bytes per request, both directions
	{name: "proto.decoded_batch_p50", unit: "count", better: "higher"},  // server's median requests per decoded batch

	{name: "cacheserver.server_p50_us", unit: "us", better: "lower"},              // server's own histogram (log2 buckets) of the service time of the group the workload's commonest command rode in: the command itself at depth 1, a whole coalesced group above it
	{name: "cacheserver.ops_per_batch", unit: "count", better: "higher"},          // operations per drained batch group
	{name: "cacheserver.batch_fallback_frac", unit: "frac", better: "lower"},      // groups that fell back to the synchronous path
	{name: "cacheserver.opt_read_frac", unit: "frac", better: "higher"},           // map reads served on the optimistic path
	{name: "cacheserver.session_dup_frac", unit: "frac", better: "lower"},         // seq-tagged operations answered from the dedup window
	{name: "cacheserver.epoch_closes_per_s", unit: "1/s", better: "higher"},       // epoch closes per second, all shards
	{name: "cacheserver.epoch_flushed_per_close", unit: "count", better: "lower"}, // overlay entries drained per epoch close

	{name: "atlas.ocs_per_req", unit: "count", better: "lower"},         // outermost critical sections committed per request
	{name: "atlas.log_appends_per_req", unit: "count", better: "lower"}, // undo-log records appended per request
	{name: "atlas.section_ns", unit: "ns", better: "lower"},             // fixed replay: an empty one-mutex Thread.Section
	{name: "atlas.section64_ns_per_op", unit: "ns", better: "lower"},    // replay: one section over the stripes of 64 PutLocked of the workload's set keys, per op
	{name: "atlas.store_ns", unit: "ns", better: "lower"},               // fixed replay: a logged Thread.Store, 64 to a section
	{name: "atlas.recover_ms", unit: "ms", better: "lower"},             // fixed replay: atlas.Recover on a crashed shard-shaped heap

	{name: "hashmap.put_ns", unit: "ns", better: "lower"},              // replay: Map.Put of the workload's set, mset and relaxed-set pairs
	{name: "hashmap.get_ns", unit: "ns", better: "lower"},              // replay: Map.Get of the workload's get and mget keys; 0 on a workload that never reads
	{name: "hashmap.getopt_ns", unit: "ns", better: "lower"},           // replay: Map.GetOptimistic of the same keys
	{name: "hashmap.inc_ns", unit: "ns", better: "lower"},              // replay: Map.Inc of the workload's incr keys and deltas; 0 without incr (all but write_pipe)
	{name: "hashmap.delete_ns", unit: "ns", better: "lower"},           // replay: Map.Delete of the workload's delete keys; 0 without delete (all but write_pipe)
	{name: "hashmap.opt_retry_frac", unit: "frac", better: "lower"},    // optimistic read attempts that had to retry
	{name: "hashmap.opt_fallback_frac", unit: "frac", better: "lower"}, // optimistic reads that fell back to the lock
	{name: "hashmap.verify_ms", unit: "ms", better: "lower"},           // fixed replay: Map.Verify of a shard-sized map

	{name: "skiplist.put_ns", unit: "ns", better: "lower"},     // replay: List.Put of the workload's zadd keys; 0 without zadd (all but write_pipe)
	{name: "skiplist.get_ns", unit: "ns", better: "lower"},     // replay: List.Get of every ordered key the workload names (zadd, zrange); 0 on a workload without ordered commands
	{name: "skiplist.range16_ns", unit: "ns", better: "lower"}, // replay: List.RangeBetween from the workload's zrange bounds, stopped at 16 results; 0 without zrange (all but read_pipe)
	{name: "skiplist.verify_ms", unit: "ms", better: "lower"},  // fixed replay: List.Verify of a shard-sized list

	{name: "pheap.allocs_per_req", unit: "count", better: "lower"}, // heap blocks allocated per request
	{name: "pheap.frees_per_req", unit: "count", better: "lower"},  // heap blocks freed per request
	{name: "pheap.alloc_ns", unit: "ns", better: "lower"},          // fixed replay: Heap.Alloc of a 4-word block
	{name: "pheap.free_ns", unit: "ns", better: "lower"},           // fixed replay: Heap.Free
	{name: "pheap.open_ms", unit: "ms", better: "lower"},           // fixed replay: pheap.Open of a shard-sized heap (header check, free-list rebuild)

	{name: "nvm.stores_per_req", unit: "count", better: "lower"},     // device word stores per request
	{name: "nvm.loads_per_req", unit: "count", better: "lower"},      // device word loads per request
	{name: "nvm.flushes_per_req", unit: "count", better: "lower"},    // device flushes per request
	{name: "nvm.writebacks_per_req", unit: "count", better: "lower"}, // device line write-backs per request
	{name: "nvm.store_ns", unit: "ns", better: "lower"},              // fixed replay: Device.Store
	{name: "nvm.load_ns", unit: "ns", better: "lower"},               // fixed replay: Device.Load
	{name: "nvm.rescue_ms", unit: "ms", better: "lower"},             // fixed replay: Device.Crash with RescueFraction 1 on a shard-sized device

	{name: "stack.reattach_ms", unit: "ms", better: "lower"}, // fixed replay: Stack.CrashReattach of one shard-shaped stack
	{name: "stack.new_ms", unit: "ms", better: "lower"},      // fixed replay: stack.New of one shard-shaped stack

	{name: "cluster.slotof_ns", unit: "ns", better: "lower"},              // fixed replay: cluster.SlotOf
	{name: "cluster.ring_owner_ns", unit: "ns", better: "lower"},          // fixed replay: Ring.OwnerOfKey on a two-node ring
	{name: "cluster.hop_p50_us", unit: "us", better: "lower"},             // proxy p50 minus the same bytes sent to one node owning every slot (proxy only)
	{name: "cluster.forwards_per_req", unit: "count", better: "lower"},    // whole requests the proxy forwarded, per request
	{name: "cluster.fanout_legs_per_req", unit: "count", better: "lower"}, // per-node sub-requests of split commands, per request
	{name: "cluster.redirects", unit: "count", better: "lower"},           // MOVED redirects the proxy followed; 0 on a settled ring
}
