// Command tspcached serves a sharded, memcached-style cache backed by
// the crash-resilient persistent-heap stack — the application shape the
// paper's Atlas work was evaluated on. Keys are hashed across N
// independent storage stacks, so operations on different shards never
// contend. Connect with any line-oriented TCP client (nc, telnet):
//
//	$ go run ./cmd/tspcached -addr 127.0.0.1:11222 -shards 4 &
//	$ printf 'mset 1 100 2 200\r\nincr 1 11\r\ncrash\r\nmget 1 2\r\nquit\r\n' | nc 127.0.0.1 11222
//	STORED 2
//	111
//	OK RECOVERED
//	VALUE 1 111
//	VALUE 2 200
//	END
//
// The crash command simulates a power failure with a TSP rescue on
// every shard (crash <n> takes down just one, while the rest keep
// serving) and runs the full recovery path (heap reopen, Atlas
// rollback, verify); the data is still there, as Section 4.2 promises.
// The stats command renders every telemetry row — every layer's counters
// (device flushes, Atlas log appends, map ops), gauges and latency
// histograms, the shard rows summed; stats shards shows the shard rows
// per shard. With -metrics-addr the same rows are additionally served
// as Prometheus-style text over HTTP, beside the runtime profiles at
// /debug/pprof/ (docs/PROTOCOL.md §9 lists the rows):
//
//	$ tspcached -metrics-addr 127.0.0.1:9090 &
//	$ curl -s http://127.0.0.1:9090/metrics | grep tsp_nvm_flushes
//
// The server also speaks RESP2 (the redis wire protocol): each
// connection's protocol is sniffed from its first byte, so
// redis-cli and redis-benchmark work against the same listener with no
// configuration — non-numeric keys and values hash into the integer
// keyspace:
//
//	$ redis-cli -p 11222 set 1 42
//	OK
//	$ redis-benchmark -p 11222 -t set,get -P 8
//
// A single request is bounded at 1 MiB of wire: an oversized one is
// answered with an error — the native protocol then resynchronizes at
// the next newline, RESP tears the connection down.
//
// Every mutating command accepts a trailing durability tier: `durable`
// (the default — committed before the ack), `relaxed` (acked from a
// volatile overlay and persisted when the current epoch closes, so a
// crash loses at most -epoch-interval of relaxed writes; the ack
// carries an `@<epoch>` receipt redeemable against the crash reply's
// `OK RECOVERED EPOCH <p>` frontier), or `fire` (acked before any
// state is consulted). `wait` blocks until the persistent frontier
// covers the caller's relaxed writes; `wait repl` until followers have
// acknowledged its durable writes:
//
//	$ printf 'set 1 100 relaxed\r\nwait\r\ncrash\r\nget 1\r\nquit\r\n' | nc 127.0.0.1 11222
//	STORED @3
//	4
//	OK RECOVERED EPOCH 4
//	VALUE 1 100
//
// -epoch-interval sets the clock period (and therefore the relaxed
// tier's loss bound); it must be positive.
//
// Exactly-once retries: `session <id>` binds the connection to a client
// session, and a `seq=<n>` option on a mutating command makes it a
// detectable operation — the per-shard dedup window (256 sessions)
// recognizes a duplicate retry and replays the
// recorded ack instead of re-applying, across crash recovery and
// follower promotion alike. docs/PROTOCOL.md is the canonical wire
// reference for the session grammar and its error strings.
//
// Usage:
//
//	tspcached [-addr 127.0.0.1:11222] [-mode tsp|nontsp|off] [-shards 4]
//	          [-conns 16] [-words 1048576] [-metrics-addr host:port]
//	          [-batch-max 64] [-queue-depth 256]
//	          [-repl-listen host:port | -replica-of host:port]
//	          [-epoch-interval 5ms] [-cluster-slots 0-31]
//
// Every mutation is one commit group run inside one Atlas critical
// section under its shard's drain lock. A request arriving at an idle
// shard runs in its own connection's goroutine; requests arriving
// behind a busy shard — from any connection — queue and coalesce into
// one section (up to -batch-max ops, minimum 1), amortizing the
// per-section persistence cost across the batch. -queue-depth bounds
// each shard's queue; when it is full, a request waits for the drain
// lock itself instead (the stats report these as batch fallbacks).
//
// Pure reads (get, and mget when every key validates) are served by a
// lock-free seqlock path that takes no Atlas mutex and never enters the
// write path — the paper's recovery-observer argument applied to the
// hot path. A read that fails to validate, or that shares a pipelined
// burst with a mutation, commits through the shards instead.
//
// Replication (the preventive tier for site-disaster failure classes —
// see internal/repl): -repl-listen makes this process a primary that
// streams every committed batch group to connected followers;
// -replica-of starts a read-only follower applying the stream from the
// primary's replication listener, promotable over the wire with the
// "promote" command after the primary's site is lost. A follower that
// reconnects within the primary's last 4096 groups resumes streaming;
// one further behind is re-seeded with a snapshot:
//
//	$ tspcached -addr 127.0.0.1:11222 -repl-listen 127.0.0.1:12222 &
//	$ tspcached -addr 127.0.0.1:11223 -replica-of 127.0.0.1:12222 &
//	$ printf 'set 1 100\r\nquit\r\n' | nc 127.0.0.1 11222
//	$ kill -9 %1
//	$ printf 'promote\r\nget 1\r\nquit\r\n' | nc 127.0.0.1 11223
//	OK PROMOTED
//	VALUE 1 100
//
// Clustering (horizontal scale-out): -cluster-slots makes this process
// one node of a cluster owning the given hash slots. Keyed requests
// for other slots are answered with a MOVED redirect, the `migrate`
// command hands a slot to another node live (data, session windows,
// and in-flight writes included), and cmd/tspproxy serves the whole
// cluster behind one address.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/cacheserver"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11222", "TCP listen address")
	mode := flag.String("mode", "tsp", "fortification: tsp (log only), nontsp (log+flush), off (unfortified)")
	shards := flag.Int("shards", 4, "independent storage shards")
	conns := flag.Int("conns", 16, "served connections; excess connections queue (backpressure)")
	words := flag.Int("words", 1<<20, "simulated NVM words per shard")
	metricsAddr := flag.String("metrics-addr", "", "HTTP metrics listen address (Prometheus text at /metrics); empty disables")
	batchMax := flag.Int("batch-max", 64, "max ops per batched critical section (>= 1)")
	queueDepth := flag.Int("queue-depth", 256, "per-shard bound on commit groups queued behind a busy drain lock")
	replListen := flag.String("repl-listen", "", "replication listen address: stream committed batches to followers (primary role); empty disables")
	replicaOf := flag.String("replica-of", "", "primary's replication address: apply its stream read-only until promoted (follower role); empty disables")
	epochInterval := flag.Duration("epoch-interval", 5*time.Millisecond, "durability epoch clock period — the relaxed tier's crash-loss bound (> 0)")
	clusterSlots := flag.String("cluster-slots", "", "hash slots this node owns (\"lo-hi,lo\", \"all\", or \"none\"): serve as a cluster node, answering MOVED for other slots; empty disables")
	flag.Parse()

	var m atlas.Mode
	switch *mode {
	case "tsp":
		m = atlas.ModeTSP
	case "nontsp":
		m = atlas.ModeNonTSP
	case "off":
		m = atlas.ModeOff
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	srv, err := cacheserver.New(
		cacheserver.WithAddr(*addr),
		cacheserver.WithMode(m),
		cacheserver.WithShards(*shards),
		cacheserver.WithMaxConns(*conns),
		cacheserver.WithDeviceWords(*words),
		cacheserver.WithMetricsAddr(*metricsAddr),
		cacheserver.WithBatchMax(*batchMax),
		cacheserver.WithQueueDepth(*queueDepth),
		cacheserver.WithReplListen(*replListen),
		cacheserver.WithReplicaOf(*replicaOf),
		cacheserver.WithEpochInterval(*epochInterval),
		cacheserver.WithClusterSlots(*clusterSlots),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("tspcached listening on %s (mode %s, %d shards, %d connection slots)\n",
		srv.Addr(), m, srv.NumShards(), *conns)
	if ma := srv.MetricsAddr(); ma != nil {
		fmt.Printf("metrics at http://%s/metrics\n", ma)
	}
	if ra := srv.ReplAddr(); ra != nil {
		fmt.Printf("replication: primary streaming on %s\n", ra)
	}
	if *replicaOf != "" {
		fmt.Printf("replication: following %s (read-only until promote)\n", *replicaOf)
	}
	if *clusterSlots != "" {
		fmt.Printf("cluster: serving slots %s\n", *clusterSlots)
	}
	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
