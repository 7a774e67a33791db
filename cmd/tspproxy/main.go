// Command tspproxy serves the cluster routing tier: one listener that
// terminates client connections (native or RESP, sniffed per
// connection exactly like tspcached) and routes every request to the
// cluster node that owns its hash slot, over a pool of at most four
// pipelined backend connections per node (give each node -conns of at
// least four per proxy plus its direct clients). Multi-key
// commands (mget, mset, delete) are split per slot owner and the
// partial replies merged back in request order; ordered-keyspace
// commands (zrange, zcount) and wait fan out to every node and k-way
// merge / aggregate. Clients keep the single-server wire protocol —
// the proxy is where the cluster stops being their problem:
//
//	$ tspcached -addr 127.0.0.1:11222 -cluster-slots 0-31 &
//	$ tspcached -addr 127.0.0.1:11223 -cluster-slots 32-63 &
//	$ tspproxy -addr 127.0.0.1:11300 -nodes 127.0.0.1:11222,127.0.0.1:11223 &
//	$ printf 'mset 1 100 2 200 3 300\r\nmget 1 2 3\r\nquit\r\n' | nc 127.0.0.1 11300
//	STORED 3
//	VALUE 1 100
//	VALUE 2 200
//	VALUE 3 300
//	END
//
// The proxy seeds its routing table from -nodes and each node's
// `cluster` reply, then follows the cluster live: a node answering
// MOVED updates the ring in place, so a `migrate <slot> <addr>` issued
// through the proxy (or directly to a node) redirects traffic without
// a restart or a config push. Session semantics survive routing — the
// proxy tracks each frontend connection's `session <id>` binding and
// prefixes forwarded sessioned commands with a rebind on the pooled
// backend connection, so exactly-once `seq=` retries dedup on the
// owning node exactly as they would point-to-point.
//
// The stats command answers from the proxy itself with route_* and
// per-node counters (the cluster-tier telemetry vocabulary); `cluster`
// prints the proxy's current slot table. Admin verbs that only make
// sense on a node (crash, promote) are refused with a pointer to
// connect directly.
//
// Usage:
//
//	tspproxy -nodes host:port[,host:port...] [-addr 127.0.0.1:11300]
//
// The ring places 64 virtual points per node, and a frontend request is
// bounded at 1 MiB of wire, as on a node.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tsp/internal/cluster"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11300", "TCP listen address")
	nodes := flag.String("nodes", "", "comma-separated cluster node addresses (required)")
	flag.Parse()

	var seeds []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			seeds = append(seeds, n)
		}
	}
	if len(seeds) == 0 {
		fmt.Fprintln(os.Stderr, "tspproxy: -nodes is required (comma-separated node addresses)")
		os.Exit(2)
	}

	p, err := cluster.New(cluster.Config{
		Addr:  *addr,
		Nodes: seeds,
		Logf:  log.New(os.Stderr, "tspproxy: ", log.LstdFlags).Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("tspproxy listening on %s (%d nodes, %d slots)\n",
		p.Addr(), len(seeds), cluster.NumSlots)
	for _, n := range seeds {
		fmt.Printf("  node %s\n", n)
	}

	// The proxy serves from its own goroutines; hold main until asked
	// to stop, then tear every connection down.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if err := p.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
