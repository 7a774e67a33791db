package telemetry

import (
	"sync"
	"sync/atomic"
)

// RouteStats is the routing tier's counter section: what a cluster
// proxy did with the frontend traffic it decoded. It follows the same
// vocabulary rules as the server-side registry sections — nil-safe
// counters and rows with canonical route_* names (RouteRows),
// whose help says what each field counts — but lives outside Registry
// because a proxy carries no storage stack underneath it.
type RouteStats struct {
	Frontends, Batches, Requests, LocalReplies Counter
	Forwards, Fanouts, FanoutLegs              Counter
	Redirects, Retries, RingRefreshes          Counter
	BackendDials, BackendErrors                Counter

	ForwardLatency, FanoutLatency, BackendWait Histogram

	// RingEpoch is the proxy ring's epoch, set before the proxy renders.
	RingEpoch atomic.Uint64

	// The per-node counters (see Node), in first-use order.
	nodeMu    sync.Mutex
	nodeAddrs []string
	nodes     []*NodeStats
}

// Node returns addr's backend counters, creating them on first use
// (nil on a nil receiver). Nodes are kept in first-use order, so a
// node's series index never changes while a surface reads it.
func (t *RouteStats) Node(addr string) *NodeStats {
	if t == nil {
		return nil
	}
	t.nodeMu.Lock()
	defer t.nodeMu.Unlock()
	for i, a := range t.nodeAddrs {
		if a == addr {
			return t.nodes[i]
		}
	}
	n := &NodeStats{}
	t.nodeAddrs = append(t.nodeAddrs, addr)
	t.nodes = append(t.nodes, n)
	return n
}

func (t *RouteStats) node(i int) *NodeStats {
	t.nodeMu.Lock()
	defer t.nodeMu.Unlock()
	return t.nodes[i]
}

// nodeRow is one per-node counter family, labelled by node address.
func nodeRow(name, help string, f func(*NodeStats) *Counter) Row[RouteStats] {
	return Row[RouteStats]{Desc: Desc{Name: "node_<node>_" + name, Kind: KindCounter, Help: help},
		labels: func(t *RouteStats) [][]string {
			t.nodeMu.Lock()
			defer t.nodeMu.Unlock()
			return oneLabel(t.nodeAddrs...)
		},
		read: func(t *RouteStats, i int, c *cell) { c.c = f(t.node(i)) }}
}

// RouteRows is a proxy's rows: the routing counters, the forward and
// fan-out latencies, the ring epoch and the per-node counters.
var RouteRows = newTable(ScopeServer, []Row[RouteStats]{
	counter("route_frontends", "frontend connections accepted", func(t *RouteStats) *Counter { return &t.Frontends }),
	counter("route_batches", "decoded frontend batches routed", func(t *RouteStats) *Counter { return &t.Batches }),
	counter("route_requests", "frontend requests decoded", func(t *RouteStats) *Counter { return &t.Requests }),
	counter("route_local_replies", "requests the proxy answered itself, counted as each reply is staged", func(t *RouteStats) *Counter { return &t.LocalReplies }),
	counter("route_forwards", "requests forwarded whole to one node", func(t *RouteStats) *Counter { return &t.Forwards }),
	counter("route_fanouts", "requests split or broadcast across nodes", func(t *RouteStats) *Counter { return &t.Fanouts }),
	counter("route_fanout_legs", "per-node sub-requests the fan-outs produced", func(t *RouteStats) *Counter { return &t.FanoutLegs }),
	counter("route_redirects", "MOVED replies consumed from nodes", func(t *RouteStats) *Counter { return &t.Redirects }),
	counter("route_retries", "re-sends after a redirect or an importing owner", func(t *RouteStats) *Counter { return &t.Retries }),
	counter("route_ring_refreshes", "ownership changes applied to the ring", func(t *RouteStats) *Counter { return &t.RingRefreshes }),
	counter("route_backend_dials", "backend connections established, at most four open per node", func(t *RouteStats) *Counter { return &t.BackendDials }),
	counter("route_backend_errors", "backend connections torn down by errors", func(t *RouteStats) *Counter { return &t.BackendErrors }),
	histogram("route_forward_latency", KindDuration, "a single-node forward, enqueue to reply", func(t *RouteStats) *Histogram { return &t.ForwardLatency }),
	histogram("route_fanout_latency", KindDuration, "a fan-out, enqueue to its last leg's reply", func(t *RouteStats) *Histogram { return &t.FanoutLatency }),
	histogram("route_backend_wait", KindDuration, "per frontend batch, its last backend write to its last reply read", func(t *RouteStats) *Histogram { return &t.BackendWait }),
	gauge("ring_epoch", "the proxy ring's ownership epoch", func(t *RouteStats) *atomic.Uint64 { return &t.RingEpoch }),
	nodeRow("sent", "requests written to the node, fan-out legs and session rebinds included", func(n *NodeStats) *Counter { return &n.Sent }),
	nodeRow("batches", "backend writes to the node", func(n *NodeStats) *Counter { return &n.Batches }),
	nodeRow("redirects", "MOVED replies the node answered", func(n *NodeStats) *Counter { return &n.Redirects }),
	nodeRow("errors", "connection failures against the node", func(n *NodeStats) *Counter { return &n.Errors }),
})

// ClusterStats is a cluster NODE's slot-ownership counter section —
// the server-side mirror of the proxy's RouteStats: what a node did
// with traffic for slots it does or does not own, and how migrations
// in and out of it went. Same vocabulary rules: nil-safe, rows with
// canonical cluster_* names (ClusterRows) whose help says what each
// field counts.
type ClusterStats struct {
	MovedReplies                                 Counter
	MigrationsOut, MigrationsIn, MigrationAborts Counter
	MigratedPairs, MigratedGroups                Counter
	ImportedPairs, ImportedGroups                Counter

	// Epoch and SlotsOwned are set before the node renders.
	Epoch, SlotsOwned atomic.Uint64
}

// ClusterRows is a cluster node's rows, rendered while the server is a
// cluster node.
var ClusterRows = newTable(ScopeServer, []Row[ClusterStats]{
	gauge("cluster_epoch", "the node's ownership epoch: 1 at start, +1 per flip", func(t *ClusterStats) *atomic.Uint64 { return &t.Epoch }),
	gauge("cluster_slots_owned", "hash slots the node owns", func(t *ClusterStats) *atomic.Uint64 { return &t.SlotsOwned }),
	counter("cluster_moved_replies", "requests answered with a MOVED redirect", func(t *ClusterStats) *Counter { return &t.MovedReplies }),
	counter("cluster_migrations_out", "slot migrations completed as the source", func(t *ClusterStats) *Counter { return &t.MigrationsOut }),
	counter("cluster_migrations_in", "slot migrations completed as the target", func(t *ClusterStats) *Counter { return &t.MigrationsIn }),
	counter("cluster_migration_aborts", "migrations, either side, rolled back without a flip", func(t *ClusterStats) *Counter { return &t.MigrationAborts }),
	counter("cluster_migrated_pairs", "pairs migrations streamed out", func(t *ClusterStats) *Counter { return &t.MigratedPairs }),
	counter("cluster_migrated_groups", "log groups migrations streamed out", func(t *ClusterStats) *Counter { return &t.MigratedGroups }),
	counter("cluster_imported_pairs", "pairs inbound migrations applied", func(t *ClusterStats) *Counter { return &t.ImportedPairs }),
	counter("cluster_imported_groups", "log groups inbound migrations applied", func(t *ClusterStats) *Counter { return &t.ImportedGroups }),
})

// NodeStats is one backend node's routing counters, keyed by address
// at the proxy.
type NodeStats struct {
	Sent, Batches, Redirects, Errors Counter // see RouteRows' node_<node>_* rows
}
