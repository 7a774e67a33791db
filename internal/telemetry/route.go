package telemetry

// RouteStats is the routing tier's counter section: what a cluster
// proxy did with the frontend traffic it decoded. It follows the same
// vocabulary rules as the server-side registry sections — nil-safe
// increment helpers, a Walk with canonical route_* names, and a
// Snapshot usable with the Snapshot arithmetic the stats surfaces
// share — but lives outside Registry because a proxy carries no
// storage stack underneath it.
type RouteStats struct {
	// Frontends counts accepted frontend connections.
	Frontends Counter
	// Batches counts decoded frontend batches routed (one backend write
	// per touched node each).
	Batches Counter
	// Requests counts frontend requests decoded.
	Requests Counter
	// LocalReplies counts requests the proxy answered itself — session,
	// ping, stats, cluster, quit, refusals, errors — as each reply is
	// staged (so a stats reply does not count itself).
	LocalReplies Counter
	// Forwards counts requests forwarded whole to one node.
	Forwards Counter
	// Fanouts counts scatter-gather requests (mget/mset/delete split
	// across nodes, zrange/zcount/wait broadcasts).
	Fanouts Counter
	// FanoutLegs counts the per-node sub-requests fanouts produced.
	FanoutLegs Counter
	// Redirects counts MOVED replies consumed from backends.
	Redirects Counter
	// Retries counts re-sends after a redirect or an importing-owner
	// wait.
	Retries Counter
	// RingRefreshes counts ownership changes applied to the proxy's
	// ring from redirects and migrate acknowledgements.
	RingRefreshes Counter
	// BackendDials counts backend connections established.
	BackendDials Counter
	// BackendErrors counts backend connections torn down by errors.
	BackendErrors Counter

	// ForwardLatency observes the frontend-observed latency of
	// single-node forwards (enqueue to reply).
	ForwardLatency Histogram
	// FanoutLatency observes the frontend-observed latency of
	// scatter-gather requests (enqueue to last leg's reply).
	FanoutLatency Histogram
}

// IncFrontends counts one accepted frontend connection.
func (t *RouteStats) IncFrontends() {
	if t != nil {
		t.Frontends.Inc()
	}
}

// Walk calls fn for every routing counter with its canonical route_*
// name, in a fixed order — the proxy-side mirror of Registry.Walk.
func (t *RouteStats) Walk(fn func(name string, value uint64)) {
	if t == nil {
		return
	}
	fn("route_frontends", t.Frontends.Load())
	fn("route_batches", t.Batches.Load())
	fn("route_requests", t.Requests.Load())
	fn("route_local_replies", t.LocalReplies.Load())
	fn("route_forwards", t.Forwards.Load())
	fn("route_fanouts", t.Fanouts.Load())
	fn("route_fanout_legs", t.FanoutLegs.Load())
	fn("route_redirects", t.Redirects.Load())
	fn("route_retries", t.Retries.Load())
	fn("route_ring_refreshes", t.RingRefreshes.Load())
	fn("route_backend_dials", t.BackendDials.Load())
	fn("route_backend_errors", t.BackendErrors.Load())
}

// Counters snapshots the routing counters under their canonical names
// (nil-safe, like Registry.Counters).
func (t *RouteStats) Counters() Snapshot {
	if t == nil {
		return nil
	}
	s := make(Snapshot, 16)
	t.Walk(func(name string, v uint64) { s[name] = v })
	return s
}

// ClusterStats is a cluster NODE's slot-ownership counter section —
// the server-side mirror of the proxy's RouteStats: what a node did
// with traffic for slots it does or does not own, and how migrations
// in and out of it went. Same vocabulary rules: nil-safe, a Walk with
// canonical cluster_* names, a Snapshot for the shared arithmetic.
type ClusterStats struct {
	// MovedReplies counts requests answered with a MOVED redirect
	// (importing, frozen, or not-owned slots).
	MovedReplies Counter
	// MigrationsOut counts slot migrations this node completed as the
	// source (ownership handed off).
	MigrationsOut Counter
	// MigrationsIn counts slot migrations this node completed as the
	// target (ownership taken).
	MigrationsIn Counter
	// MigrationAborts counts migrations (either side) that failed and
	// rolled back without an ownership change.
	MigrationAborts Counter
	// MigratedPairs counts snapshot pairs streamed out by migrations.
	MigratedPairs Counter
	// MigratedGroups counts log groups streamed out by migrations (the
	// dual-write window's traffic).
	MigratedGroups Counter
	// ImportedPairs counts snapshot pairs applied by inbound migrations.
	ImportedPairs Counter
	// ImportedGroups counts log groups applied by inbound migrations.
	ImportedGroups Counter
}

// Walk calls fn for every cluster counter with its canonical
// cluster_* name, in a fixed order.
func (t *ClusterStats) Walk(fn func(name string, value uint64)) {
	if t == nil {
		return
	}
	fn("cluster_moved_replies", t.MovedReplies.Load())
	fn("cluster_migrations_out", t.MigrationsOut.Load())
	fn("cluster_migrations_in", t.MigrationsIn.Load())
	fn("cluster_migration_aborts", t.MigrationAborts.Load())
	fn("cluster_migrated_pairs", t.MigratedPairs.Load())
	fn("cluster_migrated_groups", t.MigratedGroups.Load())
	fn("cluster_imported_pairs", t.ImportedPairs.Load())
	fn("cluster_imported_groups", t.ImportedGroups.Load())
}

// Counters snapshots the cluster counters under their canonical names
// (nil-safe).
func (t *ClusterStats) Counters() Snapshot {
	if t == nil {
		return nil
	}
	s := make(Snapshot, 8)
	t.Walk(func(name string, v uint64) { s[name] = v })
	return s
}

// Reset zeroes every cluster counter.
func (t *ClusterStats) Reset() {
	if t == nil {
		return
	}
	t.MovedReplies.Reset()
	t.MigrationsOut.Reset()
	t.MigrationsIn.Reset()
	t.MigrationAborts.Reset()
	t.MigratedPairs.Reset()
	t.MigratedGroups.Reset()
	t.ImportedPairs.Reset()
	t.ImportedGroups.Reset()
}

// NodeStats is one backend node's routing counters, keyed by address
// at the proxy.
type NodeStats struct {
	// Sent counts requests (including fanout legs and session rebind
	// prefixes) written to the node.
	Sent Counter
	// Batches counts backend writes (one per frontend batch touching
	// the node).
	Batches Counter
	// Redirects counts MOVED replies the node answered.
	Redirects Counter
	// Errors counts connection failures against the node.
	Errors Counter
}
