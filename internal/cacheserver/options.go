package cacheserver

import (
	"fmt"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/cluster"
)

// config is the resolved server configuration. It is built from
// functional options rather than a zero-value-defaulted struct: the old
// Config approach could not express "explicitly off" — atlas.ModeOff
// (== 0) was indistinguishable from "unset" and silently rewritten to
// ModeTSP, so an unfortified server was unreachable. An Option runs
// only when the caller invokes it, so WithMode(atlas.ModeOff) now
// sticks.
type config struct {
	addr        string
	mode        atlas.Mode
	shards      int
	maxConns    int
	deviceWords int    // per shard
	metricsAddr string // optional HTTP metrics endpoint; "" = disabled
	batchMax    int    // max ops per batch, i.e. per Atlas critical section
	queueDepth  int    // per-shard pending-request queue bound
	replListen  string // replication listener (primary role); "" = disabled
	replicaOf   string // primary's replication address (follower role); "" = disabled

	clusterSlots string // owned hash-slot spec ("lo-hi,lo" or "all"); "" = not a cluster node

	epochInterval time.Duration // epoch clock period
}

func defaultConfig() config {
	return config{
		addr:        "127.0.0.1:0",
		mode:        atlas.ModeTSP,
		shards:      4,
		maxConns:    16,
		deviceWords: 1 << 20,
		batchMax:    64,
		queueDepth:  256,

		epochInterval: 5 * time.Millisecond,
	}
}

func (c config) validate() error {
	if c.shards < 1 {
		return fmt.Errorf("cacheserver: shards must be >= 1, got %d", c.shards)
	}
	if c.maxConns < 1 {
		return fmt.Errorf("cacheserver: max conns must be >= 1, got %d", c.maxConns)
	}
	if c.deviceWords < 1<<12 {
		return fmt.Errorf("cacheserver: device words %d too small", c.deviceWords)
	}
	if c.batchMax < 1 {
		return fmt.Errorf("cacheserver: batch max must be >= 1, got %d", c.batchMax)
	}
	if c.queueDepth < 1 {
		return fmt.Errorf("cacheserver: queue depth must be >= 1, got %d", c.queueDepth)
	}
	if c.replListen != "" && c.replicaOf != "" {
		return fmt.Errorf("cacheserver: a server cannot be both primary (repl listen) and follower (replica of)")
	}
	if c.epochInterval <= 0 {
		return fmt.Errorf("cacheserver: epoch interval must be > 0, got %v", c.epochInterval)
	}
	if c.clusterSlots != "" {
		if _, err := cluster.ParseSlots(c.clusterSlots); err != nil {
			return fmt.Errorf("cacheserver: %w", err)
		}
		if c.replicaOf != "" {
			return fmt.Errorf("cacheserver: a cluster node cannot be a replication follower")
		}
	}
	return nil
}

// Option configures New.
type Option func(*config)

// WithAddr sets the TCP listen address (default "127.0.0.1:0").
func WithAddr(addr string) Option {
	return func(c *config) { c.addr = addr }
}

// WithMode sets the Atlas fortification level for every shard. The
// default is ModeTSP; WithMode(atlas.ModeOff) runs the server genuinely
// unfortified.
func WithMode(m atlas.Mode) Option {
	return func(c *config) { c.mode = m }
}

// WithShards sets the number of independent storage stacks keys are
// hashed across (default 4). Operations on different shards never
// contend: each shard has its own device, heap, Atlas runtime, map and
// lock.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithMaxConns bounds concurrently served connections (default 16).
// Connections beyond the bound are not rejected; they queue until a
// slot frees (accept-side backpressure).
func WithMaxConns(n int) Option {
	return func(c *config) { c.maxConns = n }
}

// WithDeviceWords sizes each shard's simulated NVM device
// (default 1<<20 words).
func WithDeviceWords(n int) Option {
	return func(c *config) { c.deviceWords = n }
}

// WithMetricsAddr enables the HTTP metrics endpoint on addr (e.g.
// "127.0.0.1:9090"): GET /metrics serves every shard's telemetry
// registry as Prometheus-style text. Empty (the default) disables it.
func WithMetricsAddr(addr string) Option {
	return func(c *config) { c.metricsAddr = addr }
}

// WithBatchMax bounds how many operations one batch may execute inside
// a single Atlas critical section (default 64, minimum 1). The bound is
// what sizes the undo-log ring. A commit group larger than the bound (a
// wide mset aimed at one shard, a deeply pipelined burst) is split into
// bound-sized sections run back to back under one hold of the shard's
// drain lock.
func WithBatchMax(n int) Option {
	return func(c *config) { c.batchMax = n }
}

// WithQueueDepth bounds each shard's queue of commit groups waiting
// behind a busy drain lock (default 256 groups). A submitter that
// finds the queue full waits for the drain lock itself and runs its
// group when it gets it; each such direct run is counted in
// server_batch_fallbacks, so backpressure shows up in stats.
func WithQueueDepth(n int) Option {
	return func(c *config) { c.queueDepth = n }
}

// WithReplListen makes the server a replication primary: it accepts
// follower connections on addr (e.g. "127.0.0.1:0") and streams every
// committed batch group to them (see internal/repl). Mutually exclusive
// with WithReplicaOf. Every mutating group commits under its shard's
// drain lock, so the replication log order matches commit order
// exactly.
func WithReplListen(addr string) Option {
	return func(c *config) { c.replListen = addr }
}

// WithReplicaOf makes the server a read-only follower of the primary
// whose replication listener is at addr: it applies the streamed groups
// through its own storage stacks and rejects client mutations until the
// "promote" command severs replication — the site-disaster failover the
// planner's prevention verdict calls for. Mutually exclusive with
// WithReplListen.
func WithReplicaOf(addr string) Option {
	return func(c *config) { c.replicaOf = addr }
}

// WithClusterSlots makes the server a cluster node owning the given
// hash slots — a "lo-hi,lo" spec over internal/cluster's slot space,
// "all", or "none" (join empty; slots arrive by migration). Keyed
// requests for slots outside the set are answered with
// a MOVED redirect instead of being executed; the `migrate` command
// hands a slot (with its data, session windows, and in-flight suffix)
// to another node live. Cluster nodes keep a replication log even
// without followers: it is what migration streams from. Mutually
// exclusive with WithReplicaOf (a follower mirrors its primary's
// keyspace wholesale; slot ownership would fight the stream).
func WithClusterSlots(spec string) Option {
	return func(c *config) { c.clusterSlots = spec }
}

// WithEpochInterval sets the durability epoch clock's period (default
// 5ms). Relaxed-tier writes are acknowledged the moment they land in a
// shard's volatile overlay, stamped with the current epoch, and made
// persistent when that epoch closes — so the interval IS the loss bound
// a crash can inflict on the relaxed tier. It must be positive.
func WithEpochInterval(d time.Duration) Option {
	return func(c *config) { c.epochInterval = d }
}
