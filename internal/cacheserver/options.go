package cacheserver

import (
	"fmt"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/cluster"
	"tsp/internal/proto"
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
	deviceWords int // per shard
	writeBuf    int // per-connection response buffer bound, bytes
	buckets     int // per-shard hash map shape
	perMutex    int
	metricsAddr string // optional HTTP metrics endpoint; "" = disabled
	batchMax    int    // max ops per batch, i.e. per Atlas critical section
	queueDepth  int    // per-shard pending-request queue bound
	replListen  string // replication listener (primary role); "" = disabled
	replicaOf   string // primary's replication address (follower role); "" = disabled
	replWindow  int    // committed groups the replication log retains

	proto           string // wire protocol: "auto" (sniff), "native", "resp"
	maxRequestBytes int    // single-request wire-size ceiling
	optimisticReads bool   // serve pure reads on the lock-free seqlock path

	clusterSlots string // owned hash-slot spec ("lo-hi,lo" or "all"); "" = not a cluster node

	epochInterval time.Duration // epoch clock period; <= 0 disables the tiers

	sessSlots int // per-shard persistent session dedup records
}

// Wire protocol selections for config.proto / WithProto.
const (
	protoAuto   = "auto"
	protoNative = "native"
	protoRESP   = "resp"
)

func defaultConfig() config {
	return config{
		addr:        "127.0.0.1:0",
		mode:        atlas.ModeTSP,
		shards:      4,
		maxConns:    16,
		deviceWords: 1 << 20,
		writeBuf:    16 << 10,
		buckets:     4096,
		perMutex:    256,
		batchMax:    64,
		queueDepth:  256,
		replWindow:  4096,

		proto:           protoAuto,
		maxRequestBytes: proto.DefaultMaxRequest,
		optimisticReads: true,

		epochInterval: 5 * time.Millisecond,

		sessSlots: 256,
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
	if c.writeBuf < 512 {
		return fmt.Errorf("cacheserver: write buffer %d bytes too small", c.writeBuf)
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
	if (c.replListen != "" || c.replicaOf != "") && c.replWindow < 1 {
		return fmt.Errorf("cacheserver: repl window must be >= 1, got %d", c.replWindow)
	}
	switch c.proto {
	case protoAuto, protoNative, protoRESP:
	default:
		return fmt.Errorf("cacheserver: unknown protocol %q (want auto, native, or resp)", c.proto)
	}
	if c.maxRequestBytes < 64 {
		return fmt.Errorf("cacheserver: max request bytes %d too small", c.maxRequestBytes)
	}
	if c.sessSlots < 1 {
		return fmt.Errorf("cacheserver: session window must be >= 1, got %d", c.sessSlots)
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

// WithWriteBuffer bounds each connection's response buffer in bytes
// (default 16 KiB). Responses larger than the bound spill to the socket
// as they are produced, so a slow reader exerts backpressure on its own
// handler instead of growing server memory.
func WithWriteBuffer(bytes int) Option {
	return func(c *config) { c.writeBuf = bytes }
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

// WithBuckets shapes each shard's hash map: bucket count and buckets
// per stripe mutex (defaults 4096 and 256).
func WithBuckets(buckets, perMutex int) Option {
	return func(c *config) {
		c.buckets = buckets
		c.perMutex = perMutex
	}
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

// WithOptimisticReads toggles the lock-free read path (default true).
// When enabled, get and the pure-read mget are served by seqlock-
// validated optimistic reads that take no Atlas mutex and never enter
// the write path — the paper's recovery-observer argument (readers
// need zero persistence work) applied to the server's hot path. A read
// that keeps colliding with writers falls back to a commit group, so
// disabling the option only removes the fast path, never behavior.
func WithOptimisticReads(on bool) Option {
	return func(c *config) { c.optimisticReads = on }
}

// WithProto pins the listener's wire protocol: "native" (the
// line-oriented text protocol), "resp" (RESP2, what redis-cli and
// redis-benchmark speak), or "auto" (the default — each connection is
// sniffed from its first byte; RESP framing always leads with '*',
// which no native command starts with).
func WithProto(p string) Option {
	return func(c *config) { c.proto = p }
}

// WithMaxRequestBytes bounds the wire size of a single request
// (default proto.DefaultMaxRequest, 1 MiB). An oversized request is
// answered with a "request too large" error instead of being buffered:
// on the native protocol the connection then resynchronizes at the
// next newline and keeps serving; RESP frames cannot be skipped
// without trusting the oversized header, so the connection is closed
// after the error is written. The old bufio.Scanner handler silently
// dropped the connection at 64 KiB with no error at all.
func WithMaxRequestBytes(n int) Option {
	return func(c *config) { c.maxRequestBytes = n }
}

// WithReplWindow bounds how many committed groups the primary's
// in-memory replication log retains (default 4096). A follower
// reconnecting inside the window catches up by streaming; one behind it
// receives a full snapshot transfer instead.
func WithReplWindow(n int) Option {
	return func(c *config) { c.replWindow = n }
}

// WithSessionWindow sizes each shard's persistent session dedup window
// (default 256 records). One record tracks one client session's highest
// applied seq on that shard; when every slot is taken a round-robin
// victim is evicted and the shard's floor rises to the victim's seq, so
// a retry of any evicted-or-earlier seq is refused with "seq too old"
// rather than risked as a re-application. Size it to the number of
// concurrently retrying sessions, not to total sessions ever seen.
func WithSessionWindow(n int) Option {
	return func(c *config) { c.sessSlots = n }
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
// a crash can inflict on the relaxed tier. A non-positive interval
// disables the epoch clock entirely: relaxed and fire degrade to
// durable (every write commits before its ack) and epoch waits return
// immediately.
func WithEpochInterval(d time.Duration) Option {
	return func(c *config) { c.epochInterval = d }
}
