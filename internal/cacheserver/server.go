// Package cacheserver is a sharded, memcached-style TCP server backed
// by the crash-resilient persistent-heap stack — the shape of
// application the paper's Atlas work was originally evaluated on
// (memcached, OpenLDAP). Keys are hashed across N independent storage
// stacks (device + heap + Atlas runtime + map, assembled by
// internal/stack), so operations on different shards never contend and
// throughput scales with cores instead of serializing on one global
// stack. Every mutation runs through an Atlas runtime, so the cache's
// contents survive simulated crashes with the usual TSP contract —
// per shard: an administrative command can power-fail one shard (or all
// of them) while the rest keep serving, and recovery re-verifies the
// shard's integrity invariants before it rejoins.
//
// The wire protocol lives behind internal/proto's Adapter seam. The
// native protocol is a line-oriented subset of memcached's text
// protocol over integer keys and values:
//
//	set <key> <value>        -> STORED
//	get <key>                -> VALUE <key> <value> | NOT_FOUND
//	incr <key> <delta>       -> <new value> | error
//	delete <key>             -> DELETED | NOT_FOUND
//	mget <key> ...           -> per key VALUE <key> <value> | NOT_FOUND <key>, then END
//	mset <key> <value> ...   -> STORED <count>
//	zadd <key> <value>       -> STORED (ordered keyspace)
//	zget <key>               -> VALUE <key> <value> | NOT_FOUND
//	zincr <key> <delta>      -> <new value> | error
//	zdel <key>               -> DELETED | NOT_FOUND
//	zrange <lo> <hi> [limit] -> ascending VALUE lines over [lo,hi), then END
//	zcount <lo> <hi>         -> count of ordered keys in [lo,hi)
//	stats                    -> one STAT line per telemetry row series + END
//	stats shards             -> one STAT line per shard + END
//	stats reset              -> zeroes counters and histograms; RESET
//	crash                    -> power-fails and recovers every shard; OK RECOVERED EPOCH <p>
//	crash <shard>            -> power-fails and recovers one shard; OK RECOVERED SHARD <n> EPOCH <p>
//	promote                  -> severs replication on a follower; OK PROMOTED
//	ping                     -> PONG
//	quit                     -> closes the connection
//
// Every mutating command additionally accepts a trailing durability
// tier — `durable` (the default: effects are committed to fortified
// state before the ack), `relaxed` (acked from a volatile overlay,
// persisted when the current epoch closes; the ack carries `@<epoch>`,
// a receipt redeemable against the crash reply's recovered frontier),
// or `fire` (acked before any state is consulted). The companion
// barrier:
//
//	wait [epoch [timeout-ms]] -> persisted frontier once it covers <epoch> (default: now)
//	wait repl [timeout-ms]    -> follower ack count for this connection's writes
//
// See epoch.go for the tier machinery and DESIGN.md §11 for the
// crash-loss contract.
//
// Exactly-once retries ride a session handshake plus per-request
// sequence numbers (detectable operations; see session.go and
// DESIGN.md §12):
//
//	session <id>             -> OK SESSION <id> (binds the connection)
//	set <k> <v> seq=<n>      -> as set, but duplicate retries of seq n
//	                            replay the recorded ack instead of
//	                            re-applying (likewise incr, delete,
//	                            mset, zadd, zincr, zdel)
//
// A seq below the session's record — or below the shard's eviction
// floor — is refused with "seq too old". docs/PROTOCOL.md is the
// canonical reference for the full grammar, both protocols' spellings,
// and every error string.
//
// The same commands are also served over RESP2 (GET/SET/INCRBY/DEL/
// MGET/MSET/PING/INFO and friends), so redis-cli and redis-benchmark
// can drive the server directly; non-numeric keys and values hash to
// the integer keyspace. By default each connection's protocol is
// sniffed from its first byte (RESP framing always leads with '*');
// WithProto pins a listener to one protocol.
//
// The z* commands address the ordered keyspace: a persistent lock-free
// skip list living beside the hash map under each shard's multi-engine
// heap root (see internal/stack and internal/skiplist). Ordered writes
// ride the same flat-combined batches as map writes; ordered reads —
// zget, zrange, zcount — traverse the skip list with no Atlas critical
// section and no seqlock, the paper's Section 4.1 argument that a
// non-blocking structure needs zero crash-consistency measures made
// visible on the wire. Ranges are half-open [lo, hi). Ordered keys are
// hash-routed across shards like map keys; zrange merges the per-shard
// runs (DESIGN.md §10).
//
// Requests decode in pipelined batches (see serve.go and
// internal/proto): one socket read surfaces every buffered request as
// one batch, the batch's data commands — seq-tagged ones included —
// compile into one commit plan (plan.go) submitted once per owner
// shard, every shard before any is awaited, and every reply flushes in
// one write. A client that pipelines N commands pays the protocol and
// persistence machinery once per burst, not once per command — the
// paper's procrastinated-persistence shape applied to the network
// layer.
//
// A server can additionally run as a replication primary (streaming
// every committed batch group to followers) or as a read-only follower
// of such a primary — the preventive tier for site-disaster failure
// classes; see repl.go and internal/repl. A follower rejects mutations
// (and the crash command, whose state shedding would silently diverge
// the copy) until promoted.
//
// Execution has one write path (see batch.go): every mutation is a
// commit group run inside one Atlas critical section under its shard's
// drain lock, and groups queued behind a busy shard — from any
// connection — coalesce into one section, so the persistence cost of a
// critical section is paid per batch, not per op.
package cacheserver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/proto"
	"tsp/internal/repl"
	"tsp/internal/telemetry"
)

// Server is a running sharded cache server.
type Server struct {
	cfg    config
	ln     net.Listener
	shards []*shard

	// sem is the MaxConns admission semaphore: Serve acquires a slot
	// before accepting, so excess connections queue in the listen
	// backlog (backpressure) instead of being served or erroring.
	sem chan struct{}

	wg      sync.WaitGroup
	closing atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// metrics is the optional Prometheus-style HTTP endpoint (see
	// metrics.go); nil unless WithMetricsAddr was given.
	metrics *metricsServer

	// Replication state (see repl.go). replLog and replPrimary are set
	// on a primary (WithReplListen); replFollower and replCS on a
	// follower (WithReplicaOf); replTel always exists so stats can
	// record unconditionally. readOnly gates client mutations while the
	// follower replicates; the promote command clears it.
	replLog      *repl.Log
	replPrimary  *repl.Primary
	replFollower *repl.Follower
	replCS       *connState
	replTel      *telemetry.ReplStats
	readOnly     atomic.Bool

	// clusterSt is the slot-ownership table and migration machinery;
	// non-nil only when WithClusterSlots made this server a cluster
	// node (see cluster.go).
	clusterSt *clusterState

	// tel is the server-wide telemetry section: the gauges no shard
	// knows and the per-protocol decoded batch sizes (see metrics.go).
	tel telemetry.ServerWide

	// Durability-tier state (see epoch.go). curEpoch is the open epoch
	// relaxed acks are stamped with; perEpoch is the persistent frontier
	// — the highest epoch whose relaxed writes are known durable.
	// epochWake re-arms epoch-barrier waiters on every epoch close;
	// ackWake re-arms replication-barrier waiters on every follower ack.
	// epochWant is the highest epoch a parked `wait` needs, epochKick the
	// one-slot doorbell to the epoch loop, drainWG that loop's drain join.
	curEpoch  atomic.Uint64
	perEpoch  atomic.Uint64
	epochWake atomic.Pointer[chan struct{}]
	ackWake   atomic.Pointer[chan struct{}]
	epochWant atomic.Uint64
	epochKick chan struct{}
	epochStop chan struct{}
	epochDone chan struct{}
	drainWG   sync.WaitGroup

	// optReadHook is a test-only interleaving hook, called after each
	// validated read of a multi-key optimistic group with the op index
	// just served. Cross-key tearing is a timing race (a group commit
	// landing between two reads of one mget) that a single-core box may
	// never produce naturally; the hook lets a test land one there
	// deterministically. Nil outside tests.
	optReadHook func(i int)
}

// New builds the sharded storage stacks and starts listening. Call
// Serve to accept connections.
func New(opts ...Option) (*Server, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		shards:  make([]*shard, cfg.shards),
		sem:     make(chan struct{}, cfg.maxConns),
		conns:   map[net.Conn]struct{}{},
		replTel: telemetry.NewReplStats(),
	}
	s.tel.Shards.Store(uint64(cfg.shards))
	s.tel.EpochIntervalUS.Store(uint64(cfg.epochInterval / time.Microsecond))
	for i := range s.shards {
		sh, err := newShard(i, cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	// The epoch clock starts before replication: a follower's first ack
	// can arrive the moment the primary listener opens, and its OnAck
	// hook touches the wake pointer the clock state initializes.
	s.startEpochClock()
	if err := s.startReplication(); err != nil {
		s.stopEpochClock()
		return nil, err
	}
	// Cluster mode initializes after replication so it can share the
	// primary's log (or create a private one) before any traffic.
	if err := s.startCluster(); err != nil {
		s.closeReplication()
		s.stopEpochClock()
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		s.closeReplication()
		s.stopEpochClock()
		return nil, fmt.Errorf("cacheserver: %w", err)
	}
	s.ln = ln
	if cfg.metricsAddr != "" {
		m, err := startMetrics(s, cfg.metricsAddr)
		if err != nil {
			ln.Close()
			s.closeReplication()
			s.stopEpochClock()
			return nil, err
		}
		s.metrics = m
	}
	return s, nil
}

// MetricsAddr returns the bound metrics listen address, or nil when the
// metrics endpoint is disabled.
func (s *Server) MetricsAddr() net.Addr {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.addr()
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// Mode returns the fortification mode the shards run under.
func (s *Server) Mode() atlas.Mode { return s.cfg.mode }

// VerifyAll re-checks every shard's map integrity invariants,
// quiescing each shard in turn. It returns the first failure.
func (s *Server) VerifyAll() error {
	for _, sh := range s.shards {
		if err := sh.verify(); err != nil {
			return err
		}
	}
	return nil
}

// shardOf hashes a key to its shard. The finalizer differs from the
// map's own bucket hash (a splitmix64 step) and uses the high bits, so
// shard selection does not correlate with bucket selection — otherwise
// each shard's keys would cluster in 1/N of its buckets.
func (s *Server) shardOf(key uint64) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	x := key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return s.shards[(x>>32)%uint64(len(s.shards))]
}

// Serve accepts connections until Close. It returns nil on clean
// shutdown. A connection slot is acquired before each accept, so at
// most MaxConns connections are ever in service; further clients wait
// in the listen backlog until a slot frees.
func (s *Server) Serve() error {
	for {
		s.sem <- struct{}{}
		if s.closing.Load() {
			<-s.sem
			return nil
		}
		conn, err := s.ln.Accept()
		if err != nil {
			<-s.sem
			if s.closing.Load() {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				<-s.sem
			}()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes the listener and every active
// connection, waits for the handlers to finish, and then drains the
// shard batch workers (every request already queued executes before
// its worker exits). Close is idempotent.
func (s *Server) Close() error {
	if s.closing.Swap(true) {
		return nil
	}
	err := s.ln.Close()
	if s.metrics != nil {
		s.metrics.close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	// Wake every parked wait barrier: their handlers re-check the
	// closing flag and exit, which is what lets wg.Wait finish when a
	// client was blocked in `wait` with no timeout at shutdown.
	broadcastWake(&s.epochWake)
	broadcastWake(&s.ackWake)
	s.wg.Wait()
	// One final epoch close (the clock's stop path) drains every
	// overlay: relaxed writes acked before a clean shutdown persist —
	// only a crash is licensed to lose them. Runs before replication
	// stops so the final drain still replicates.
	s.stopEpochClock()
	// The follower's applier and the primary's snapshot callback both
	// execute through the shards, so replication must stop while the
	// pipelines are still alive.
	s.closeReplication()
	// All enqueuers are gone: handlers have exited, the acceptor is
	// stopped, and replication is down, so the queues can close safely.
	for _, sh := range s.shards {
		sh.closePipeline()
	}
	return err
}

// connState is one connection's serving state: its telemetry protocol
// label, its session binding, and the per-connection scratch the
// batch-serving path reuses. Connections hold no Atlas thread — each
// shard's drain thread runs every section (see batch.go).
type connState struct {
	// ptel labels this connection's command latency by wire protocol;
	// the zero value (ProtoInternal) covers non-wire callers such as
	// the replication applier.
	ptel telemetry.Protocol

	// Scratch reused across serveBatch calls: the commit plan under
	// construction (a connection has at most one in flight, so building
	// and running it allocates nothing), one tag per command in it, the
	// tags' op references, the op translation of the command being
	// compiled, the reply being staged, its item arena and a zrange's
	// per-shard runs, and the optimistic read path's version captures.
	plan  plan
	tags  []cmdTag
	refs  []opRef
	ops   []batchOp
	rep   proto.Reply
	items []proto.Item
	runs  [][]proto.Item
	vers  []uint64

	// sess is the session id the connection bound with the session
	// handshake (0 = none); seq-tagged requests dedup against it.
	sess uint64

	// importSlot is set (>= 0) when an acceptslot command committed this
	// connection to an inbound migration: serveBatch returns and handle
	// splices the connection onto the migration stream reader.
	importSlot int
}

func (s *Server) newConnState() *connState {
	return &connState{importSlot: -1, plan: plan{max: s.cfg.batchMax, legs: make([]leg, len(s.shards))}, runs: make([][]proto.Item, 2*len(s.shards))}
}

// readOptimistic attempts to serve every op of the connection's
// (pure-get) plan on the lock-free path, filling results in place. It
// reports whether it could; if not, the whole plan must commit through
// runPlan instead.
//
// A single-key plan uses the per-key validated path. A multi-key plan
// additionally needs CROSS-key consistency — per-key validation alone
// could read key A before a concurrent mset commits and key B after,
// both individually valid, and return a mixture no locked reader could
// ever observe. Multi-key plans therefore run a snapshot protocol:
// capture every key's stripe version (and shard generation, guarding
// crash rebuilds) before the first read, read each key on the per-key
// path, and revalidate every capture after the last read. Each key's
// stripe is then provably quiescent from its capture through its
// revalidate, and since every capture precedes every read precedes
// every revalidate, all values coexisted at the last capture point. Any
// mismatch sends the WHOLE plan to the locked fallback — and because
// runBatch holds all of a batch's stripes odd for its entire section
// (see hashmap.BeginStripeWrites), a half-applied mset can never
// revalidate here. Overlay-served relaxed state is exempt: the overlay
// is per-key newest-state by design, and the snapshot guarantee targets
// the durable map.
func (s *Server) readOptimistic(cs *connState) bool {
	refs := cs.refs
	read := func(i int) bool {
		op := cs.plan.op(refs[i])
		val, ok, valid := s.shards[refs[i].leg].getOptimistic(op.key)
		op.val, op.ok = val, ok
		return valid
	}
	if len(refs) == 1 {
		return read(0)
	}
	// Captures interleave as (generation, version) pairs.
	caps := cs.vers[:0]
	for _, r := range refs {
		gen, ver, even := s.shards[r.leg].captureVersion(cs.plan.op(r).key)
		if !even {
			return false
		}
		caps = append(caps, gen, ver)
	}
	cs.vers = caps
	for i := range refs {
		if !read(i) {
			return false
		}
		if s.optReadHook != nil {
			s.optReadHook(i)
		}
	}
	for i, r := range refs {
		gen, ver, even := s.shards[r.leg].captureVersion(cs.plan.op(r).key)
		if !even || gen != caps[2*i] || ver != caps[2*i+1] {
			return false
		}
	}
	return true
}

// crashAll power-fails and recovers every shard concurrently — the
// whole-machine analogue of the per-shard crash command.
func (s *Server) crashAll() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = sh.crashAndRecover()
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}
