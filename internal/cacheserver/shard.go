package cacheserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/hashmap"
	"tsp/internal/nvm"
	"tsp/internal/repl"
	"tsp/internal/stack"
	"tsp/internal/telemetry"
)

// shard is one independent storage stack: its own device, heap, Atlas
// runtime and map. Keys are hashed across shards, so operations on
// different shards share no lock, no log ring, no device counter — the
// multi-core scaling the single global stack could not provide.
type shard struct {
	idx int
	cfg config

	// tel is the shard's telemetry registry: one observability plane for
	// this shard's whole stack, from device counters to protocol-level
	// hit/miss counts and op latency. The registry pointer is stable for
	// the shard's lifetime even though the stack underneath is torn down
	// and rebuilt by crashes — stack.CrashReattach reuses it, so counters
	// accumulate across incarnations.
	tel *telemetry.Registry

	// mu guards the stack pointer: a crash tears the stack down and
	// rebuilds it under the write lock, so request handling holds the
	// read lock for the duration of each operation. Different shards
	// have different locks; only same-shard operations and that shard's
	// recovery ever contend.
	mu  sync.RWMutex
	stk *stack.Stack

	// gen counts stack rebuilds. The drain's Atlas thread is valid only
	// for the generation it registered with; workerThread re-registers
	// lazily after a crash.
	gen atomic.Uint64

	// Write-path state (see batch.go). combineMu is the drain lock: its
	// holder — a submitter, the worker woken by the doorbell, or the
	// epoch drain — is the one goroutine mutating this shard's engines,
	// and owns carry, the scratch, the section's op counts, the drain
	// thread wth and its commit lock wmu (both of generation wgen) while
	// it holds the lock. chunk is runWide's group for the head of a group
	// wider than a section.
	queue          chan *batchReq
	doorbell       chan struct{}
	combineMu      sync.Mutex
	workerDone     chan struct{}
	carry          *batchReq
	wth            *atlas.Thread
	wmu            []*atlas.Mutex
	wgen           uint64
	pendingScratch []*batchReq
	stripes        hashmap.StripeSet
	walk           []uint64 // the section's hash-op keys, for Map.WalkChains
	counts         execCounts
	chunk          batchReq

	// replLog, when non-nil (primary role), receives every drained
	// batch's committed effects as one replication group; runBatch
	// appends under the shard read lock so a crash can never separate a
	// commit from its log entry. Written once before traffic (see
	// Server.startReplication).
	replLog *repl.Log

	// ovl buffers this shard's acked-but-unflushed relaxed-tier hash-map
	// writes (see epoch.go). It is volatile by design — a crash discards
	// it; that is the relaxed tier's bounded loss.
	ovl overlay

	// The epoch drain's state (see epoch.go). drainGen is owned by the
	// epoch loop; drainOps (the snapshot the commit wrote and the apply
	// runs) and drainReq (the apply's group) by the drain-lock holder.
	drainGen uint64
	drainOps []batchOp
	drainReq batchReq

	// sess is the shard's session dedup window (see session.go): the
	// volatile mirror of the persistent per-session records that make
	// seq-tagged mutations exactly-once across crash and retry.
	sess sessTable

	// markScratch accumulates the session records persisted during the
	// current drained batch; appendRepl drains it into the batch's
	// replication group so followers inherit the window. Owned by the
	// drain-lock holder, like the other scratch slices.
	markScratch []repl.SessRec
}

func newShard(idx int, c config) (*shard, error) {
	// A batch holds at most batchMax ops in one outermost critical
	// section; size the undo-log ring so the largest batch (its
	// acquire/release pair plus first-store undo records per op) cannot
	// lap it, without shrinking the atlas default.
	logEntries := c.batchMax*32 + 1024
	if logEntries < 4096 {
		logEntries = 4096
	}
	tel := telemetry.NewRegistry()
	stk, err := stack.New(
		stack.WithDeviceWords(c.deviceWords),
		stack.WithMode(c.mode),
		// The drain thread is the shard's only Atlas thread: every
		// section runs under the drain lock (see workerThread).
		stack.WithMaxThreads(1),
		stack.WithLogEntries(logEntries),
		stack.WithBuckets(16384, 1024), // every shard's map shape
		stack.WithTelemetry(tel),
	)
	if err != nil {
		return nil, fmt.Errorf("cacheserver: shard %d: %w", idx, err)
	}
	sh := &shard{
		idx: idx, cfg: c, tel: tel, stk: stk,
		queue:      make(chan *batchReq, c.maxConns+1), // never full: see batch.go
		doorbell:   make(chan struct{}, 1),
		workerDone: make(chan struct{}),
	}
	sh.sessRebuild()
	go sh.worker()
	return sh, nil
}

// crashAndRecover simulates a power failure with a TSP rescue on this
// shard only and brings its stack back through the standard recovery
// path, which verifies the map's integrity invariants (stack.Reattach),
// then re-verifies the skip list's before serving again. Other shards
// keep serving throughout: the write lock taken here is per-shard. The
// crash-to-serving latency lands in the shard registry's
// RecoveryLatency histogram; the recovery counts themselves are
// recorded by stack.Reattach.
func (sh *shard) crashAndRecover() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	start := time.Now()
	ns, err := sh.stk.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		return fmt.Errorf("cacheserver: shard %d rebuild: %w", sh.idx, err)
	}
	if _, err := ns.List.Verify(); err != nil {
		return fmt.Errorf("cacheserver: shard %d list verify: %w", sh.idx, err)
	}
	sh.stk = ns
	sh.gen.Add(1)
	// The overlay is what the power failure erases: writes acked with
	// epochs above the persistent frontier. Discarding it here — under
	// the same write lock the rebuild held — is the relaxed tier's loss
	// event, bounded by the epoch interval.
	sh.ovl.discard()
	// Rebuild the session window's volatile mirror from the recovered
	// heap: every record committed in-section with its mutation, so the
	// records that survived are exactly those whose effects did.
	sh.sessRebuild()
	sh.tel.RecoveryLatency.Observe(time.Since(start))
	// The rebuilt state shed whatever the crash caught un-persisted, so
	// "snapshot + suffix of the replication log" no longer describes
	// this server: move followers to a fresh generation, which re-seeds
	// them with a full snapshot.
	if sh.replLog != nil {
		sh.replLog.Bump()
	}
	return nil
}

// getOptimistic serves one get on the map's lock-free seqlock path. The
// shard read lock held here is a plain Go RWMutex guarding the stack
// pointer against a concurrent crash rebuild — it is not an Atlas mutex
// and not the write path's drain lock, so optimistic readers never
// contend with writers (only with recovery, exactly like every other
// request). valid=false means the retry budget was exhausted and the
// caller must re-run the read as a commit group.
func (sh *shard) getOptimistic(key uint64) (val uint64, ok, valid bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	// The relaxed overlay is this key's newest logical state when an
	// entry is pending; one atomic load when none is.
	if e, hit := sh.ovl.get(key); hit {
		sh.tel.Server.Gets.Inc()
		if !e.del {
			sh.tel.Server.Hits.Inc()
		}
		return e.val, !e.del, true
	}
	val, ok, valid = sh.stk.Map.GetOptimistic(key)
	if valid {
		sh.tel.Server.Gets.Inc()
		if ok {
			sh.tel.Server.Hits.Inc()
		}
	}
	return val, ok, valid
}

// captureVersion snapshots the shard generation and the seqlock version
// of the stripe covering key — the cross-key consistency witness for
// multi-key optimistic reads (see Server.readOptimistic). even is false
// when the stripe is mid-write; the caller should fall back to the
// locked path.
func (sh *shard) captureVersion(key uint64) (gen, ver uint64, even bool) {
	sh.mu.RLock()
	m := sh.stk.Map
	ver = m.StripeVersion(m.StripeOf(key))
	gen = sh.gen.Load()
	sh.mu.RUnlock()
	return gen, ver, ver%2 == 0
}

// verify re-checks the shard's map and skip-list invariants on a
// quiesced shard.
func (sh *shard) verify() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, err := sh.stk.Map.Verify(); err != nil {
		return fmt.Errorf("cacheserver: shard %d: %w", sh.idx, err)
	}
	if _, err := sh.stk.List.Verify(); err != nil {
		return fmt.Errorf("cacheserver: shard %d list: %w", sh.idx, err)
	}
	return nil
}

// refreshGauges publishes the shard's live key counts into its registry
// (Map.Len and List.Len need a live stack, hence the read lock) and
// returns the hash map's.
func (sh *shard) refreshGauges() uint64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	items := uint64(sh.stk.Map.Len())
	sh.tel.Items.Store(items)
	sh.tel.ZItems.Store(uint64(sh.stk.List.Len()))
	return items
}
