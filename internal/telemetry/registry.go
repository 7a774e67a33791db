package telemetry

import (
	"sort"
	"sync/atomic"
)

// DeviceStats is the simulated NVM device's section: memory-access
// counters and the persistence-cost counters the paper's whole argument
// rests on — synchronous flushes are the preventive cost, writebacks are
// free background work, rescues/drops classify crash outcomes.
//
// The device does not touch this section per access. Accesses are
// counted in an nvm.Tally, plain words owned by the goroutine doing an
// operation, and reach the section through AddAccesses when the
// operation ends; the section is exact whenever no operation is in
// flight, and short by at most the in-flight operations' accesses
// otherwise.
type DeviceStats struct {
	Loads  Counter
	Stores Counter
	CAS    Counter

	Flushes    Counter // synchronous, latency-charged flushes
	Writebacks Counter // background/rescue write-backs (free)
	Rescues    Counter // crash-time rescues performed
	Drops      Counter // crashes that discarded the volatile image
}

// The helpers below are the device's entry points. They are
// nil-receiver safe so a device built without telemetry pays exactly one
// branch per published operation.

// AddAccesses publishes one operation's tally: an atomic add per
// counter the operation moved.
func (s *DeviceStats) AddAccesses(loads, stores, cas uint64) {
	if s == nil {
		return
	}
	if loads != 0 {
		s.Loads.Add(loads)
	}
	if stores != 0 {
		s.Stores.Add(stores)
	}
	if cas != 0 {
		s.CAS.Add(cas)
	}
}

func (s *DeviceStats) IncFlush() {
	if s != nil {
		s.Flushes.Inc()
	}
}

// AddWritebacks counts n free write-backs (one sweep's, one rescue's).
func (s *DeviceStats) AddWritebacks(n uint64) {
	if s != nil && n != 0 {
		s.Writebacks.Add(n)
	}
}

func (s *DeviceStats) IncRescue() {
	if s != nil {
		s.Rescues.Inc()
	}
}

func (s *DeviceStats) IncDrop() {
	if s != nil {
		s.Drops.Inc()
	}
}

// AtlasStats is the Atlas runtime's section: undo-log traffic and OCS
// commit counts — the "log writes" column of the paper's cost breakdown.
type AtlasStats struct {
	LogAppends  Counter // undo records appended
	LogFlushes  Counter // synchronous log flush ranges (ModeNonTSP only)
	OCSCommits  Counter // outermost critical sections committed
	Checkpoints Counter // explicit log-truncating checkpoints
}

func (s *AtlasStats) IncLogAppend() {
	if s != nil {
		s.LogAppends.Inc()
	}
}

func (s *AtlasStats) IncLogFlush() {
	if s != nil {
		s.LogFlushes.Inc()
	}
}

func (s *AtlasStats) IncOCSCommit() {
	if s != nil {
		s.OCSCommits.Inc()
	}
}

func (s *AtlasStats) IncCheckpoint() {
	if s != nil {
		s.Checkpoints.Inc()
	}
}

// HeapStats is the persistent heap's section.
type HeapStats struct {
	Allocs        Counter
	Frees         Counter
	GCRuns        Counter
	GCBlocksFreed Counter
}

func (s *HeapStats) IncAlloc() {
	if s != nil {
		s.Allocs.Inc()
	}
}

func (s *HeapStats) IncFree() {
	if s != nil {
		s.Frees.Inc()
	}
}

func (s *HeapStats) AddGC(blocksFreed uint64) {
	if s != nil {
		s.GCRuns.Inc()
		s.GCBlocksFreed.Add(blocksFreed)
	}
}

// MapStats is the fortified hash map's section: data-structure-level
// operation counts (one mget request is many map gets), and the seqlock
// read path's bounded-retry contract made observable (the Opt* rows).
type MapStats struct {
	Gets    Counter
	Puts    Counter
	Incs    Counter
	Deletes Counter

	OptGets      Counter
	OptRetries   Counter
	OptFallbacks Counter
}

func (s *MapStats) IncGet() {
	if s != nil {
		s.Gets.Inc()
	}
}

func (s *MapStats) IncPut() {
	if s != nil {
		s.Puts.Inc()
	}
}

func (s *MapStats) IncInc() {
	if s != nil {
		s.Incs.Inc()
	}
}

func (s *MapStats) IncDelete() {
	if s != nil {
		s.Deletes.Inc()
	}
}

func (s *MapStats) IncOptGet() {
	if s != nil {
		s.OptGets.Inc()
	}
}

func (s *MapStats) IncOptRetry() {
	if s != nil {
		s.OptRetries.Inc()
	}
}

func (s *MapStats) IncOptFallback() {
	if s != nil {
		s.OptFallbacks.Inc()
	}
}

// ServerStats is the cache server's protocol-level section, per shard:
// requests on both keyspaces (the ordered keyspace's Z* counters kept
// apart because its engine has a different persistence cost model), the
// batch pipeline, the durability tiers and the session dedup window.
type ServerStats struct {
	Gets    Counter
	Hits    Counter
	Sets    Counter
	Deletes Counter

	ZGets    Counter // zget/zrange/zcount requests served lock-free
	ZHits    Counter // zget requests that found the key
	ZSets    Counter // zadd/zincr writes applied
	ZDeletes Counter // zdel writes applied

	Batches        Counter // batches (Atlas sections) the write path executed
	BatchedOps     Counter // operations executed inside those batches
	BatchFallbacks Counter // commit groups that found the queue full and ran directly on the drain lock

	DurableOps    Counter // mutations served at the durable tier
	RelaxedOps    Counter // mutations acknowledged at the relaxed tier
	FireOps       Counter // mutations acknowledged fire-and-forget
	EpochCloses   Counter // epoch-close cycles completed
	EpochDemanded Counter // of those, closes a wait barrier started (the rest are the clock's)
	EpochFlushed  Counter // overlay entries drained into Atlas at epoch close
	EpochSkipped  Counter // epoch closes that withheld the frontier (crash raced)
	Waits         Counter // wait barrier requests served

	SessionOps     Counter // seq-tagged mutations served
	SessionDups    Counter // duplicate retries suppressed by the window
	SessionTooOld  Counter // seq-too-old rejections (below record or floor)
	SessionEvicted Counter // dedup records evicted from the bounded window
}

// RecoveryStats accumulates crash/recovery outcomes across a stack's
// incarnations: one Recoveries increment per successful reattach, plus
// the cumulative Atlas recovery-report counts (what rescue-time work the
// paper's procrastination deferred to failure time).
type RecoveryStats struct {
	Recoveries     Counter // successful crash/reattach cycles
	EntriesScanned Counter // valid log records found at recovery
	OCSes          Counter // fully captured OCS groups
	PartialGroups  Counter // partially overwritten old groups skipped
	Incomplete     Counter // OCSes lacking a durable final release
	Cascaded       Counter // completed OCSes rolled back via happens-before
	UndoApplied    Counter // undo records replayed
	GCBlocksFreed  Counter // leaked blocks reclaimed by recovery GC
}

// Registry is one storage stack's complete telemetry plane. Layer
// sections are pointers so an already-running layer's live section can
// be adopted (stack.Reattach adopts the restarted device's counters
// instead of severing their history). A nil *Registry disables telemetry
// end to end; every accessor tolerates it.
type Registry struct {
	Device   *DeviceStats
	Atlas    *AtlasStats
	Heap     *HeapStats
	Map      *MapStats
	Server   *ServerStats
	Recovery *RecoveryStats

	// The histograms: service time per drained commit group, crash to
	// serving per recovery, the drain of each epoch close that flushed
	// this shard's overlay, service time per protocol and command, and
	// per read served wholly on the lock-free path (a subset of
	// CmdLatency's reads, so the two together isolate what the locked
	// machinery costs a read). BatchSize and RangeLen are value
	// histograms (ObserveValue): operations per drained group, zrange
	// result lengths.
	OpLatency, RecoveryLatency, ReadLatency, EpochFlushLatency *Histogram
	CmdLatency                                                 *CommandLatency
	BatchSize, RangeLen                                        *Histogram

	// Generation counts the stack's incarnations: 1 after New, +1 per
	// reattach. Counters deliberately survive reattach (the registry
	// outlives the stack it instruments); Generation is how a consumer
	// tells one incarnation's deltas from the next.
	Generation Counter

	// Items and ZItems are the shard's live key counts in the hash map
	// and the ordered keyspace. The registry cannot count them; the
	// server that owns the stack sets them before it renders.
	Items, ZItems atomic.Uint64
}

// NewRegistry returns a registry with every section live.
func NewRegistry() *Registry {
	return &Registry{
		Device:            &DeviceStats{},
		Atlas:             &AtlasStats{},
		Heap:              &HeapStats{},
		Map:               &MapStats{},
		Server:            &ServerStats{},
		Recovery:          &RecoveryStats{},
		OpLatency:         &Histogram{},
		RecoveryLatency:   &Histogram{},
		CmdLatency:        &CommandLatency{},
		BatchSize:         &Histogram{},
		ReadLatency:       &Histogram{},
		RangeLen:          &Histogram{},
		EpochFlushLatency: &Histogram{},
	}
}

// Snapshot is a point-in-time copy of a registry's counters, keyed by
// canonical metric name. Counters are monotonic within an incarnation,
// so Sub yields the events of a window and Add aggregates shards.
type Snapshot map[string]uint64

// Counters snapshots every counter and gauge in the registry (nil on a
// nil registry). Names are stable: they are the wire-protocol and
// Prometheus-exposition vocabulary.
func (r *Registry) Counters() Snapshot {
	if r == nil {
		return nil
	}
	return RegistryRows.Bind(r).Counters()
}

// Walk calls fn for every counter and gauge with its canonical name, in
// row order. Missing (nil) sections are emitted as zeros so consumers
// always see the full vocabulary.
func (r *Registry) Walk(fn func(name string, value uint64)) {
	if r != nil {
		RegistryRows.Bind(r).Walk(fn)
	}
}

// RegistryRows is every shard registry's rows: the device, Atlas, heap,
// map, server and recovery sections, then the registry's gauges and
// histograms.
var RegistryRows = newTable(ScopeShard,
	lift(func(r *Registry) *DeviceStats { return r.Device }, []Row[DeviceStats]{
		counter("nvm_loads", "simulated NVM word loads", func(s *DeviceStats) *Counter { return &s.Loads }),
		counter("nvm_stores", "simulated NVM word stores", func(s *DeviceStats) *Counter { return &s.Stores }),
		counter("nvm_cas", "simulated NVM compare-and-swaps", func(s *DeviceStats) *Counter { return &s.CAS }),
		counter("nvm_flushes", "synchronous, latency-charged line flushes: the preventive cost", func(s *DeviceStats) *Counter { return &s.Flushes }),
		counter("nvm_writebacks", "free background and rescue write-backs", func(s *DeviceStats) *Counter { return &s.Writebacks }),
		counter("nvm_rescues", "crash-time rescues performed", func(s *DeviceStats) *Counter { return &s.Rescues }),
		counter("nvm_drops", "crashes that discarded the volatile image", func(s *DeviceStats) *Counter { return &s.Drops }),
	}),
	lift(func(r *Registry) *AtlasStats { return r.Atlas }, []Row[AtlasStats]{
		counter("atlas_log_appends", "undo records appended", func(s *AtlasStats) *Counter { return &s.LogAppends }),
		counter("atlas_log_flushes", "synchronous log flush ranges (log+flush mode only)", func(s *AtlasStats) *Counter { return &s.LogFlushes }),
		counter("atlas_ocs_commits", "outermost critical sections committed", func(s *AtlasStats) *Counter { return &s.OCSCommits }),
		counter("atlas_checkpoints", "explicit log-truncating checkpoints", func(s *AtlasStats) *Counter { return &s.Checkpoints }),
	}),
	lift(func(r *Registry) *HeapStats { return r.Heap }, []Row[HeapStats]{
		counter("heap_allocs", "persistent heap allocations", func(s *HeapStats) *Counter { return &s.Allocs }),
		counter("heap_frees", "persistent heap frees", func(s *HeapStats) *Counter { return &s.Frees }),
		counter("heap_gc_runs", "recovery-time heap collections", func(s *HeapStats) *Counter { return &s.GCRuns }),
		counter("heap_gc_blocks_freed", "leaked blocks those collections freed", func(s *HeapStats) *Counter { return &s.GCBlocksFreed }),
	}),
	lift(func(r *Registry) *MapStats { return r.Map }, []Row[MapStats]{
		counter("map_gets", "hash map reads", func(s *MapStats) *Counter { return &s.Gets }),
		counter("map_puts", "hash map upserts", func(s *MapStats) *Counter { return &s.Puts }),
		counter("map_incs", "hash map increments", func(s *MapStats) *Counter { return &s.Incs }),
		counter("map_deletes", "hash map deletes", func(s *MapStats) *Counter { return &s.Deletes }),
		counter("map_opt_gets", "reads served on the seqlock path, no stripe mutex", func(s *MapStats) *Counter { return &s.OptGets }),
		counter("map_opt_retries", "seqlock validations a writer broke", func(s *MapStats) *Counter { return &s.OptRetries }),
		counter("map_opt_fallbacks", "seqlock reads that ran out of retries and took the lock", func(s *MapStats) *Counter { return &s.OptFallbacks }),
	}),
	lift(func(r *Registry) *ServerStats { return r.Server }, []Row[ServerStats]{
		counter("server_gets", "get requests served", func(s *ServerStats) *Counter { return &s.Gets }),
		counter("server_hits", "get requests that found the key", func(s *ServerStats) *Counter { return &s.Hits }),
		counter("server_sets", "set writes applied", func(s *ServerStats) *Counter { return &s.Sets }),
		counter("server_deletes", "delete writes applied", func(s *ServerStats) *Counter { return &s.Deletes }),
		counter("server_zgets", "ordered-keyspace reads served lock-free", func(s *ServerStats) *Counter { return &s.ZGets }),
		counter("server_zhits", "zget requests that found the key", func(s *ServerStats) *Counter { return &s.ZHits }),
		counter("server_zsets", "zadd and zincr writes applied", func(s *ServerStats) *Counter { return &s.ZSets }),
		counter("server_zdeletes", "zdel writes applied", func(s *ServerStats) *Counter { return &s.ZDeletes }),
		counter("server_batches", "batches (Atlas sections) the write path ran", func(s *ServerStats) *Counter { return &s.Batches }),
		counter("server_batched_ops", "operations inside those batches", func(s *ServerStats) *Counter { return &s.BatchedOps }),
		counter("server_batch_fallbacks", "commit groups that found the queue full and ran on the drain lock", func(s *ServerStats) *Counter { return &s.BatchFallbacks }),
		counter("server_durable_ops", "mutations served at the durable tier", func(s *ServerStats) *Counter { return &s.DurableOps }),
		counter("server_relaxed_ops", "mutations acked at the relaxed tier", func(s *ServerStats) *Counter { return &s.RelaxedOps }),
		counter("server_fire_ops", "mutations acked fire-and-forget", func(s *ServerStats) *Counter { return &s.FireOps }),
		counter("server_epoch_closes", "epoch closes run, clocked and demanded", func(s *ServerStats) *Counter { return &s.EpochCloses }),
		counter("server_epoch_demanded", "of those, closes a wait started", func(s *ServerStats) *Counter { return &s.EpochDemanded }),
		counter("server_epoch_flushed", "overlay entries the closes drained into fortified state", func(s *ServerStats) *Counter { return &s.EpochFlushed }),
		counter("server_epoch_skipped", "closes that withheld the frontier because a shard crashed mid-drain", func(s *ServerStats) *Counter { return &s.EpochSkipped }),
		counter("server_waits", "wait barriers served", func(s *ServerStats) *Counter { return &s.Waits }),
		counter("server_session_ops", "seq-tagged mutations served", func(s *ServerStats) *Counter { return &s.SessionOps }),
		counter("server_session_dups", "duplicate retries answered from the dedup window", func(s *ServerStats) *Counter { return &s.SessionDups }),
		counter("server_session_too_old", "seq-too-old refusals", func(s *ServerStats) *Counter { return &s.SessionTooOld }),
		counter("server_session_evicted", "dedup records evicted from the bounded window", func(s *ServerStats) *Counter { return &s.SessionEvicted }),
	}),
	lift(func(r *Registry) *RecoveryStats { return r.Recovery }, []Row[RecoveryStats]{
		counter("recovery_count", "successful crash-and-reattach cycles", func(s *RecoveryStats) *Counter { return &s.Recoveries }),
		counter("recovery_entries_scanned", "valid log records recovery found", func(s *RecoveryStats) *Counter { return &s.EntriesScanned }),
		counter("recovery_ocses", "fully captured critical-section groups", func(s *RecoveryStats) *Counter { return &s.OCSes }),
		counter("recovery_partial_groups", "partially overwritten old groups skipped", func(s *RecoveryStats) *Counter { return &s.PartialGroups }),
		counter("recovery_incomplete", "critical sections lacking a durable final release", func(s *RecoveryStats) *Counter { return &s.Incomplete }),
		counter("recovery_cascaded", "completed critical sections rolled back by happens-before", func(s *RecoveryStats) *Counter { return &s.Cascaded }),
		counter("recovery_undo_applied", "undo records replayed", func(s *RecoveryStats) *Counter { return &s.UndoApplied }),
		counter("recovery_gc_blocks_freed", "leaked blocks recovery's collection freed", func(s *RecoveryStats) *Counter { return &s.GCBlocksFreed }),
	}),
	[]Row[Registry]{
		{Desc: Desc{Name: "stack_generation", Kind: KindGauge, Help: "stack incarnations: 1 when built, +1 per reattach"},
			read: func(r *Registry, _ int, c *cell) { c.v = r.Generation.Load() }},
		gauge("items", "live keys in the hash map", func(r *Registry) *atomic.Uint64 { return &r.Items }),
		gauge("zitems", "live keys in the ordered keyspace", func(r *Registry) *atomic.Uint64 { return &r.ZItems }),
		histogram("op", KindDuration, "service time of each drained commit group", func(r *Registry) *Histogram { return r.OpLatency }),
		histogram("read", KindDuration, "service time of reads served wholly on the lock-free path", func(r *Registry) *Histogram { return r.ReadLatency }),
		histogram("recovery_latency", KindDuration, "crash to serving again, per recovery", func(r *Registry) *Histogram { return r.RecoveryLatency }),
		histogram("batch_size", KindValue, "operations per drained commit group", func(r *Registry) *Histogram { return r.BatchSize }),
		histogram("zrange_len", KindValue, "result lengths of zrange requests", func(r *Registry) *Histogram { return r.RangeLen }),
		histogram("epoch_flush", KindDuration, "drain time of each epoch close that flushed the shard's overlay", func(r *Registry) *Histogram { return r.EpochFlushLatency }),
	},
	lift(func(r *Registry) *CommandLatency { return r.CmdLatency }, commandRows),
)

// Sub returns s minus earlier, name by name. Names present in s but not
// in earlier are treated as starting from zero.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for name, v := range s {
		out[name] = v - earlier[name]
	}
	return out
}

// Add merges other into s (s is mutated and returned).
func (s Snapshot) Add(other Snapshot) Snapshot {
	for name, v := range other {
		s[name] += v
	}
	return s
}

// Names returns the snapshot's metric names, sorted, for deterministic
// rendering.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ServerWide is a cache server's server-wide section: what no one shard
// knows. The server sets the gauges (ServerRows says what each holds)
// before it renders.
type ServerWide struct {
	Shards, EpochCurrent, EpochPersisted, EpochIntervalUS atomic.Uint64

	// DecodedBatch records, per wire protocol, how many requests each
	// decoder batch carried: the pipelining depth clients present.
	DecodedBatch [NumProtocols]Histogram
}

// ServerRows is the server-wide section's rows.
var ServerRows = newTable(ScopeServer, []Row[ServerWide]{
	gauge("shards", "independent storage shards", func(s *ServerWide) *atomic.Uint64 { return &s.Shards }),
	gauge("epoch_current", "the open epoch relaxed acks are stamped with", func(s *ServerWide) *atomic.Uint64 { return &s.EpochCurrent }),
	gauge("epoch_persisted", "the persistent frontier: relaxed acks at or below it survive a crash", func(s *ServerWide) *atomic.Uint64 { return &s.EpochPersisted }),
	gauge("epoch_interval_us", "the epoch clock's period; 0 when the tiers are off", func(s *ServerWide) *atomic.Uint64 { return &s.EpochIntervalUS }),
	{Desc: Desc{Name: "proto_<proto>_decoded_batch", Kind: KindValue, Help: "requests per decoded batch, per wire protocol"},
		labels: fixed[ServerWide](oneLabel(protocolNames[:]...)),
		read:   func(s *ServerWide, i int, c *cell) { c.hs = append(c.hs, &s.DecodedBatch[i]) }},
})
