package telemetry

import "sort"

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

// Reset zeroes the section (nvm.Device.ResetStats compatibility).
func (s *DeviceStats) Reset() {
	if s == nil {
		return
	}
	s.Loads.Reset()
	s.Stores.Reset()
	s.CAS.Reset()
	s.Flushes.Reset()
	s.Writebacks.Reset()
	s.Rescues.Reset()
	s.Drops.Reset()
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

// Reset zeroes the section.
func (s *AtlasStats) Reset() {
	if s == nil {
		return
	}
	s.LogAppends.Reset()
	s.LogFlushes.Reset()
	s.OCSCommits.Reset()
	s.Checkpoints.Reset()
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

// Reset zeroes the section.
func (s *HeapStats) Reset() {
	if s == nil {
		return
	}
	s.Allocs.Reset()
	s.Frees.Reset()
	s.GCRuns.Reset()
	s.GCBlocksFreed.Reset()
}

// MapStats is the fortified hash map's section: data-structure-level
// operation counts (distinct from ServerStats, which counts protocol
// requests — one mget request is many map gets). The Opt* counters
// instrument the seqlock read path: OptGets are reads served without
// any stripe mutex, OptRetries are snapshot validations that failed
// (a writer interleaved), and OptFallbacks are reads that exhausted
// their retry budget and re-ran under the stripe lock — the bounded-
// retry contract made observable.
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

// Reset zeroes the section.
func (s *MapStats) Reset() {
	if s == nil {
		return
	}
	s.Gets.Reset()
	s.Puts.Reset()
	s.Incs.Reset()
	s.Deletes.Reset()
	s.OptGets.Reset()
	s.OptRetries.Reset()
	s.OptFallbacks.Reset()
}

// ServerStats is the cache server's protocol-level section, per shard.
// The batch counters instrument the per-shard execution pipeline: how
// many coalesced critical sections ran, how many operations rode in
// them, and how often a full queue degraded an operation to the
// synchronous per-op path.
type ServerStats struct {
	Gets    Counter
	Hits    Counter
	Sets    Counter
	Deletes Counter

	// The Z* counters are the ordered keyspace's request counts: reads
	// (zget/zrange/zcount traversals) and writes against the skip list,
	// kept apart from the map counters because the two engines have
	// completely different persistence cost models.
	ZGets    Counter // zget/zrange/zcount requests served lock-free
	ZHits    Counter // zget requests that found the key
	ZSets    Counter // zadd/zincr writes applied
	ZDeletes Counter // zdel writes applied

	Batches        Counter // batches (Atlas sections) the write path executed
	BatchedOps     Counter // operations executed inside those batches
	BatchFallbacks Counter // commit groups that found the queue full and ran directly on the drain lock

	// The epoch-durability counters instrument the per-operation
	// durability tiers: how many mutations deferred their persistence
	// to an epoch close (RelaxedOps/FireOps vs DurableOps), how many
	// epoch closes ran, how many overlay entries they flushed into
	// Atlas sections, and how many closes skipped the frontier advance
	// because a crash raced the drain.
	DurableOps    Counter // mutations served at the durable tier
	RelaxedOps    Counter // mutations acknowledged at the relaxed tier
	FireOps       Counter // mutations acknowledged fire-and-forget
	EpochCloses   Counter // epoch-close cycles completed
	EpochDemanded Counter // of those, closes a wait barrier started (the rest are the clock's)
	EpochFlushed  Counter // overlay entries drained into Atlas at epoch close
	EpochSkipped  Counter // epoch closes that withheld the frontier (crash raced)
	Waits         Counter // wait barrier requests served

	// The session counters instrument the exactly-once dedup window:
	// how many sessioned (seq-tagged) mutations arrived, how many were
	// suppressed as duplicates of an already-applied request, how many
	// were rejected as older than the eviction floor, and how many
	// records the bounded window evicted to make room.
	SessionOps     Counter // seq-tagged mutations served
	SessionDups    Counter // duplicate retries suppressed by the window
	SessionTooOld  Counter // seq-too-old rejections (below record or floor)
	SessionEvicted Counter // dedup records evicted from the bounded window
}

// Reset zeroes the section.
func (s *ServerStats) Reset() {
	if s == nil {
		return
	}
	s.Gets.Reset()
	s.Hits.Reset()
	s.Sets.Reset()
	s.Deletes.Reset()
	s.ZGets.Reset()
	s.ZHits.Reset()
	s.ZSets.Reset()
	s.ZDeletes.Reset()
	s.Batches.Reset()
	s.BatchedOps.Reset()
	s.BatchFallbacks.Reset()
	s.DurableOps.Reset()
	s.RelaxedOps.Reset()
	s.FireOps.Reset()
	s.EpochCloses.Reset()
	s.EpochDemanded.Reset()
	s.EpochFlushed.Reset()
	s.EpochSkipped.Reset()
	s.Waits.Reset()
	s.SessionOps.Reset()
	s.SessionDups.Reset()
	s.SessionTooOld.Reset()
	s.SessionEvicted.Reset()
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

// Reset zeroes the section.
func (s *RecoveryStats) Reset() {
	if s == nil {
		return
	}
	s.Recoveries.Reset()
	s.EntriesScanned.Reset()
	s.OCSes.Reset()
	s.PartialGroups.Reset()
	s.Incomplete.Reset()
	s.Cascaded.Reset()
	s.UndoApplied.Reset()
	s.GCBlocksFreed.Reset()
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

	// OpLatency is the service-time distribution observed at the top of
	// the stack: one observation per request-level op on the synchronous
	// path, one per drained group on the batch pipeline (the group is
	// the unit of locking and persistence there).
	OpLatency *Histogram

	// RecoveryLatency is the crash-to-serving distribution, one
	// observation per recovery.
	RecoveryLatency *Histogram

	// CmdLatency attributes request service time per protocol command
	// (one observation per request, on both execution paths).
	CmdLatency *CommandLatency

	// BatchSize is a value histogram (ObserveValue) of operations per
	// drained batch group — the direct read on how much amortization the
	// pipeline is actually getting.
	BatchSize *Histogram

	// ReadLatency is the service-time distribution of read commands that
	// completed entirely on the optimistic (seqlock) path — no stripe
	// mutex, no batch pipeline. Every command still lands in CmdLatency
	// exactly once whichever path served it; ReadLatency is the
	// lock-free subset, so comparing the two isolates what the locked
	// machinery costs a read.
	ReadLatency *Histogram

	// RangeLen is a value histogram (ObserveValue) of result lengths of
	// zrange requests — the shape of the ordered workload's scans, and
	// the denominator for judging whether the range limit is binding.
	RangeLen *Histogram

	// EpochFlushLatency is the epoch-close drain distribution: one
	// observation per close that flushed this shard's relaxed overlay,
	// measuring how long the deferred persistence actually takes — the
	// tail a relaxed writer's loss window adds to, and the cost the
	// durable tier avoids paying inline.
	EpochFlushLatency *Histogram

	// Generation counts the stack's incarnations: 1 after New, +1 per
	// reattach. Counters deliberately survive reattach (the registry
	// outlives the stack it instruments); Generation is how a consumer
	// tells one incarnation's deltas from the next.
	Generation Counter
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

// Reset zeroes every counter and histogram in the registry — the
// operator-facing "stats reset" — while deliberately leaving Generation
// alone: counters describe traffic, Generation describes which
// incarnation of the stack is serving it, and a reset must not make a
// twice-recovered stack look freshly built.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.Device.Reset()
	r.Atlas.Reset()
	r.Heap.Reset()
	r.Map.Reset()
	r.Server.Reset()
	r.Recovery.Reset()
	r.OpLatency.Reset()
	r.RecoveryLatency.Reset()
	r.CmdLatency.Reset()
	r.BatchSize.Reset()
	r.ReadLatency.Reset()
	r.RangeLen.Reset()
	r.EpochFlushLatency.Reset()
}

// Snapshot is a point-in-time copy of a registry's counters, keyed by
// canonical metric name. Counters are monotonic within an incarnation,
// so Sub yields the events of a window and Add aggregates shards.
type Snapshot map[string]uint64

// Counters snapshots every counter in the registry (nil on a nil
// registry). Names are stable: they are the wire-protocol and
// Prometheus-exposition vocabulary.
func (r *Registry) Counters() Snapshot {
	if r == nil {
		return nil
	}
	s := make(Snapshot, 32)
	r.Walk(func(name string, v uint64) { s[name] = v })
	return s
}

// Walk calls fn for every counter with its canonical name, in a fixed
// order. Missing (nil) sections are emitted as zeros so consumers always
// see the full vocabulary.
func (r *Registry) Walk(fn func(name string, value uint64)) {
	if r == nil {
		return
	}
	d, a, h, m, sv, rec := r.Device, r.Atlas, r.Heap, r.Map, r.Server, r.Recovery
	fn("nvm_loads", fieldLoad(d, func(d *DeviceStats) *Counter { return &d.Loads }))
	fn("nvm_stores", fieldLoad(d, func(d *DeviceStats) *Counter { return &d.Stores }))
	fn("nvm_cas", fieldLoad(d, func(d *DeviceStats) *Counter { return &d.CAS }))
	fn("nvm_flushes", fieldLoad(d, func(d *DeviceStats) *Counter { return &d.Flushes }))
	fn("nvm_writebacks", fieldLoad(d, func(d *DeviceStats) *Counter { return &d.Writebacks }))
	fn("nvm_rescues", fieldLoad(d, func(d *DeviceStats) *Counter { return &d.Rescues }))
	fn("nvm_drops", fieldLoad(d, func(d *DeviceStats) *Counter { return &d.Drops }))
	fn("atlas_log_appends", fieldLoad(a, func(a *AtlasStats) *Counter { return &a.LogAppends }))
	fn("atlas_log_flushes", fieldLoad(a, func(a *AtlasStats) *Counter { return &a.LogFlushes }))
	fn("atlas_ocs_commits", fieldLoad(a, func(a *AtlasStats) *Counter { return &a.OCSCommits }))
	fn("atlas_checkpoints", fieldLoad(a, func(a *AtlasStats) *Counter { return &a.Checkpoints }))
	fn("heap_allocs", fieldLoad(h, func(h *HeapStats) *Counter { return &h.Allocs }))
	fn("heap_frees", fieldLoad(h, func(h *HeapStats) *Counter { return &h.Frees }))
	fn("heap_gc_runs", fieldLoad(h, func(h *HeapStats) *Counter { return &h.GCRuns }))
	fn("heap_gc_blocks_freed", fieldLoad(h, func(h *HeapStats) *Counter { return &h.GCBlocksFreed }))
	fn("map_gets", fieldLoad(m, func(m *MapStats) *Counter { return &m.Gets }))
	fn("map_puts", fieldLoad(m, func(m *MapStats) *Counter { return &m.Puts }))
	fn("map_incs", fieldLoad(m, func(m *MapStats) *Counter { return &m.Incs }))
	fn("map_deletes", fieldLoad(m, func(m *MapStats) *Counter { return &m.Deletes }))
	fn("map_opt_gets", fieldLoad(m, func(m *MapStats) *Counter { return &m.OptGets }))
	fn("map_opt_retries", fieldLoad(m, func(m *MapStats) *Counter { return &m.OptRetries }))
	fn("map_opt_fallbacks", fieldLoad(m, func(m *MapStats) *Counter { return &m.OptFallbacks }))
	fn("server_gets", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.Gets }))
	fn("server_hits", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.Hits }))
	fn("server_sets", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.Sets }))
	fn("server_deletes", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.Deletes }))
	fn("server_zgets", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.ZGets }))
	fn("server_zhits", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.ZHits }))
	fn("server_zsets", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.ZSets }))
	fn("server_zdeletes", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.ZDeletes }))
	fn("server_batches", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.Batches }))
	fn("server_batched_ops", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.BatchedOps }))
	fn("server_batch_fallbacks", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.BatchFallbacks }))
	fn("server_durable_ops", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.DurableOps }))
	fn("server_relaxed_ops", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.RelaxedOps }))
	fn("server_fire_ops", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.FireOps }))
	fn("server_epoch_closes", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.EpochCloses }))
	fn("server_session_ops", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.SessionOps }))
	fn("server_session_dups", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.SessionDups }))
	fn("server_session_too_old", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.SessionTooOld }))
	fn("server_session_evicted", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.SessionEvicted }))
	fn("server_epoch_flushed", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.EpochFlushed }))
	fn("server_epoch_skipped", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.EpochSkipped }))
	fn("server_epoch_demanded", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.EpochDemanded }))
	fn("server_waits", fieldLoad(sv, func(s *ServerStats) *Counter { return &s.Waits }))
	fn("recovery_count", fieldLoad(rec, func(r *RecoveryStats) *Counter { return &r.Recoveries }))
	fn("recovery_entries_scanned", fieldLoad(rec, func(r *RecoveryStats) *Counter { return &r.EntriesScanned }))
	fn("recovery_ocses", fieldLoad(rec, func(r *RecoveryStats) *Counter { return &r.OCSes }))
	fn("recovery_partial_groups", fieldLoad(rec, func(r *RecoveryStats) *Counter { return &r.PartialGroups }))
	fn("recovery_incomplete", fieldLoad(rec, func(r *RecoveryStats) *Counter { return &r.Incomplete }))
	fn("recovery_cascaded", fieldLoad(rec, func(r *RecoveryStats) *Counter { return &r.Cascaded }))
	fn("recovery_undo_applied", fieldLoad(rec, func(r *RecoveryStats) *Counter { return &r.UndoApplied }))
	fn("recovery_gc_blocks_freed", fieldLoad(rec, func(r *RecoveryStats) *Counter { return &r.GCBlocksFreed }))
	fn("stack_generation", r.Generation.Load())
}

// fieldLoad loads one counter out of a possibly-nil section.
func fieldLoad[S any](sec *S, field func(*S) *Counter) uint64 {
	if sec == nil {
		return 0
	}
	return field(sec).Load()
}

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
