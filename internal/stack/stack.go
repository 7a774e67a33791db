// Package stack assembles the full persistent storage stack — simulated
// NVM device, persistent heap, Atlas runtime, and fortified hash map —
// behind a single constructor pair. The build sequence (format-or-open,
// atlas.Recover on reopen, map attach, root publication, setup flush)
// has a strict required order, and before this package existed it was
// hand-duplicated at every call site (the cache server, the experiment
// harness behind cmd/faultinject, and the examples), each copy one
// reordering away from a recovery bug.
//
// Two entry points cover the two incarnations of a program's life:
//
//   - New builds a fresh stack: new device, formatted heap, runtime, an
//     empty map published as the heap root, all made durable so setup is
//     never part of a crash window.
//   - Reattach is the recovery path: reopen the heap of a restarted
//     device, run Atlas recovery (rollback of incomplete critical
//     sections), rebuild the runtime, and attach the map found at the
//     root.
//
// Options use the functional-option pattern precisely because the
// zero-value-defaulting Config structs they replace could not express
// "explicitly off": atlas.ModeOff == 0 was indistinguishable from "not
// set" and silently rewritten to ModeTSP. WithMode(atlas.ModeOff) now
// means what it says.
package stack

import (
	"fmt"

	"tsp/internal/atlas"
	"tsp/internal/hashmap"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/skiplist"
	"tsp/internal/telemetry"
)

// Multi-engine root directory layout (payload words). The heap root no
// longer points at the hash map directly: it points at a tiny directory
// block naming every engine the stack carries. The magic word is stored
// last so a directory is only ever observed fully formed, and its value
// is far outside any device address, so the recovery-time conservative
// GC never mistakes it for a pointer — while the two engine words keep
// both trees reachable.
const (
	rootMagicWord = 0
	rootMapWord   = 1
	rootListWord  = 2
	rootWords     = 3

	rootMagic = 0x5453_5052_4f4f_5431 // "TSPROOT1"
)

// auxEpochSlot is the heap auxiliary-root slot anchoring the durable
// epoch frontier: a one-word heap block holding the highest epoch whose
// relaxed-tier writes are known persistent. It lives in an allocated
// block (not a raw value in the Aux slot) because the recovery-time GC
// treats every Aux slot as a block pointer root — a bare counter there
// would be chased as an address. Slot 0 belongs to the Atlas log
// directory (atlas.AuxLogDir).
const auxEpochSlot = 1

// auxSessSlot is the heap auxiliary-root slot anchoring the session
// dedup table: the persistent window behind exactly-once retries (see
// DESIGN.md §9). Like the epoch frontier it lives in an allocated
// block because Aux slots are GC roots. The block layout is a two-word
// header {capacity, eviction floor} followed by capacity four-word
// records {session id, highest applied seq, reply payload, witness
// key}; session id 0 marks an empty record. All mutations of record
// and floor words happen inside the Atlas critical section of the
// operation they witness (via th.Store), which is exactly what makes a
// dedup record and its operation's effect atomic across a crash.
const auxSessSlot = 2

// auxDrainSlot is the heap auxiliary-root slot anchoring the epoch
// drain's payload: one shard's last drained overlay snapshot, written out
// of place before the map applies it, so a drain survives a crash whole
// or not at all (see DrainPayload). Like the other anchors it is an
// allocated block, grown by replacement when a snapshot outgrows it.
const auxDrainSlot = 3

// Drain-payload word layout. Set records (key, value) grow up from
// drainHdrWords; delete records (a bare key) grow down from the block's
// end; drainLenWord packs their counts (sets<<32 | deletes). A snapshot's
// keys are distinct, so record order carries no meaning. The payload is
// pending — committed, not yet applied — while the commit word is one
// past the applied word.
const (
	drainCommitWord  = 0
	drainAppliedWord = 1
	drainLenWord     = 2
	drainHdrWords    = 3

	drainMinWords = 16 // smallest record area a payload block is grown to
)

// Session-table word layout. The header's capacity word is read at
// reattach so a table keeps the size it was built with; the floor word
// is the highest sequence number ever evicted from the table (the
// `seq too old` boundary).
const (
	SessCapWord   = 0
	SessFloorWord = 1
	SessHdrWords  = 2

	SessRecSess    = 0
	SessRecSeq     = 1
	SessRecPayload = 2
	SessRecKey     = 3
	SessRecWords   = 4
)

// Stack is one assembled storage stack. RT, Map and List are nil for a
// heap-only stack (see HeapOnly).
type Stack struct {
	Dev  *nvm.Device
	Heap *pheap.Heap
	RT   *atlas.Runtime
	Map  *hashmap.Map

	// List is the stack's second engine: the persistent lock-free skip
	// list serving the ordered keyspace. Per Section 4.1 it takes no
	// crash-consistency measures at all — operations bypass Atlas — so
	// the directory root is the only coupling between the engines.
	List *skiplist.List

	// Recovery is the Atlas recovery report when the stack came up via
	// Reattach (zero value for a fresh stack or a heap-only reattach).
	Recovery atlas.Report

	// Tel is the stack's telemetry registry: one observability plane for
	// every layer. Nil when the stack was built WithoutTelemetry. The
	// registry outlives any single incarnation — CrashReattach hands the
	// same registry to the recovered stack, so counters accumulate across
	// crashes (Generation tells incarnations apart).
	Tel *telemetry.Registry

	// epochPtr is the one-word heap block behind DurableEpoch, anchored
	// at Aux slot auxEpochSlot. Nil on heap-only stacks.
	epochPtr pheap.Ptr

	// sessPtr is the session dedup-table block anchored at Aux slot
	// auxSessSlot (header + records; see the slot's layout comment).
	// Nil on heap-only stacks. sessCap is the record capacity read from
	// the header.
	sessPtr pheap.Ptr
	sessCap int

	// drainPtr is the epoch-drain payload block anchored at Aux slot
	// auxDrainSlot, nil until the first drain; drainCap is its record
	// area in words.
	drainPtr pheap.Ptr
	drainCap int
	replayTh *atlas.Thread // the drain replay's thread, for NewThread

	cfg config // retained so CrashReattach can rebuild identically
}

type config struct {
	devCfg        nvm.Config
	mode          atlas.Mode
	maxThreads    int
	logEntries    int
	logEveryStore bool
	buckets       int
	perMutex      int
	sessSlots     int
	heapOnly      bool
	tel           *telemetry.Registry
	telemetryOff  bool
}

func defaults() config {
	return config{
		devCfg:     nvm.Config{Words: 1 << 21},
		mode:       atlas.ModeTSP,
		maxThreads: 16,
		buckets:    4096,
		perMutex:   256,
		sessSlots:  256,
	}
}

// Option configures New and Reattach.
type Option func(*config)

// WithDeviceWords sizes the simulated NVM device (default 1<<21 words).
func WithDeviceWords(n int) Option {
	return func(c *config) { c.devCfg.Words = n }
}

// WithDeviceConfig replaces the whole device configuration (line size,
// flush cost, evictor, ...). Zero Words falls back to the default size.
func WithDeviceConfig(cfg nvm.Config) Option {
	return func(c *config) {
		if cfg.Words == 0 {
			cfg.Words = c.devCfg.Words
		}
		c.devCfg = cfg
	}
}

// WithMode selects the Atlas fortification mode. The default is
// ModeTSP; WithMode(atlas.ModeOff) builds a genuinely unfortified
// stack — the option is only applied when the caller invokes it, so the
// zero value is never second-guessed.
func WithMode(m atlas.Mode) Option {
	return func(c *config) { c.mode = m }
}

// WithMaxThreads bounds concurrent atlas.Thread registrations
// (default 16).
func WithMaxThreads(n int) Option {
	return func(c *config) { c.maxThreads = n }
}

// WithLogEntries sizes each thread's undo-log ring (0 = atlas default).
func WithLogEntries(n int) Option {
	return func(c *config) { c.logEntries = n }
}

// WithLogEveryStore disables Atlas's first-store-per-OCS filter
// (ablation knob; see atlas.Options.LogEveryStore).
func WithLogEveryStore(on bool) Option {
	return func(c *config) { c.logEveryStore = on }
}

// WithBuckets shapes the hash map: bucket count and buckets per stripe
// mutex (defaults 4096 and 256).
func WithBuckets(buckets, perMutex int) Option {
	return func(c *config) {
		c.buckets = buckets
		c.perMutex = perMutex
	}
}

// WithSessionSlots sizes the session dedup table (records per stack,
// default 256, minimum 1). Only consulted when a fresh table is
// created; a reattached table keeps the capacity in its header.
func WithSessionSlots(n int) Option {
	return func(c *config) { c.sessSlots = n }
}

// HeapOnly stops the stack at the persistent heap: no Atlas runtime, no
// map. For programs that build their own persistent structures directly
// on heap words (like examples/quickstart's linked list).
func HeapOnly() Option {
	return func(c *config) { c.heapOnly = true }
}

// WithTelemetry threads an existing registry through every layer instead
// of the fresh one New would otherwise build — how a multi-stack program
// (one registry per cache-server shard) keeps each shard's registry
// stable while the shard's stack is crashed and rebuilt underneath it.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) {
		c.tel = reg
		c.telemetryOff = reg == nil
	}
}

// WithoutTelemetry builds the stack with no registry at all: every layer
// holds nil counter sections and pays one predictable branch per event.
// This is the configuration the overhead benchmarks compare against.
func WithoutTelemetry() Option {
	return func(c *config) {
		c.tel = nil
		c.telemetryOff = true
	}
}

func buildConfig(opts []Option) config {
	c := defaults()
	for _, o := range opts {
		o(&c)
	}
	return c
}

func (c config) atlasOptions(reg *telemetry.Registry) atlas.Options {
	o := atlas.Options{
		MaxThreads:    c.maxThreads,
		LogEntries:    c.logEntries,
		LogEveryStore: c.logEveryStore,
	}
	if reg != nil {
		o.Telemetry = reg.Atlas
	}
	return o
}

// resolveRegistry picks the stack's registry: the injected one, a fresh
// one by default, or nil when telemetry is explicitly off. The choice is
// written back into the config so CrashReattach rebuilds onto the SAME
// registry — that is what makes counters survive a crash.
func (c *config) resolveRegistry() *telemetry.Registry {
	if c.telemetryOff {
		c.tel = nil
		return nil
	}
	if c.tel == nil {
		c.tel = telemetry.NewRegistry()
	}
	return c.tel
}

// New builds a fresh stack on a new device and makes the initialized
// (pre-workload) state durable, so setup is not part of any crash
// window.
func New(opts ...Option) (*Stack, error) {
	c := buildConfig(opts)
	reg := c.resolveRegistry()
	devCfg := c.devCfg
	if reg != nil {
		devCfg.Telemetry = reg.Device
	} else {
		devCfg.DisableStats = true
	}
	dev := nvm.NewDevice(devCfg)
	heap, err := pheap.Format(dev)
	if err != nil {
		return nil, fmt.Errorf("stack: format heap: %w", err)
	}
	if reg != nil {
		heap.SetTelemetry(reg.Heap)
	}
	heap.SetSyncAllocs(c.mode == atlas.ModeNonTSP)
	s := &Stack{Dev: dev, Heap: heap, Tel: reg, cfg: c}
	if c.heapOnly {
		if reg != nil {
			reg.Generation.Inc()
		}
		return s, nil
	}
	rt, err := atlas.New(heap, c.mode, c.atlasOptions(reg))
	if err != nil {
		return nil, fmt.Errorf("stack: atlas runtime: %w", err)
	}
	m, err := hashmap.New(rt, c.buckets, c.perMutex)
	if err != nil {
		return nil, fmt.Errorf("stack: hashmap: %w", err)
	}
	if reg != nil {
		m.SetTelemetry(reg.Map)
	}
	l, err := skiplist.New(heap, 16)
	if err != nil {
		return nil, fmt.Errorf("stack: skiplist: %w", err)
	}
	if err := publishRoot(heap, m.Ptr(), l.Ptr()); err != nil {
		return nil, err
	}
	ep, _, err := ensureEpochAnchor(heap)
	if err != nil {
		return nil, err
	}
	s.epochPtr = ep
	sp, _, err := ensureSessAnchor(heap, c.sessSlots)
	if err != nil {
		return nil, err
	}
	s.sessPtr = sp
	s.sessCap = int(heap.Load(sp, SessCapWord))
	dev.FlushAll()
	s.RT = rt
	s.Map = m
	s.List = l
	if reg != nil {
		reg.Generation.Inc()
	}
	return s, nil
}

// ensureEpochAnchor returns the epoch-frontier block, allocating and
// anchoring one when the heap predates the epoch clock (every fresh heap
// lands here). The second result reports whether an allocation
// happened, so Reattach knows to flush the new anchor; New's setup
// FlushAll covers it for free.
func ensureEpochAnchor(heap *pheap.Heap) (pheap.Ptr, bool, error) {
	if p := heap.Aux(auxEpochSlot); !p.IsNil() {
		return p, false, nil
	}
	p, err := heap.Alloc(1)
	if err != nil {
		return pheap.Nil, false, fmt.Errorf("stack: epoch anchor: %w", err)
	}
	heap.Store(p, 0, 0)
	heap.SetAux(auxEpochSlot, p)
	return p, true, nil
}

// ensureSessAnchor returns the session dedup-table block, allocating
// and anchoring one when the heap predates detectable operations. Like
// ensureEpochAnchor, the second result tells Reattach to flush the
// fresh block. Record words are zeroed (session id 0 = empty), so a
// fresh table suppresses nothing and rejects nothing.
func ensureSessAnchor(heap *pheap.Heap, slots int) (pheap.Ptr, bool, error) {
	if p := heap.Aux(auxSessSlot); !p.IsNil() {
		return p, false, nil
	}
	if slots < 1 {
		slots = 1
	}
	p, err := heap.Alloc(SessHdrWords + SessRecWords*slots)
	if err != nil {
		return pheap.Nil, false, fmt.Errorf("stack: session table: %w", err)
	}
	heap.Store(p, SessCapWord, uint64(slots))
	heap.Store(p, SessFloorWord, 0)
	for w := 0; w < SessRecWords*slots; w++ {
		heap.Store(p, SessHdrWords+w, 0)
	}
	heap.SetAux(auxSessSlot, p)
	return p, true, nil
}

// SessTable exposes the persistent session dedup table: the block
// pointer (layout per the Sess* word constants) and its record
// capacity. The pointer is nil on heap-only stacks.
func (s *Stack) SessTable() (pheap.Ptr, int) { return s.sessPtr, s.sessCap }

// SetDurableEpoch publishes e as the persistent epoch frontier: every
// relaxed-tier write acknowledged with an epoch stamp ≤ e has been
// drained into fortified state and flushed. The store is made durable
// immediately (one word, one flush) — the frontier is only useful if it
// never runs ahead of the data it vouches for, so the caller must flush
// that data before advancing it. No-op on heap-only stacks.
func (s *Stack) SetDurableEpoch(e uint64) {
	if s.epochPtr.IsNil() {
		return
	}
	s.Dev.Store(s.epochPtr.Addr(), e)
	s.Dev.FlushWord(s.epochPtr.Addr())
}

// DurableEpoch reads back the persistent epoch frontier (0 when no
// epoch has ever closed, or on heap-only stacks).
func (s *Stack) DurableEpoch() uint64 {
	if s.epochPtr.IsNil() {
		return 0
	}
	return s.Dev.Load(s.epochPtr.Addr())
}

// publishRoot allocates a multi-engine directory naming both engines and
// commits it as the heap root in a single word store.
func publishRoot(heap *pheap.Heap, mapPtr, listPtr pheap.Ptr) error {
	dir, err := heap.Alloc(rootWords)
	if err != nil {
		return fmt.Errorf("stack: root directory: %w", err)
	}
	heap.Store(dir, rootMapWord, uint64(mapPtr))
	heap.Store(dir, rootListWord, uint64(listPtr))
	heap.Store(dir, rootMagicWord, rootMagic) // magic last: valid once visible
	heap.SetRoot(dir)
	return nil
}

// Reattach is the recovery path: open the heap of a restarted device,
// run Atlas recovery, rebuild the runtime and open both engines from
// the heap root's multi-engine directory (any other root is an error:
// the pre-directory single-root format is not read). The options must
// describe the same shape the stack was built with (mode may differ — a
// store can be reopened under a different fortification level, as the
// paper's mode comparison does).
func Reattach(dev *nvm.Device, opts ...Option) (*Stack, error) {
	c := buildConfig(opts)
	reg := c.resolveRegistry()
	if reg != nil && dev.Telemetry() != nil {
		// Adopt the restarted device's live counter section: the device
		// (and its counters) survived the crash, so severing them here
		// would erase exactly the flush/rescue history a crash experiment
		// wants to read afterwards.
		reg.Device = dev.Telemetry()
	}
	heap, err := pheap.Open(dev)
	if err != nil {
		return nil, fmt.Errorf("stack: reopen heap: %w", err)
	}
	if reg != nil {
		heap.SetTelemetry(reg.Heap)
	}
	heap.SetSyncAllocs(c.mode == atlas.ModeNonTSP)
	s := &Stack{Dev: dev, Heap: heap, Tel: reg, cfg: c}
	if c.heapOnly {
		if reg != nil {
			reg.Generation.Inc()
			reg.Recovery.Recoveries.Inc()
		}
		return s, nil
	}
	// The directory is written once, by New, so no rollback moves it.
	root := heap.Root()
	if root.IsNil() || heap.Load(root, rootMagicWord) != rootMagic {
		return nil, fmt.Errorf("stack: heap root is not a multi-engine directory")
	}
	// Recovery's collector traces the map, verifying it: each node is read
	// once, not by a scan and then a Verify (replayDrain verifies again).
	// The tracer is recovery's only: the live heap collects untraced.
	mapPtr := pheap.Ptr(heap.Load(root, rootMapWord))
	heap.SetTracer(func(mk *pheap.Marker) error { return hashmap.Trace(heap, mapPtr, mk) })
	rep, err := atlas.Recover(heap)
	heap.SetTracer(nil)
	if err != nil {
		return nil, fmt.Errorf("stack: atlas recovery: %w", err)
	}
	s.Recovery = rep
	rt, err := atlas.New(heap, c.mode, c.atlasOptions(reg))
	if err != nil {
		return nil, fmt.Errorf("stack: atlas runtime: %w", err)
	}
	m, err := hashmap.Open(rt, mapPtr)
	if err != nil {
		return nil, fmt.Errorf("stack: hashmap reattach: %w", err)
	}
	l, err := skiplist.Open(heap, pheap.Ptr(heap.Load(root, rootListWord)))
	if err != nil {
		return nil, fmt.Errorf("stack: skiplist reattach: %w", err)
	}
	ep, freshEpoch, err := ensureEpochAnchor(heap)
	if err != nil {
		return nil, err
	}
	sp, freshSess, err := ensureSessAnchor(heap, c.sessSlots)
	if err != nil {
		return nil, err
	}
	if freshEpoch || freshSess {
		// Lazy upgrade of a pre-epoch (or pre-session) heap: make the
		// anchors durable now so a later frontier/record store never races
		// a crash that would lose the Aux slot itself. FlushAll (not
		// per-word flushes) because SetAux wrote a header word whose
		// address the heap does not expose.
		dev.FlushAll()
	}
	s.epochPtr = ep
	s.sessPtr = sp
	s.sessCap = int(heap.Load(sp, SessCapWord))
	if reg != nil {
		m.SetTelemetry(reg.Map)
		reg.Generation.Inc()
		recordRecovery(reg.Recovery, rep)
	}
	s.RT = rt
	s.Map = m
	s.List = l
	if err := s.replayDrain(); err != nil {
		return nil, err
	}
	return s, nil
}

// recordRecovery accumulates one Atlas recovery report into the
// registry's recovery section.
func recordRecovery(rs *telemetry.RecoveryStats, rep atlas.Report) {
	if rs == nil {
		return
	}
	rs.Recoveries.Inc()
	rs.EntriesScanned.Add(uint64(rep.EntriesScanned))
	rs.OCSes.Add(uint64(rep.OCSes))
	rs.PartialGroups.Add(uint64(rep.IgnoredPartial))
	rs.Incomplete.Add(uint64(rep.Incomplete))
	rs.Cascaded.Add(uint64(rep.Cascaded))
	rs.UndoApplied.Add(uint64(rep.UndoApplied))
	rs.GCBlocksFreed.Add(uint64(rep.GC.BlocksFreed))
}

// Mode returns the fortification mode the stack was assembled with.
func (s *Stack) Mode() atlas.Mode { return s.cfg.mode }

// CrashReattach simulates a power failure on the stack's device (with
// the given crash options), restarts it, and brings a new stack up
// through the standard recovery path — exactly what a restarted process
// would do. The receiver stack is dead afterwards; use the returned
// one. The caller is responsible for stopping the evictor first if one
// is running (a crashed machine's cache controller is not running
// either).
func (s *Stack) CrashReattach(opts nvm.CrashOptions) (*Stack, error) {
	s.Dev.Crash(opts)
	s.Dev.Restart()
	c := s.cfg
	return Reattach(s.Dev, func(out *config) { *out = c })
}
