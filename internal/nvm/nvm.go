// Package nvm simulates byte-addressable non-volatile memory as seen by a
// multi-threaded program running on a machine with volatile CPU caches.
//
// The simulation is the substrate on which the whole repository is built.
// The paper's central question — "which stores are durable at the instant
// of a crash?" — is modelled by keeping two images of memory:
//
//   - the volatile image: the architectural state all running threads see
//     (the union of CPU caches and, on volatile-DRAM machines, DRAM), and
//   - the persisted image: the state that survives a crash when no rescue
//     runs (what has already been written back to the durable medium).
//
// Stores land in the volatile image and mark the containing cache line
// dirty.  A line becomes durable when it is flushed — either explicitly
// (FlushWord/FlushRange, the simulated clflush/clwb with a calibrated
// latency), by the background evictor (cache replacement), or by a
// crash-time rescue (the Timely Sufficient Persistence guarantee).
//
// All word accesses are atomic, mirroring the atomicity of aligned 8-byte
// loads and stores on x86-64; compare-and-swap is provided for the
// non-blocking case study.  Addresses are 8-byte word indexes, not byte
// offsets: the paper's persistent heaps only ever manipulate word-sized,
// word-aligned data, and word indexing removes an entire class of
// alignment bugs from the simulation.
package nvm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tsp/internal/telemetry"
)

// Addr is a word index into a Device. Word 0 is a valid address; packages
// layered above (pheap) reserve it so that 0 can double as a nil pointer.
type Addr uint64

// WordBytes is the size of one word in bytes.
const WordBytes = 8

// Device is a simulated NVM module plus the volatile cache hierarchy in
// front of it. All methods are safe for concurrent use.
type Device struct {
	cfg Config

	// volatile is the architectural state: what loads observe and where
	// stores land. Accessed with atomics only.
	volatile []uint64

	// persisted is the durable state: what a crash without rescue leaves
	// behind. Written by flush/eviction, read by recovery and snapshots.
	// Accessed with atomics only so the background evictor can run
	// concurrently with crash-time readers in tests.
	persisted []uint64

	// dirty has one word per cache line: nonzero when the line's volatile
	// content may differ from its persisted content, zero when the two
	// are identical (the clean-line invariant, see flushLine).
	dirty []uint32

	// tel is the device's counter section: injected via Config.Telemetry,
	// privately allocated by default, or nil when Config.DisableStats is
	// set (every update then costs one branch).
	tel *telemetry.DeviceStats

	// cacheTags is the direct-mapped latency model: cacheTags[line&mask]
	// holds line+1 when that line is "cached". Entries race benignly —
	// the table is a latency heuristic, not an correctness structure.
	cacheTags []uint64
	tagMask   uint64

	evictor *evictor

	// crashed is set once a crash has been injected; stores after a crash
	// (from stragglers that have not yet observed the stop signal) are
	// ignored, mirroring the abrupt halt of all threads by SIGKILL.
	crashed atomic.Bool

	// armed counts down store-class operations to an automatically
	// injected crash (see ArmCrashAfter); 0 = disarmed.
	armed     atomic.Int64
	armedOpts atomic.Pointer[CrashOptions]

	mu sync.Mutex // serializes crash, restart and snapshot operations
}

// NewDevice creates a device of cfg.Words words with all words zero in
// both images. It panics if the configuration is invalid, as a device is
// always constructed from static test or benchmark parameters.
func NewDevice(cfg Config) *Device {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("nvm: invalid config: %v", err))
	}
	lines := (cfg.Words + cfg.LineWords - 1) / cfg.LineWords
	d := &Device{
		cfg:       cfg,
		volatile:  make([]uint64, cfg.Words),
		persisted: make([]uint64, cfg.Words),
		dirty:     make([]uint32, lines),
		tel:       cfg.Telemetry,
	}
	if d.tel == nil && !cfg.DisableStats {
		d.tel = &telemetry.DeviceStats{}
	}
	if cfg.MissCost > 0 {
		d.cacheTags = make([]uint64, cfg.MissLines)
		d.tagMask = uint64(cfg.MissLines - 1)
	}
	if cfg.Evictor.Enabled() {
		d.evictor = newEvictor(d, cfg.Evictor)
	}
	return d
}

// touchLoad charges the cache-latency model for a load of address a: a
// hit in the direct-mapped tag table is free, a miss spins MissCost and
// installs the line. Tag accesses are atomic only to stay race-clean;
// lost updates merely misestimate one access.
func (d *Device) touchLoad(a Addr) {
	if d.cacheTags == nil {
		return
	}
	line := d.LineOf(a)
	idx := line & d.tagMask
	if atomic.LoadUint64(&d.cacheTags[idx]) == line+1 {
		return
	}
	spin(d.cfg.MissCost)
	atomic.StoreUint64(&d.cacheTags[idx], line+1)
}

// touchStore installs the line without charging latency: store misses on
// real hardware drain through the store buffer and write-combining
// without stalling the pipeline, which is precisely why sequential log
// appends cost so much less than pointer-chasing loads — the asymmetry
// at the heart of the paper's overhead measurements. Read-modify-write
// operations (CAS, Add) stall like loads and use touchLoad.
func (d *Device) touchStore(a Addr) {
	if d.cacheTags == nil {
		return
	}
	line := d.LineOf(a)
	idx := line & d.tagMask
	if atomic.LoadUint64(&d.cacheTags[idx]) != line+1 {
		atomic.StoreUint64(&d.cacheTags[idx], line+1)
	}
}

// Config returns the configuration the device was built with.
func (d *Device) Config() Config { return d.cfg }

// Words returns the device size in words.
func (d *Device) Words() uint64 { return uint64(len(d.volatile)) }

// Lines returns the number of cache lines covering the device.
func (d *Device) Lines() uint64 { return uint64(len(d.dirty)) }

// LineOf returns the cache line index containing address a.
func (d *Device) LineOf(a Addr) uint64 { return uint64(a) / uint64(d.cfg.LineWords) }

// check panics on out-of-range addresses. Simulated programs indexing
// outside the device are bugs in this repository, not recoverable errors.
func (d *Device) check(a Addr) {
	if uint64(a) >= uint64(len(d.volatile)) {
		panic(fmt.Sprintf("nvm: address %d out of range (device has %d words)", a, len(d.volatile)))
	}
}

// Load atomically reads the word at a from the volatile image.
func (d *Device) Load(a Addr) uint64 {
	d.check(a)
	d.tel.IncLoad(uint64(a))
	d.touchLoad(a)
	return atomic.LoadUint64(&d.volatile[a])
}

// TryLoad atomically reads the word at a, reporting false instead of
// panicking when a is out of range. Optimistic readers need it: a
// lock-free chain walk can pick up a pointer mid-update, and the torn
// value may index anywhere. The reader detects the interleaving by
// sequence validation afterwards; TryLoad just keeps the speculative
// dereference from killing the process first.
func (d *Device) TryLoad(a Addr) (uint64, bool) {
	if uint64(a) >= uint64(len(d.volatile)) {
		return 0, false
	}
	d.tel.IncLoad(uint64(a))
	d.touchLoad(a)
	return atomic.LoadUint64(&d.volatile[a]), true
}

// LoadBlock reads len(dst) consecutive words starting at a into dst. It
// is the load-side mirror of StoreBlock, for code that scans (the
// recovery collector, the log scan, a structure verifier): every word is
// still read atomically and counted as one load, but the range check and
// the statistics update are paid once per call and the latency model
// once per line. Unlike StoreBlock the range may span lines.
func (d *Device) LoadBlock(a Addr, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	last := a + Addr(len(dst)) - 1
	d.check(a)
	d.check(last)
	d.tel.AddLoads(uint64(a), uint64(len(dst)))
	if d.cacheTags != nil {
		for line, end := d.LineOf(a), d.LineOf(last); line <= end; line++ {
			d.touchLoad(Addr(line * uint64(d.cfg.LineWords)))
		}
	}
	src := d.volatile[a : last+1]
	for i := range dst {
		dst[i] = atomic.LoadUint64(&src[i])
	}
}

// Store atomically writes v to the word at a in the volatile image and
// marks the containing line dirty. Stores issued after a crash are
// dropped: the simulated threads have already been terminated.
func (d *Device) Store(a Addr, v uint64) {
	d.check(a)
	if d.crashed.Load() || d.countdown() {
		return
	}
	d.tel.IncStore(uint64(a))
	d.touchStore(a)
	atomic.StoreUint64(&d.volatile[a], v)
	d.markDirty(a)
}

// StoreBlock writes vals to consecutive words starting at a, which must
// all lie within one cache line. It models a line-sized store burst (the
// write-combined stores a logging runtime emits for a record): the
// individual word stores are still atomic, but the crash check, the
// statistics update and the dirty marking are paid once per line rather
// than once per word.
func (d *Device) StoreBlock(a Addr, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	d.check(a)
	last := a + Addr(len(vals)) - 1
	d.check(last)
	if d.LineOf(a) != d.LineOf(last) {
		panic(fmt.Sprintf("nvm: StoreBlock [%d,%d] crosses a cache line", a, last))
	}
	if d.crashed.Load() || d.countdown() {
		return
	}
	d.tel.IncStore(uint64(a))
	d.touchStore(a)
	for i, v := range vals {
		atomic.StoreUint64(&d.volatile[a+Addr(i)], v)
	}
	d.markDirty(a)
}

// CAS atomically compares-and-swaps the word at a in the volatile image.
// It returns false (and performs no store) after a crash.
func (d *Device) CAS(a Addr, old, new uint64) bool {
	d.check(a)
	if d.crashed.Load() || d.countdown() {
		return false
	}
	d.tel.IncCAS(uint64(a))
	d.touchLoad(a)
	if atomic.CompareAndSwapUint64(&d.volatile[a], old, new) {
		d.markDirty(a)
		return true
	}
	return false
}

// Add atomically adds delta to the word at a and returns the new value.
// After a crash it returns the current value unmodified.
func (d *Device) Add(a Addr, delta uint64) uint64 {
	d.check(a)
	if d.crashed.Load() || d.countdown() {
		return atomic.LoadUint64(&d.volatile[a])
	}
	d.tel.IncStore(uint64(a))
	d.touchLoad(a)
	v := atomic.AddUint64(&d.volatile[a], delta)
	d.markDirty(a)
	return v
}

// markDirty records that the line containing a may differ from the
// persisted image. The value is written before the dirty bit in Store, so
// a flusher that observes the bit also observes (at least) that value.
func (d *Device) markDirty(a Addr) {
	line := d.LineOf(a)
	if atomic.LoadUint32(&d.dirty[line]) == 0 {
		atomic.StoreUint32(&d.dirty[line], 1)
	}
}

// FlushWord synchronously writes back the cache line containing a,
// charging the configured flush latency. This is the simulated
// clflush/clwb + sfence a non-TSP design must issue on the critical path.
func (d *Device) FlushWord(a Addr) {
	d.check(a)
	d.flushLine(d.LineOf(a), true)
}

// FlushRange flushes every cache line overlapping [a, a+words). Each
// distinct line is charged one flush latency.
func (d *Device) FlushRange(a Addr, words uint64) {
	if words == 0 {
		return
	}
	d.check(a)
	d.check(a + Addr(words) - 1)
	first := d.LineOf(a)
	last := d.LineOf(a + Addr(words) - 1)
	for line := first; line <= last; line++ {
		d.flushLine(line, true)
	}
}

// FlushAll writes back every dirty line without charging latency. It is
// the crash-time rescue primitive (TSP's "last-minute rescue") and is also
// used by checkpoints; neither is on the failure-free critical path.
func (d *Device) FlushAll() {
	for line := uint64(0); line < uint64(len(d.dirty)); line++ {
		if atomic.LoadUint32(&d.dirty[line]) != 0 {
			d.flushLine(line, false)
		}
	}
}

// The clean-line invariant. Once no store or flush is in flight, a line
// whose dirty bit is clear is word-for-word identical in the volatile and
// persisted images. Restart and RestorePersisted depend on it: Restart
// reverts only dirty lines, so a clean line that differed would survive a
// crash it should not have. Each writer does its part: Store, StoreBlock,
// CAS and Add mark the line after writing it; flushLine clears the bit
// before copying and copies again when a word changed under the copy;
// RestorePersisted marks every line it changes.

// lineSpan returns the word range [lo, hi) the line covers; the device's
// last line may be short.
func (d *Device) lineSpan(line uint64) (lo, hi uint64) {
	lo = line * uint64(d.cfg.LineWords)
	hi = lo + uint64(d.cfg.LineWords)
	if hi > uint64(len(d.volatile)) {
		hi = uint64(len(d.volatile))
	}
	return lo, hi
}

// flushLine writes the line's volatile words to the persisted image. The
// dirty bit is cleared before the copy: a racing store that lands mid-copy
// re-sets the bit, so its value is either captured now or flushed later —
// never silently lost. Two flushers can also race on one line (the
// evictor against an explicit flush), and the slower one may then
// overwrite a newer persisted word with the older value it loaded. So
// every word is re-read after it is written back, and the line is copied
// again if one moved: the flush returns with the line either persisted as
// it stood at some instant after the clear or marked dirty by the store
// that changed it, which is the clean-line invariant.
func (d *Device) flushLine(line uint64, charge bool) {
	if charge {
		d.tel.IncFlush()
		spin(d.cfg.FlushCost)
	} else {
		d.tel.IncWriteback()
	}
	lo, hi := d.lineSpan(line)
	for moved := true; moved; {
		moved = false
		atomic.StoreUint32(&d.dirty[line], 0)
		for w := lo; w < hi; w++ {
			v := atomic.LoadUint64(&d.volatile[w])
			atomic.StoreUint64(&d.persisted[w], v)
			if atomic.LoadUint64(&d.volatile[w]) != v {
				moved = true
			}
		}
	}
}

// Persisted reads the word at a from the persisted image. Recovery code
// and tests use it to observe what a crash would leave behind.
func (d *Device) Persisted(a Addr) uint64 {
	d.check(a)
	return atomic.LoadUint64(&d.persisted[a])
}

// DirtyLines counts lines currently marked dirty.
func (d *Device) DirtyLines() uint64 {
	var n uint64
	for i := range d.dirty {
		if atomic.LoadUint32(&d.dirty[i]) != 0 {
			n++
		}
	}
	return n
}

// LineDirty reports whether the line containing a is marked dirty.
func (d *Device) LineDirty(a Addr) bool {
	d.check(a)
	return atomic.LoadUint32(&d.dirty[d.LineOf(a)]) != 0
}

// Internal raw accessors used by crash/restart and the evictor. They
// bypass counters and the crashed check: they model the machine, not the
// program running on it.

func (d *Device) volatileStore(w uint64, v uint64) { atomic.StoreUint64(&d.volatile[w], v) }
func (d *Device) persistedLoad(w uint64) uint64    { return atomic.LoadUint64(&d.persisted[w]) }
func (d *Device) dirtyLoad(line uint64) uint32     { return atomic.LoadUint32(&d.dirty[line]) }
func (d *Device) dirtyClear(line uint64)           { atomic.StoreUint32(&d.dirty[line], 0) }

// Stats returns a snapshot of the device's operation counters (all
// zeros when counting is disabled).
func (d *Device) Stats() StatsSnapshot { return snapshotOf(d.tel) }

// ResetStats zeroes the operation counters.
func (d *Device) ResetStats() { d.tel.Reset() }

// Telemetry returns the device's live counter section (nil when counting
// is disabled). stack.Reattach adopts it into the new incarnation's
// registry so device counters survive a crash/reattach cycle.
func (d *Device) Telemetry() *telemetry.DeviceStats { return d.tel }
