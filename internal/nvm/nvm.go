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
	"math/bits"
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

	// dirty is the dirty set, one bit per cache line (line l is bit l&63
	// of word l>>6): set when the line's volatile content may differ from
	// its persisted content, clear when the two are identical (the
	// clean-line invariant, see writeBack). Bits change by compare-and-swap
	// on their word; every walk of the set (rescue, restart, eviction, the
	// DirtyLines gauge) visits set bits only, in ascending line order.
	dirty []uint64

	// lines is the number of cache lines covering the device; line sizes
	// are powers of two, so the line of an address is a shift by lineShift.
	lines     uint64
	lineShift uint

	// tel is the device's counter section: injected via Config.Telemetry,
	// privately allocated by default, or nil when Config.DisableStats is
	// set. No access touches it: accesses are counted in a Tally and added
	// here when the operation owning the tally ends (see tally.go).
	tel *telemetry.DeviceStats

	// quick is how many words a load may read on its inlined fast path:
	// all of them with the latency model off, none with it on (loadSlow).
	quick uint64

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
		dirty:     make([]uint64, (lines+63)/64),
		lines:     uint64(lines),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineWords))),
		tel:       cfg.Telemetry,
	}
	if d.tel == nil && !cfg.DisableStats {
		d.tel = &telemetry.DeviceStats{}
	}
	if cfg.MissCost > 0 {
		d.cacheTags = make([]uint64, cfg.MissLines)
		d.tagMask = uint64(cfg.MissLines - 1)
	} else {
		d.quick = uint64(cfg.Words)
	}
	if cfg.Evictor.Enabled() {
		d.evictor = newEvictor(d, cfg.Evictor)
	}
	return d
}

// touchLoad charges the cache-latency model for a load of address a: a
// hit in the direct-mapped tag table is free, a miss spins MissCost and
// installs the line. Tag accesses are atomic only to stay race-clean;
// lost updates merely misestimate one access. Callers test cacheTags for
// nil themselves: with the model off the call would be the access's cost.
func (d *Device) touchLoad(a Addr) {
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
// operations (CAS, Add) stall like loads and use touchLoad. As there,
// the caller has checked that the model is on.
func (d *Device) touchStore(a Addr) {
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
func (d *Device) Lines() uint64 { return d.lines }

// LineOf returns the cache line index containing address a.
func (d *Device) LineOf(a Addr) uint64 { return uint64(a) >> d.lineShift }

// check panics on out-of-range addresses. Simulated programs indexing
// outside the device are bugs in this repository, not recoverable errors.
func (d *Device) check(a Addr) {
	if uint64(a) >= uint64(len(d.volatile)) {
		d.outOfRange(a)
	}
}

// loadSlow is the out-of-line half of Tally.Load, reached when a is not
// below quick: either a is out of range (check panics) or the latency
// model is on and the load is charged to it.
func (d *Device) loadSlow(a Addr) {
	d.check(a)
	d.touchLoad(a)
}

// outOfRange is check's panic, kept out of line so check inlines.
func (d *Device) outOfRange(a Addr) {
	panic(fmt.Sprintf("nvm: address %d out of range (device has %d words)", a, len(d.volatile)))
}

// The accessors below are the tally-of-one entry points: each runs the
// Tally method of the same name (tally.go has its contract) on a fresh
// tally and publishes it. A caller with many accesses holds a Tally.

// Load atomically reads the word at a from the volatile image.
func (d *Device) Load(a Addr) uint64 {
	t := d.Tally()
	v := t.Load(a)
	t.Publish()
	return v
}

// TryLoad is Load reporting false, not panicking, when a is out of range.
func (d *Device) TryLoad(a Addr) (uint64, bool) {
	t := d.Tally()
	v, ok := t.TryLoad(a)
	t.Publish()
	return v, ok
}

// LoadBlock reads len(dst) consecutive words starting at a into dst.
func (d *Device) LoadBlock(a Addr, dst []uint64) {
	t := d.Tally()
	t.LoadBlock(a, dst)
	t.Publish()
}

// Store atomically writes v to the word at a in the volatile image and
// marks the containing line dirty.
func (d *Device) Store(a Addr, v uint64) {
	t := d.Tally()
	t.Store(a, v)
	t.Publish()
}

// StoreBlock writes vals to consecutive words of one line, from a.
func (d *Device) StoreBlock(a Addr, vals []uint64) {
	t := d.Tally()
	t.StoreBlock(a, vals)
	t.Publish()
}

// CAS atomically compares-and-swaps the word at a in the volatile image.
func (d *Device) CAS(a Addr, old, new uint64) bool {
	t := d.Tally()
	ok := t.CAS(a, old, new)
	t.Publish()
	return ok
}

// Add atomically adds delta to the word at a and returns the new value.
func (d *Device) Add(a Addr, delta uint64) uint64 {
	t := d.Tally()
	v := t.Add(a, delta)
	t.Publish()
	return v
}

// markDirty records that the line containing a may differ from the
// persisted image. The value is written before the dirty bit in Store, so
// a flusher that observes the bit also observes (at least) that value.
// The bit is written only when it reads clear.
func (d *Device) markDirty(a Addr) {
	line := uint64(a) >> d.lineShift
	if atomic.LoadUint64(&d.dirty[line>>6])>>(line&63)&1 == 0 {
		d.setDirty(line, true)
	}
}

// setDirty makes line's bit equal to on, by compare-and-swap on the bit's
// word (sync/atomic's Or and And are newer than go.mod's toolchain line).
func (d *Device) setDirty(line uint64, on bool) {
	w, bit := &d.dirty[line>>6], uint64(1)<<(line&63)
	for {
		old := atomic.LoadUint64(w)
		if (old&bit != 0) == on || atomic.CompareAndSwapUint64(w, old, old^bit) {
			return
		}
	}
}

// nextDirty returns the first dirty line at or after from, or Lines()
// when there is none. Every walk of the dirty set is a loop over it: one
// load per 64 lines plus the set bits, in ascending line order.
func (d *Device) nextDirty(from uint64) uint64 {
	for w := from >> 6; w < uint64(len(d.dirty)); w++ {
		rest := atomic.LoadUint64(&d.dirty[w])
		if w == from>>6 {
			rest &^= 1<<(from&63) - 1
		}
		if rest != 0 {
			return w<<6 + uint64(bits.TrailingZeros64(rest))
		}
	}
	return d.lines
}

// FlushWord synchronously writes back the cache line containing a,
// charging the configured flush latency. This is the simulated
// clflush/clwb + sfence a non-TSP design must issue on the critical path.
func (d *Device) FlushWord(a Addr) {
	d.check(a)
	d.flushLine(d.LineOf(a))
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
		d.flushLine(line)
	}
}

// FlushAll writes back every dirty line without charging latency. It is
// the crash-time rescue primitive (TSP's "last-minute rescue") and is also
// used by checkpoints; neither is on the failure-free critical path.
func (d *Device) FlushAll() {
	var n uint64
	for line := d.nextDirty(0); line < d.lines; line = d.nextDirty(line + 1) {
		d.writeBack(line)
		n++
	}
	d.tel.AddWritebacks(n)
}

// The clean-line invariant. Once no store or flush is in flight, a line
// whose dirty bit is clear is word-for-word identical in the volatile and
// persisted images. Restart and RestorePersisted depend on it: Restart
// reverts only dirty lines, so a clean line that differed would survive a
// crash it should not have. Each writer does its part: Store, StoreBlock,
// CAS and Add mark the line after writing it; writeBack clears the bit
// before copying and copies again when a word changed under the copy;
// RestorePersisted marks every line it changes.

// lineSpan returns the word range [lo, hi) the line covers; the device's
// last line may be short.
func (d *Device) lineSpan(line uint64) (lo, hi uint64) {
	lo = line << d.lineShift
	hi = lo + uint64(d.cfg.LineWords)
	if hi > uint64(len(d.volatile)) {
		hi = uint64(len(d.volatile))
	}
	return lo, hi
}

// flushLine is one synchronous, latency-charged flush of the line.
func (d *Device) flushLine(line uint64) {
	d.tel.IncFlush()
	spin(d.cfg.FlushCost)
	d.writeBack(line)
}

// writeBack writes the line's volatile words to the persisted image; the
// free write-backs (rescue, eviction, FlushAll) call it directly and
// count what they wrote. The dirty bit is cleared before the copy: a
// racing store that lands mid-copy re-sets the bit, so its value is
// either captured now or flushed later — never silently lost. Two
// flushers can also race on one line (the evictor against an explicit
// flush), and the slower one may then overwrite a newer persisted word
// with the older value it loaded. So every word is re-read after it is
// written back, and the line is copied again if one moved: the flush
// returns with the line either persisted as it stood at some instant
// after the clear or marked dirty by the store that changed it, which is
// the clean-line invariant.
func (d *Device) writeBack(line uint64) {
	lo, hi := d.lineSpan(line)
	for moved := true; moved; {
		moved = false
		d.setDirty(line, false)
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

// DirtyLines counts lines currently marked dirty: a population count
// over the dirty set's words, cheap enough to read as a live gauge.
func (d *Device) DirtyLines() uint64 {
	var n uint64
	for i := range d.dirty {
		n += uint64(bits.OnesCount64(atomic.LoadUint64(&d.dirty[i])))
	}
	return n
}

// LineDirty reports whether the line containing a is marked dirty.
func (d *Device) LineDirty(a Addr) bool {
	d.check(a)
	return d.lineDirty(d.LineOf(a))
}

// lineDirty reports whether the given line index is dirty.
func (d *Device) lineDirty(line uint64) bool {
	return atomic.LoadUint64(&d.dirty[line>>6])>>(line&63)&1 != 0
}

// Internal raw accessors used by crash/restart. They bypass counters and
// the crashed check: they model the machine, not the program running on
// it.

func (d *Device) volatileStore(w uint64, v uint64) { atomic.StoreUint64(&d.volatile[w], v) }
func (d *Device) persistedLoad(w uint64) uint64    { return atomic.LoadUint64(&d.persisted[w]) }

// Stats returns a snapshot of the device's operation counters (all
// zeros when counting is disabled).
func (d *Device) Stats() StatsSnapshot { return snapshotOf(d.tel) }

// ResetStats zeroes the operation counters.
func (d *Device) ResetStats() {
	telemetry.Reset(telemetry.RegistryRows.Bind(&telemetry.Registry{Device: d.tel}))
}

// Telemetry returns the device's live counter section (nil when counting
// is disabled). stack.Reattach adopts it into the new incarnation's
// registry so device counters survive a crash/reattach cycle.
func (d *Device) Telemetry() *telemetry.DeviceStats { return d.tel }
