// Package atlas reimplements the runtime half of the Atlas system
// (Chakrabarti, Boehm & Bhandari, OOPSLA 2014) that the paper's Section
// 4.2 builds on: it imbues conventional mutex-based multithreaded code
// with crash resilience by undo-logging the first store to each
// persistent-heap location within every outermost critical section (OCS)
// and rolling incomplete OCSes back at recovery, including the cascading
// rollbacks forced by happens-before edges between OCSes.
//
// Where real Atlas uses compiler instrumentation to intercept stores and
// lock operations, this package exposes the equivalent calls directly:
// programs route mutations through Thread.Store and use atlas.Mutex for
// locking. The runtime has three modes mirroring the paper's Table 1
// columns:
//
//   - ModeOff:    no logging at all ("no Atlas");
//   - ModeTSP:    undo logging only — sufficient when a Timely Sufficient
//     Persistence rescue guarantees every issued store survives the crash
//     ("log only");
//   - ModeNonTSP: undo logging plus synchronous flushing — each log entry
//     is flushed before its guarded store executes, and an OCS's stored
//     lines are flushed before its end marker commits ("log + flush").
package atlas

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/telemetry"
)

// Mode selects the fortification level.
type Mode int

const (
	// ModeOff disables logging: stores go straight to the heap. Crash
	// consistency is NOT guaranteed; this is the paper's unfortified
	// baseline.
	ModeOff Mode = iota
	// ModeTSP logs undo records but never flushes synchronously,
	// relying on a crash-time rescue (Atlas "TSP mode", log only).
	ModeTSP
	// ModeNonTSP logs undo records and flushes each entry before the
	// guarded store, plus the OCS's data lines at commit (Atlas without
	// TSP, log + flush).
	ModeNonTSP
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeTSP:
		return "tsp (log only)"
	case ModeNonTSP:
		return "non-tsp (log+flush)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a Runtime.
type Options struct {
	// MaxThreads bounds how many Threads may be registered. Default 16.
	MaxThreads int

	// LogEntries is each thread's log RING capacity in entries. The ring
	// overwrites its oldest records (which belong to long-committed
	// OCSes and are never needed by recovery), so the only sizing
	// constraint is that no single OCS may append more than LogEntries
	// records — the runtime panics if one does. Default 4096.
	LogEntries int

	// LogEveryStore disables Atlas's first-store-per-OCS filter: every
	// guarded store appends an undo record instead of only the first
	// store to each location. Recovery stays correct (reverse-order
	// replay makes later duplicates harmless), so this exists purely as
	// the ablation knob for quantifying what the filter buys — one of
	// the design choices DESIGN.md calls out.
	LogEveryStore bool

	// Telemetry, when non-nil, receives the runtime's log-traffic and
	// commit counters (typically a stack registry's Atlas section). Nil
	// disables counting at the cost of one branch per event.
	Telemetry *telemetry.AtlasStats
}

func (o *Options) fillDefaults() {
	if o.MaxThreads == 0 {
		o.MaxThreads = 16
	}
	if o.LogEntries == 0 {
		o.LogEntries = 4096
	}
}

// Validate rejects inconsistent options.
func (o Options) Validate() error {
	if o.MaxThreads < 1 {
		return errors.New("atlas: MaxThreads must be at least 1")
	}
	if o.LogEntries < 2 {
		return errors.New("atlas: LogEntries must be at least 2")
	}
	return nil
}

// Runtime is the Atlas runtime bound to one persistent heap.
type Runtime struct {
	heap *pheap.Heap
	dev  *nvm.Device
	mode Mode
	opts Options
	tel  *telemetry.AtlasStats // nil-safe; from Options.Telemetry

	dirPtr pheap.Ptr     // the persistent log directory (see dir)
	epoch  uint64        // the directory epoch, read once by New
	mtxID  atomic.Uint64 // mutex id allocator

	mu         sync.Mutex // guards thread registration
	threads    []*Thread
	slotReused map[int]bool // slots whose rings hold a released thread's records
}

// New creates a Runtime on the heap, allocating (or re-attaching to) the
// persistent log directory anchored at Aux slot AuxLogDir. Call Recover
// before New when reopening a heap after a crash — New refuses to attach
// to a directory that still holds log entries from a previous
// incarnation.
func New(heap *pheap.Heap, mode Mode, opts Options) (*Runtime, error) {
	opts.fillDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if mode != ModeOff && mode != ModeTSP && mode != ModeNonTSP {
		return nil, fmt.Errorf("atlas: unknown mode %d", int(mode))
	}
	if lw := heap.Device().Config().LineWords; lw%entryWords != 0 {
		// Entries are entryWords-aligned; a line size that is not a
		// multiple would let records straddle lines, breaking both the
		// single-flush-per-record cost model and StoreBlock's contract.
		return nil, fmt.Errorf("atlas: device line size %d words is not a multiple of the %d-word log record", lw, entryWords)
	}
	rt := &Runtime{heap: heap, dev: heap.Device(), mode: mode, opts: opts, tel: opts.Telemetry}

	dirPtr := heap.Aux(AuxLogDir)
	if dirPtr.IsNil() {
		p, err := heap.Alloc(dirWords(opts.MaxThreads))
		if err != nil {
			return nil, fmt.Errorf("atlas: allocating log directory: %w", err)
		}
		heap.Store(p, dirMagicWord, dirMagic)
		heap.Store(p, dirEpochWord, 1)
		heap.Store(p, dirThreadsWord, uint64(opts.MaxThreads))
		heap.Store(p, dirEntriesWord, uint64(opts.LogEntries))
		heap.SetAux(AuxLogDir, p)
		rt.dev.FlushRange(p.Addr(), uint64(dirWords(opts.MaxThreads)))
		rt.dev.FlushRange(0, pheap.HeapStart()) // the aux slot lives in the header
		dirPtr = p
	}
	rt.dirPtr = dirPtr
	tal := rt.dev.Tally()
	defer tal.Publish()
	dir := rt.dir(&tal)
	if dir.magic() != dirMagic {
		return nil, errors.New("atlas: log directory corrupt (bad magic)")
	}
	if got := dir.maxThreads(); got != opts.MaxThreads {
		return nil, fmt.Errorf("atlas: directory built for %d threads, options say %d", got, opts.MaxThreads)
	}
	if got := dir.entries(); got != opts.LogEntries {
		return nil, fmt.Errorf("atlas: directory built for %d log entries, options say %d", got, opts.LogEntries)
	}
	if n := countResidualEntries(dir); n > 0 {
		return nil, fmt.Errorf("atlas: directory holds %d un-recovered log entries; run Recover first", n)
	}
	rt.epoch = dir.epoch()
	rt.threads = make([]*Thread, opts.MaxThreads)
	return rt, nil
}

// dir returns a view of the log directory counting into tal.
func (rt *Runtime) dir(tal *nvm.Tally) logDir {
	return logDir{dev: rt.dev, p: rt.dirPtr, tal: tal}
}

// countResidualEntries counts valid current-epoch entries left anywhere
// in the log rings — nonzero means the previous incarnation crashed and
// Recover has not been run.
func countResidualEntries(dir logDir) int {
	epoch := dir.epoch()
	total := 0
	for i := 0; i < dir.maxThreads(); i++ {
		buf := dir.buf(i)
		if buf.IsNil() {
			continue
		}
		base := alignedLogBase(buf)
		for slot := 0; slot < dir.entries(); slot++ {
			if _, ok := readEntry(dir.tal, base+nvm.Addr(slot*entryWords), uint64(i), epoch); ok {
				total++
			}
		}
	}
	return total
}

// Mode returns the runtime's fortification mode.
func (rt *Runtime) Mode() Mode { return rt.mode }

// Heap returns the underlying persistent heap.
func (rt *Runtime) Heap() *pheap.Heap { return rt.heap }

// NewMutex creates a mutex managed by this runtime. Mutexes are volatile
// Go objects; only their ids appear in the persistent log, which is all
// recovery needs.
func (rt *Runtime) NewMutex() *Mutex {
	return &Mutex{rt: rt, id: rt.mtxID.Add(1)}
}

// NewThread registers a worker thread and returns its handle. Each OS/Go
// thread of the simulated program must use its own Thread; handles are
// not safe for concurrent use (they model thread-local runtime state).
func (rt *Runtime) NewThread() (*Thread, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	tal := rt.dev.Tally()
	defer tal.Publish()
	dir := rt.dir(&tal)
	reused := rt.slotReused
	for i, t := range rt.threads {
		if t == nil {
			buf := dir.buf(i)
			if buf.IsNil() && rt.mode != ModeOff {
				// One entry of slack lets the base be rounded up to an
				// entry (= line) boundary; see alignedLogBase.
				p, err := rt.heap.Alloc((rt.opts.LogEntries + 1) * entryWords)
				if err != nil {
					return nil, fmt.Errorf("atlas: allocating log for thread %d: %w", i, err)
				}
				dir.setBuf(i, p)
				buf = p
			}
			var base nvm.Addr
			if !buf.IsNil() {
				base = alignedLogBase(buf)
			}
			if reused[i] && !buf.IsNil() {
				// The slot's previous occupant left current-epoch records
				// in the ring; the new thread's sequence numbers restart,
				// so recovery could confuse stale records with fresh
				// ones. Scrub the ring (and make the scrub durable, so a
				// no-rescue crash cannot resurrect the stale records).
				for w := 0; w < rt.opts.LogEntries*entryWords; w++ {
					tal.Store(base+nvm.Addr(w), 0)
				}
				rt.dev.FlushRange(base, uint64(rt.opts.LogEntries*entryWords))
			}
			t := &Thread{rt: rt, id: uint64(i), buf: base, tal: rt.dev.Tally()}
			rt.threads[i] = t
			return t, nil
		}
	}
	return nil, fmt.Errorf("atlas: all %d thread slots in use", rt.opts.MaxThreads)
}

// ReleaseThread unregisters a thread handle, making its slot (and log
// buffer) reusable by a future NewThread. The thread must not be inside
// an OCS.
func (rt *Runtime) ReleaseThread(t *Thread) error {
	if t.held != 0 {
		return errors.New("atlas: thread released while holding mutexes")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.threads[t.id] != t {
		return errors.New("atlas: thread not registered with this runtime")
	}
	rt.threads[t.id] = nil
	if rt.slotReused == nil {
		rt.slotReused = make(map[int]bool)
	}
	rt.slotReused[int(t.id)] = true
	return nil
}
