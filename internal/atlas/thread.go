package atlas

import (
	"fmt"
	"sync"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// Thread is a per-worker handle carrying the thread-local state real
// Atlas keeps in TLS: the undo-log cursor, the held-mutex count that
// delimits outermost critical sections, and the first-store filter. A
// Thread must be used by a single goroutine at a time.
type Thread struct {
	rt  *Runtime
	id  uint64
	buf nvm.Addr // log buffer base; 0 in ModeOff
	// buf is stored as the pheap payload address; pheap.Ptr(0) marks
	// "no log" (ModeOff runtimes register threads without buffers).

	// tal counts the thread's device accesses, published when the
	// outermost critical section closes (or at once, outside one).
	tal nvm.Tally

	head       int    // total entries ever appended; slot = head % capacity
	flushedTo  int    // entries [flushedTo, head) await their ordered flush (ModeNonTSP)
	ocsEntries int    // entries appended by the current OCS (ring-span guard)
	held       int    // mutexes currently held; 0->1 opens an OCS, 1->0 closes it
	clock      uint64 // Lamport clock: the thread's last log sequence number

	// First-store-per-OCS filter and the line set for the commit-time
	// data flush in ModeNonTSP. A slice scan beats a map while the OCS is
	// small; past dirtySliceMax addresses dirtySet indexes dirtyAddrs.
	// The map outlives the OCS that first needed it (cleared, not
	// dropped), so a thread whose sections are routinely that large —
	// the cache server's burst-sized batches — allocates it once.
	dirtyAddrs []nvm.Addr
	dirtySet   map[nvm.Addr]struct{}

	// deferredFrees holds blocks unlinked inside OCSes, freed only once
	// rollback can no longer resurrect them (see FreeDeferred).
	deferredFrees []deferredFree

	// lineScratch is flushOCSData's reusable dedup buffer.
	lineScratch []uint64
}

// deferredFree is a block awaiting reclamation: it becomes safe to free
// once the owning thread's log head reaches readyAt, at which point the
// unlinking OCS's records have been fully overwritten and recovery can
// never roll the unlink back.
type deferredFree struct {
	p       pheap.Ptr
	readyAt int
}

// dirtySliceMax is the first-store filter's slice-to-map switchover.
const dirtySliceMax = 32

// ID returns the thread's registration slot.
func (t *Thread) ID() uint64 { return t.id }

// InOCS reports whether the thread is inside an outermost critical
// section.
func (t *Thread) InOCS() bool { return t.held > 0 }

// beginOCS enters the OCS gate (held until the OCS closes), which
// serializes OCSes against explicit Checkpoints.
func (t *Thread) beginOCS() {
	t.rt.ocsGate.RLock()
	t.ocsEntries = 0
}

// appendEntry writes one log record into the thread's RING of log slots
// with a fresh global sequence number. The ring deliberately overwrites
// the oldest records — those belong to long-committed OCSes, which
// recovery never needs (see recovery.go for why that is sound, and the
// opening-acquire flag that protects against a partially overwritten
// group). Overwriting in place is what lets the runtime log forever
// without stop-the-world pruning, playing the role of Atlas's
// asynchronous log-pruning helper thread.
//
// Records are NOT flushed here even in ModeNonTSP; they accumulate in
// [flushedTo, head) and flushPending pushes them out in append order at
// the two points correctness requires durability — before a guarded data
// store executes, and at OCS commit. Batching matters: consecutive
// records share cache lines, so one flush often covers several records.
func (t *Thread) appendEntry(kind entryKind, a, v uint64, opening bool) {
	if t.ocsEntries >= t.rt.opts.LogEntries {
		// One OCS has lapped its own ring: its earliest undo records are
		// gone and rollback would corrupt rather than restore. This is a
		// configuration error (LogEntries must exceed the largest OCS).
		panic(fmt.Sprintf("atlas: thread %d: one OCS wrote %d+ log entries, exceeding the %d-entry ring; raise LogEntries",
			t.id, t.ocsEntries, t.rt.opts.LogEntries))
	}
	slot := t.head % t.rt.opts.LogEntries
	base := t.buf + nvm.Addr(slot*entryWords)
	t.clock++
	writeEntry(&t.tal, base, entry{
		kind:    kind,
		seq:     t.clock,
		a:       a,
		v:       v,
		opening: opening,
	}, t.id, t.rt.epoch.Load())
	t.head++
	t.ocsEntries++
	t.rt.tel.IncLogAppend()
}

// flushPending makes every appended-but-unflushed record durable, in
// append order, handling ring wrap. Only ModeNonTSP calls it.
func (t *Thread) flushPending() {
	cap := t.rt.opts.LogEntries
	for t.flushedTo < t.head {
		slot := t.flushedTo % cap
		n := t.head - t.flushedTo
		if slot+n > cap {
			n = cap - slot // flush up to the wrap point, then loop
		}
		t.rt.dev.FlushRange(t.buf+nvm.Addr(slot*entryWords), uint64(n*entryWords))
		t.flushedTo += n
		t.rt.tel.IncLogFlush()
	}
}

// Lock acquires m for this thread, opening an OCS if no mutex was held.
func (t *Thread) Lock(m *Mutex) {
	if m.rt != t.rt {
		panic("atlas: mutex belongs to a different runtime")
	}
	if t.held == 0 {
		t.beginOCS()
	}
	m.mu.Lock()
	t.held++
	if t.rt.mode == ModeOff {
		return
	}
	// Lamport-merge with the mutex's last release: sequence numbers need
	// no globally contended counter, only consistency with the
	// happens-before edges recovery analyzes — per-thread program order
	// (the local increment) and release-to-acquire edges (this merge,
	// performed under the mutex itself, so it costs no extra atomics).
	if m.lastSeq > t.clock {
		t.clock = m.lastSeq
	}
	// The opening flag marks the OCS-opening acquire so recovery can
	// tell a fully captured OCS from one whose head was overwritten in
	// the ring.
	t.appendEntry(entryAcquire, m.id, 0, t.held == 1)
}

// Unlock releases m. Releasing the last held mutex closes and commits
// the OCS: in ModeNonTSP the OCS's stored lines are flushed BEFORE the
// final release record is appended (and flushed), so a durable final
// release implies durable data; in ModeTSP the record is just appended —
// the TSP rescue guarantees everything in one go.
func (t *Thread) Unlock(m *Mutex) {
	if t.held <= 0 {
		panic("atlas: Unlock with no mutex held")
	}
	if t.rt.mode != ModeOff {
		if t.held == 1 { // closing the OCS
			if t.rt.mode == ModeNonTSP {
				// Data first, then the release record that commits it:
				// a durable final release implies durable data.
				t.flushOCSData()
				t.appendEntry(entryRelease, m.id, 0, false)
				t.flushPending()
			} else {
				t.appendEntry(entryRelease, m.id, 0, false)
			}
			t.resetDirty()
			t.rt.tel.IncOCSCommit()
		} else {
			t.appendEntry(entryRelease, m.id, 0, false)
		}
	}
	t.held--
	if t.rt.mode != ModeOff {
		m.lastSeq = t.clock // publish, still under the mutex
	}
	m.mu.Unlock()
	if t.held == 0 {
		t.tal.Publish()
		t.rt.ocsGate.RUnlock()
		if len(t.deferredFrees) > 0 {
			t.runDeferredFrees()
		}
	}
}

// Section acquires every mutex in mus in slice order, runs fn, and
// releases in reverse order. Called with no mutex held, the whole body
// is ONE outermost critical section: every store fn makes — across any
// number of data-structure operations and stripe locks — commits or
// rolls back as a unit at recovery, and the per-OCS costs (begin/end
// records, first-store filtering, the ModeNonTSP commit flush) are paid
// once for the group instead of once per operation. This is the
// paper-side lever behind the cache server's batch pipeline: persistence
// cost per outermost critical section, so many queued operations in one
// Section amortize it.
//
// Callers that run concurrent Sections over overlapping mutex sets must
// order mus consistently (e.g. by stripe index, as txkv and the cache
// server do); Section itself imposes no order. fn's error is returned
// after the locks release; the error does NOT abort the section's
// stores — a caller needing all-or-nothing application must buffer
// writes until it knows fn succeeds (txkv's pattern).
//
// One sizing caveat: the section's undo records all land in the same
// log ring, so the combined footprint of fn must stay under the
// runtime's LogEntries bound (the ring panics if a single OCS laps it).
func (t *Thread) Section(mus []*Mutex, fn func() error) error {
	for _, m := range mus {
		t.Lock(m)
	}
	// A panicking fn leaves the mutexes held, so no Unlock publishes what
	// it counted; after a returning fn's last Unlock this has nothing left.
	defer t.tal.Publish()
	err := fn()
	for i := len(mus) - 1; i >= 0; i-- {
		t.Unlock(mus[i])
	}
	return err
}

// flushOCSData flushes every cache line dirtied by this OCS's guarded
// stores (deduplicated by line). The line scratch is thread-local so the
// commit path stays allocation-free.
func (t *Thread) flushOCSData() {
	t.lineScratch = t.lineScratch[:0]
	for _, a := range t.dirtyAddrs {
		line := t.rt.dev.LineOf(a)
		dup := false
		for _, l := range t.lineScratch {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			t.lineScratch = append(t.lineScratch, line)
			t.rt.dev.FlushWord(a)
		}
	}
}

func (t *Thread) resetDirty() {
	if len(t.dirtyAddrs) > dirtySliceMax {
		clear(t.dirtySet)
	}
	t.dirtyAddrs = t.dirtyAddrs[:0]
}

// seenDirty reports (and records) whether a was already stored to in the
// current OCS — Atlas's first-store filter.
func (t *Thread) seenDirty(a nvm.Addr) bool {
	if len(t.dirtyAddrs) > dirtySliceMax {
		if _, ok := t.dirtySet[a]; ok {
			return true
		}
		t.dirtySet[a] = struct{}{}
		t.dirtyAddrs = append(t.dirtyAddrs, a)
		return false
	}
	for _, x := range t.dirtyAddrs {
		if x == a {
			return true
		}
	}
	t.dirtyAddrs = append(t.dirtyAddrs, a)
	if len(t.dirtyAddrs) > dirtySliceMax {
		if t.dirtySet == nil {
			t.dirtySet = make(map[nvm.Addr]struct{}, 4*dirtySliceMax)
		}
		for _, x := range t.dirtyAddrs {
			t.dirtySet[x] = struct{}{}
		}
	}
	return false
}

// Store writes v to heap word address a. Inside an OCS the store is
// guarded: the first store to each location appends an undo record (and
// in ModeNonTSP flushes it) before the mutation. Outside any OCS the
// store is a plain unguarded store — the Atlas model reserves that for
// initialization of data not yet reachable by other threads; stores to
// shared reachable data outside critical sections are data races in the
// source program.
func (t *Thread) Store(a nvm.Addr, v uint64) {
	if t.rt.mode != ModeOff && t.held > 0 {
		// seenDirty must still run under LogEveryStore: it also feeds
		// the commit-time data-flush line set in ModeNonTSP.
		first := !t.seenDirty(a)
		if first || t.rt.opts.LogEveryStore {
			old := t.tal.Load(a)
			t.appendEntry(entryStore, uint64(a), old, false)
			if t.rt.mode == ModeNonTSP {
				// The undo record (and everything logged before it) must
				// be durable before the mutation can possibly be.
				t.flushPending()
			}
		}
	}
	t.tal.Store(a, v)
	if t.held == 0 {
		t.tal.Publish()
	}
}

// Load reads heap word address a.
func (t *Thread) Load(a nvm.Addr) uint64 {
	v := t.tal.Load(a)
	if t.held == 0 {
		t.tal.Publish()
	}
	return v
}

// FreeDeferred schedules the block at p for deallocation once no
// possible recovery could resurrect it. Freeing inside a critical
// section directly would be unsound twice over: an incomplete OCS rolled
// back at recovery would undo the unlink stores and leave the structure
// referencing a reused block, and even a COMMITTED unlink can be undone
// later by a cascading rollback. Real Atlas defers deallocation until
// its log no longer references the critical section; the ring-log
// equivalent is precise — once the thread appends a full ring of further
// records, the unlinking OCS's group is partially overwritten and
// recovery ignores it — so that is the reclamation point. An explicit
// Checkpoint (which truncates all logs) releases deferred blocks
// immediately; blocks still deferred at a crash are mere leaks that the
// recovery-time collector reclaims.
//
// Outside any OCS the block is freed immediately: there is no log record
// that could resurrect it.
func (t *Thread) FreeDeferred(p pheap.Ptr) error {
	if t.held == 0 {
		return t.rt.heap.Free(p)
	}
	t.deferredFrees = append(t.deferredFrees, deferredFree{
		p: p,
		// Current OCS records plus a full ring must pass before the
		// group is guaranteed unrecoverable.
		readyAt: t.head + t.rt.opts.LogEntries,
	})
	return nil
}

// runDeferredFrees frees every deferred block whose safety point has
// passed. Entries are appended in readyAt order, so a prefix scan
// suffices.
func (t *Thread) runDeferredFrees() {
	i := 0
	for ; i < len(t.deferredFrees) && t.head >= t.deferredFrees[i].readyAt; i++ {
		// A failed free here means the pointer was corrupted inside the
		// OCS — a bug in the caller, surfaced loudly.
		if err := t.rt.heap.Free(t.deferredFrees[i].p); err != nil {
			panic(fmt.Sprintf("atlas: deferred free of %d: %v", t.deferredFrees[i].p, err))
		}
	}
	if i > 0 {
		t.deferredFrees = append(t.deferredFrees[:0], t.deferredFrees[i:]...)
	}
}

// releaseAllDeferredFrees frees everything regardless of log position;
// called under the checkpoint's write lock, where the epoch bump has
// just invalidated every log record.
func (t *Thread) releaseAllDeferredFrees() {
	for _, df := range t.deferredFrees {
		if err := t.rt.heap.Free(df.p); err != nil {
			panic(fmt.Sprintf("atlas: deferred free of %d: %v", df.p, err))
		}
	}
	t.deferredFrees = t.deferredFrees[:0]
}

// Mutex is a runtime-managed mutual-exclusion lock. Its identity (id)
// appears in acquire/release log records so recovery can reconstruct the
// happens-before edges between OCSes.
type Mutex struct {
	rt *Runtime
	id uint64
	mu sync.Mutex

	// lastSeq is the releasing thread's clock at the most recent unlock,
	// read by the next acquirer while it holds mu (no atomics needed).
	lastSeq uint64
}

// ID returns the mutex's log identity.
func (m *Mutex) ID() uint64 { return m.id }
