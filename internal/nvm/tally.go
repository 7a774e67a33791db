package nvm

import (
	"fmt"
	"sync/atomic"
)

// Tally is one goroutine's handle on the device for the length of one
// operation: the word accessors, counting what they do in plain words the
// goroutine owns, so nothing on the per-access path writes shared memory
// for the sake of counting. Publish adds the tally to the device's counter
// section, one atomic add per counter that moved, and empties it.
//
// The owner decides what an operation is and publishes when it ends: an
// atlas.Thread when its outermost critical section closes; an optimistic
// read, a skip-list call or a recovery pass when it returns. Device.Stats
// is therefore exact whenever no operation is in flight and otherwise
// short by at most the accesses of those in flight (an operation abandoned
// for good never reports). Device.Load and its siblings are the same
// accessors on a tally of one access.
//
// A Tally is for one goroutine at a time, and a copy counts separately
// from its original. Obtain one from Device.Tally.
type Tally struct {
	d                  *Device
	loads, stores, cas uint64
}

// Tally returns an empty tally on d.
func (d *Device) Tally() Tally { return Tally{d: d} }

// Publish adds the tally to the device's counters (if it keeps any) and
// empties it; an empty tally costs three untaken branches.
func (t *Tally) Publish() {
	t.d.tel.AddAccesses(t.loads, t.stores, t.cas)
	t.loads, t.stores, t.cas = 0, 0, 0
}

// Load atomically reads the word at a from the volatile image. It is
// written to fit the compiler's inlining budget (scripts/check.sh holds
// it there): one comparison against Device.quick covers both reasons to
// leave the fast path, and loadSlow sorts them out.
func (t *Tally) Load(a Addr) uint64 {
	if uint64(a) >= t.d.quick {
		t.d.loadSlow(a)
	}
	t.loads++
	return atomic.LoadUint64(&t.d.volatile[a])
}

// TryLoad atomically reads the word at a, reporting false instead of
// panicking when a is out of range. Optimistic readers need it: a
// lock-free chain walk can pick up a pointer mid-update, and the torn
// value may index anywhere. The reader detects the interleaving by
// sequence validation afterwards; TryLoad just keeps the speculative
// dereference from killing the process first.
func (t *Tally) TryLoad(a Addr) (uint64, bool) {
	d := t.d
	if uint64(a) >= uint64(len(d.volatile)) {
		return 0, false
	}
	t.loads++
	if d.cacheTags != nil {
		d.touchLoad(a)
	}
	return atomic.LoadUint64(&d.volatile[a]), true
}

// LoadBlock reads len(dst) consecutive words starting at a into dst. It
// is the load-side mirror of StoreBlock, for code that scans (the
// recovery collector, the log scan, a structure verifier): every word is
// still read atomically and counted as one load, but the range check is
// paid once per call and the latency model once per line. Unlike
// StoreBlock the range may span lines.
func (t *Tally) LoadBlock(a Addr, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	d := t.d
	last := a + Addr(len(dst)) - 1
	d.check(a)
	d.check(last)
	t.loads += uint64(len(dst))
	if d.cacheTags != nil {
		for line, end := d.LineOf(a), d.LineOf(last); line <= end; line++ {
			d.touchLoad(Addr(line << d.lineShift))
		}
	}
	src := d.volatile[a : last+1]
	for i := range dst {
		dst[i] = atomic.LoadUint64(&src[i])
	}
}

// Store atomically writes v to the word at a in the volatile image and
// marks the containing line dirty. Stores issued after a crash are
// dropped (and not counted): the simulated threads have already been
// terminated.
func (t *Tally) Store(a Addr, v uint64) {
	d := t.d
	d.check(a)
	if d.crashed.Load() || d.countdown() {
		return
	}
	t.stores++
	if d.cacheTags != nil {
		d.touchStore(a)
	}
	atomic.StoreUint64(&d.volatile[a], v)
	d.markDirty(a)
}

// StoreBlock writes vals to consecutive words starting at a, which must
// all lie within one cache line. It models a line-sized store burst (the
// write-combined stores a logging runtime emits for a record): the
// individual word stores are still atomic, but the crash check, the
// count (one store) and the dirty marking are paid once per line rather
// than once per word.
func (t *Tally) StoreBlock(a Addr, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	d := t.d
	d.check(a)
	last := a + Addr(len(vals)) - 1
	d.check(last)
	if d.LineOf(a) != d.LineOf(last) {
		panic(fmt.Sprintf("nvm: StoreBlock [%d,%d] crosses a cache line", a, last))
	}
	if d.crashed.Load() || d.countdown() {
		return
	}
	t.stores++
	if d.cacheTags != nil {
		d.touchStore(a)
	}
	for i, v := range vals {
		atomic.StoreUint64(&d.volatile[a+Addr(i)], v)
	}
	d.markDirty(a)
}

// CAS atomically compares-and-swaps the word at a in the volatile image.
// It returns false (and performs no store) after a crash.
func (t *Tally) CAS(a Addr, old, new uint64) bool {
	d := t.d
	d.check(a)
	if d.crashed.Load() || d.countdown() {
		return false
	}
	t.cas++
	if d.cacheTags != nil {
		d.touchLoad(a)
	}
	if atomic.CompareAndSwapUint64(&d.volatile[a], old, new) {
		d.markDirty(a)
		return true
	}
	return false
}

// Add atomically adds delta to the word at a and returns the new value,
// counted as a store. After a crash it returns the current value
// unmodified.
func (t *Tally) Add(a Addr, delta uint64) uint64 {
	d := t.d
	d.check(a)
	if d.crashed.Load() || d.countdown() {
		return atomic.LoadUint64(&d.volatile[a])
	}
	t.stores++
	if d.cacheTags != nil {
		d.touchLoad(a)
	}
	v := atomic.AddUint64(&d.volatile[a], delta)
	d.markDirty(a)
	return v
}
