package nvm

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
)

// CrashOptions chooses the crash image: what each dirty line persists.
// In D'Osualdo et al.'s model (The Path to Durable Linearizability), at
// line granularity, that is some prefix of the stores made to the line
// since its last write-back. The options span the failure/mechanism
// matrix of the paper's Section 3:
//
//   - RescueFraction == 1 models a tolerated failure under a correct TSP
//     mechanism: the rescue (panic-handler cache flush, NVDIMM save,
//     WSP-style energy-backed evacuation, or POSIX kernel persistence of
//     a shared file-backed mapping) moves every dirty line to safety, so
//     the persisted image reflects *every* store issued before the crash
//     — the "recovery observer" view.
//   - RescueFraction == 0 models a failure with no rescue (e.g. power
//     loss on volatile DRAM with no standby energy): only lines already
//     flushed survive.
//   - 0 < RescueFraction < 1 models an interrupted or underpowered
//     rescue; each dirty line survives whole, independently with the
//     given probability.
//   - Keep chooses each line's prefix itself.
type CrashOptions struct {
	// RescueFraction is the probability that each dirty line is written
	// back at crash time. Must be in [0, 1]. Ignored when Keep is set.
	RescueFraction float64

	// Seed makes partial rescues deterministic. Ignored when
	// RescueFraction is 0 or 1.
	Seed int64

	// Keep, when set, is called for each dirty line in ascending order
	// with its number of store boundaries (see ArmCrashAfter) and
	// returns how many persist: 0 leaves the persisted content, stores
	// writes the line back whole, and j leaves it as it stood after its
	// j-th recorded store. A line with no recorded store has stores == 1.
	Keep func(line uint64, stores int) int
}

// Crash terminates the simulated machine: all subsequent stores and
// flushes are dropped (the threads have been killed), and each dirty
// line persists the prefix opts chooses for it.
//
// After Crash, the persisted image is the recovery observer's view of
// memory. Call Restart to begin a new incarnation that reads it.
func (d *Device) Crash(opts CrashOptions) {
	if opts.RescueFraction < 0 || opts.RescueFraction > 1 {
		panic(fmt.Sprintf("nvm: RescueFraction %v out of [0,1]", opts.RescueFraction))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed.Load() {
		return
	}
	d.crashed.Store(true)
	hist, keep := d.swapHist(nil), opts.Keep
	switch {
	case keep != nil:
	case opts.RescueFraction == 1:
		d.tel.IncRescue()
		d.flushAll()
		return
	case opts.RescueFraction == 0:
		d.tel.IncDrop()
		return // dirty lines are simply lost
	default: // one draw per dirty line, in ascending line order
		rng := rand.New(rand.NewSource(opts.Seed))
		keep = func(_ uint64, stores int) int {
			if rng.Float64() < opts.RescueFraction {
				return stores
			}
			return 0
		}
	}
	d.tel.IncRescue()
	snaps := d.snapshots(hist)
	var n uint64
	for line := d.nextDirty(0); line < d.lines; line = d.nextDirty(line + 1) {
		states := d.lineStates(line, snaps[line])
		stores := len(states) - 1
		switch j := keep(line, stores); {
		case j < 0 || j > stores:
			panic(fmt.Sprintf("nvm: Keep(%d, %d) = %d, out of [0, %d]", line, stores, j, stores))
		case j == stores:
			d.writeBack(line)
			n++
		case j > 0: // a cut line stays dirty: Restart reverts it to this
			lo, _ := d.lineSpan(line)
			pg := d.persistedPage(lo)
			for i, v := range states[j] {
				atomic.StoreUint64(&pg[lo%pageWords+uint64(i)], v)
			}
			n++
		}
	}
	d.tel.AddWritebacks(n)
}

// snapshots parses an armed history (see Device.hist): for each line
// stored to since its last write-back, the snapshots taken before each
// of those stores, oldest first.
func (d *Device) snapshots(h []uint64) map[uint64][][]uint64 {
	snaps := map[uint64][][]uint64{}
	for len(h) > 0 {
		line := h[0] >> 1
		if h[0]&1 != 0 {
			delete(snaps, line)
			h = h[1:]
			continue
		}
		lo, hi := d.lineSpan(line)
		snaps[line] = append(snaps[line], h[1:1+hi-lo])
		h = h[1+hi-lo:]
	}
	return snaps
}

// lineStates returns the distinct contents a dirty line held since its
// last write-back, oldest first: its persisted content, each snapshot
// that differs from the one before it, and its volatile content, which
// always counts. Entry j is the line after its j-th recorded store; the
// stores it took while no crash was armed count as one.
func (d *Device) lineStates(line uint64, snaps [][]uint64) [][]uint64 {
	lo, hi := d.lineSpan(line)
	load := func(word func(uint64) uint64) []uint64 {
		s := make([]uint64, hi-lo)
		for i := range s {
			s[i] = word(lo + uint64(i))
		}
		return s
	}
	states := [][]uint64{load(d.persistedLoad)}
	for _, s := range snaps {
		if !slices.Equal(s, states[len(states)-1]) {
			states = append(states, s)
		}
	}
	if v := load(d.volatileLoad); len(states) == 1 || !slices.Equal(v, states[len(states)-1]) {
		states = append(states, v)
	}
	return states
}

// CrashRescue crashes with a complete TSP rescue: every store issued
// before the crash becomes durable.
func (d *Device) CrashRescue() { d.Crash(CrashOptions{RescueFraction: 1}) }

// CrashDrop crashes with no rescue: all dirty lines are lost.
func (d *Device) CrashDrop() { d.Crash(CrashOptions{RescueFraction: 0}) }

// CrashPartial crashes rescuing each dirty line with probability frac,
// deterministically under seed.
func (d *Device) CrashPartial(frac float64, seed int64) {
	d.Crash(CrashOptions{RescueFraction: frac, Seed: seed})
}

// Crashed reports whether a crash has been injected since the last
// restart.
func (d *Device) Crashed() bool { return d.crashed.Load() }

// StopEvictor does nothing: crash images replaced the background
// evictor, and the benchmark module's replay still calls it.
func (d *Device) StopEvictor() {}

// ArmCrashAfter schedules a crash to fire automatically after `stores`
// more store-class operations (Store, StoreBlock, successful CAS, Add)
// reach the device, using opts at that moment. It turns any code path —
// including recovery itself — into a fault-injection target without
// cooperation from the code under test: arm the countdown, run the code,
// and the crash lands mid-flight at word-store granularity.
//
// While armed, the device snapshots a line before each store-class
// operation on it and notes each write-back: the store boundaries
// CrashOptions.Keep cuts at. A disarmed device records nothing.
//
// Arming with stores == 0 crashes on the very next store. A crash or
// restart clears any armed countdown.
func (d *Device) ArmCrashAfter(stores uint64, opts CrashOptions) {
	if opts.RescueFraction < 0 || opts.RescueFraction > 1 {
		panic(fmt.Sprintf("nvm: RescueFraction %v out of [0,1]", opts.RescueFraction))
	}
	d.swapHist(make([]uint64, 0, 1024))
	d.armedOpts.Store(&opts)
	d.armed.Store(int64(stores) + 1)
}

// DisarmCrash cancels a pending armed crash.
func (d *Device) DisarmCrash() {
	d.armed.Store(0)
	d.armedOpts.Store(nil)
	d.swapHist(nil)
}

// countdown is called by every store-class operation on a; when an
// armed countdown reaches zero the crash fires BEFORE the triggering
// store takes effect (the store is the one that never happened).
func (d *Device) countdown(a Addr) bool { return d.armed.Load() != 0 && d.countdownArmed(a) }

func (d *Device) countdownArmed(a Addr) bool {
	if d.armed.Add(-1) != 0 {
		d.record(d.LineOf(a), false)
		return false
	}
	optsp := d.armedOpts.Load()
	if optsp == nil {
		return false
	}
	d.Crash(*optsp)
	// Only now: until the crash has taken the history, write-backs
	// racing it must still go into it (see writeBack).
	d.armedOpts.Store(nil)
	return true
}

// record appends to the armed history a write-back of line (wb), or the
// line as it stands before a store lands: a snapshot of the line at an
// instant after its last write-back, so even under racing stores a cut
// is an image the cache could have written.
func (d *Device) record(line uint64, wb bool) {
	d.histMu.Lock()
	defer d.histMu.Unlock()
	switch {
	case d.hist == nil:
		return
	case wb:
		d.hist = append(d.hist, line<<1|1)
		return
	}
	lo, hi := d.lineSpan(line)
	d.hist = append(d.hist, line<<1)
	for w := lo; w < hi; w++ {
		d.hist = append(d.hist, atomic.LoadUint64(&d.volatile[w]))
	}
}

// swapHist replaces the armed history (nil: record nothing) and returns
// the one it replaced.
func (d *Device) swapHist(h []uint64) []uint64 {
	d.histMu.Lock()
	defer d.histMu.Unlock()
	old := d.hist
	d.hist = h
	return old
}

// Restart begins a new machine incarnation after a crash: the volatile
// image is re-read from the persisted image (what the durable medium
// holds is all the new incarnation can see), dirty bits are cleared, and
// stores are accepted again.
//
// Only dirty lines are re-read: by the clean-line invariant (see
// writeBack) every other line already equals its persisted content, and
// a line a crash image cut short stays dirty. So a restart costs what
// the crash left unrescued — nothing after a full rescue — not the size
// of the device.
//
// Restart on a device that never crashed is permitted and simply
// discards unflushed volatile state, which is occasionally useful in
// tests.
func (d *Device) Restart() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for line := d.nextDirty(0); line < d.lines; line = d.nextDirty(line + 1) {
		lo, hi := d.lineSpan(line)
		for w := lo; w < hi; w++ {
			d.volatileStore(w, d.persistedLoad(w))
		}
		d.setDirty(line, false)
	}
	d.armed.Store(0)
	d.armedOpts.Store(nil)
	d.swapHist(nil)
	d.crashed.Store(false)
}
