package nvm

import (
	"fmt"
	"math/rand"
)

// CrashOptions controls what a simulated crash does with the dirty lines
// of the volatile image.
//
// The options span the failure/mechanism matrix of the paper's Section 3:
//
//   - RescueFraction == 1 models a tolerated failure under a correct TSP
//     mechanism: the rescue (panic-handler cache flush, NVDIMM save,
//     WSP-style energy-backed evacuation, or POSIX kernel persistence of
//     a shared file-backed mapping) moves every dirty line to safety, so
//     the persisted image reflects *every* store issued before the crash
//     — the "recovery observer" view.
//   - RescueFraction == 0 models a failure with no rescue (e.g. power
//     loss on volatile DRAM with no standby energy): only lines already
//     written back by flushes or eviction survive.
//   - 0 < RescueFraction < 1 models an interrupted or underpowered
//     rescue; each dirty line survives independently with the given
//     probability. Tests use it to probe recovery robustness.
type CrashOptions struct {
	// RescueFraction is the probability that each dirty line is written
	// back at crash time. Must be in [0, 1].
	RescueFraction float64

	// Seed makes partial rescues deterministic. Ignored when
	// RescueFraction is 0 or 1.
	Seed int64
}

// Crash terminates the simulated machine: all subsequent stores are
// dropped (the threads have been killed), and dirty lines are written
// back according to opts. The evictor, if running, should be stopped by
// the caller first — a crashed machine's cache controller is not running
// either, and a racing evictor would blur the rescue fraction.
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
	switch {
	case opts.RescueFraction == 1:
		d.tel.IncRescue()
		d.FlushAll()
	case opts.RescueFraction == 0:
		d.tel.IncDrop()
		// Dirty lines are simply lost; nothing to do.
	default:
		d.tel.IncRescue()
		// One draw per dirty line, in ascending line order.
		rng := rand.New(rand.NewSource(opts.Seed))
		var n uint64
		for line := d.nextDirty(0); line < d.lines; line = d.nextDirty(line + 1) {
			if rng.Float64() < opts.RescueFraction {
				d.writeBack(line)
				n++
			}
		}
		d.tel.AddWritebacks(n)
	}
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

// ArmCrashAfter schedules a crash to fire automatically after `stores`
// more store-class operations (Store, StoreBlock, successful CAS, Add)
// reach the device, using opts at that moment. It turns any code path —
// including recovery itself — into a fault-injection target without
// cooperation from the code under test: arm the countdown, run the code,
// and the crash lands mid-flight at word-store granularity.
//
// Arming with stores == 0 crashes on the very next store. A crash or
// restart clears any armed countdown.
func (d *Device) ArmCrashAfter(stores uint64, opts CrashOptions) {
	if opts.RescueFraction < 0 || opts.RescueFraction > 1 {
		panic(fmt.Sprintf("nvm: RescueFraction %v out of [0,1]", opts.RescueFraction))
	}
	d.armedOpts.Store(&opts)
	d.armed.Store(int64(stores) + 1)
}

// DisarmCrash cancels a pending armed crash.
func (d *Device) DisarmCrash() {
	d.armed.Store(0)
	d.armedOpts.Store(nil)
}

// countdown is called by every store-class operation; when an armed
// countdown reaches zero the crash fires BEFORE the triggering store
// takes effect (the store is the one that never happened).
func (d *Device) countdown() bool { return d.armed.Load() != 0 && d.countdownArmed() }

func (d *Device) countdownArmed() bool {
	if d.armed.Add(-1) != 0 {
		return false
	}
	optsp := d.armedOpts.Load()
	d.armedOpts.Store(nil)
	if optsp == nil {
		return false
	}
	d.Crash(*optsp)
	return true
}

// Restart begins a new machine incarnation after a crash: the volatile
// image is re-read from the persisted image (what the durable medium
// holds is all the new incarnation can see), dirty bits are cleared, and
// stores are accepted again. A fresh evictor is installed if one is
// configured, ready for StartEvictor.
//
// Only dirty lines are re-read: by the clean-line invariant (see
// writeBack) every other line already equals its persisted content. So a
// restart costs what the crash left unrescued — nothing after a full
// rescue — not the size of the device.
//
// Restart on a device that never crashed is permitted and simply
// discards unflushed volatile state, which is occasionally useful in
// tests; it still requires the evictor to be stopped.
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
	if d.cfg.Evictor.Enabled() {
		d.evictor = newEvictor(d, d.cfg.Evictor)
	}
	d.armed.Store(0)
	d.armedOpts.Store(nil)
	d.crashed.Store(false)
}
