package atlas

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// Model-based crash testing: execute a random single-threaded sequence
// of OCSes against both the Atlas runtime and a plain in-memory model
// that applies an OCS's stores only when it completes. Crash at a random
// primitive step, recover, and require the heap to equal the model
// exactly — completed OCSes durable, the in-flight one rolled back.
//
// This one property subsumes a large family of hand-written recovery
// tests: every prefix of every generated schedule is a distinct crash
// scenario.

const modelWords = 8

// crashScript interprets ops as a schedule of OCSes over an 8-word
// region. Returns the committed model and whether the crash fired
// mid-schedule.
type scriptResult struct {
	model   [modelWords]uint64
	crashed bool
}

// runCrashScript drives the runtime under the given mode, crashing after
// `crashStep` primitive stores, with the given rescue fraction at crash
// time. It returns the device (crashed & restarted) and the model state.
func runCrashScript(t *testing.T, mode Mode, ops []uint16, crashStep int, rescue float64) (*nvm.Device, scriptResult) {
	t.Helper()
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 16})
	heap, err := pheap.Format(dev)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(heap, mode, Options{MaxThreads: 1, LogEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	region, err := heap.Alloc(modelWords)
	if err != nil {
		t.Fatal(err)
	}
	heap.SetRoot(region)
	dev.FlushAll()
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutex()

	var res scriptResult
	var pending [modelWords]uint64 // the in-flight OCS's view
	step := 0
	rng := rand.New(rand.NewSource(int64(len(ops))))

	for i := 0; i < len(ops); i += 3 {
		// One OCS per chunk of up to 3 ops.
		th.Lock(m)
		pending = res.model
		nStores := int(ops[i]%3) + 1
		committed := true
		for s := 0; s < nStores; s++ {
			var op uint16
			if i+s < len(ops) {
				op = ops[i+s]
			}
			addr := int(op % modelWords)
			val := uint64(op)*2654435761 + uint64(rng.Intn(1000))
			th.Store(region.Addr()+nvm.Addr(addr), val)
			pending[addr] = val
			step++
			if step >= crashStep {
				// Crash mid-OCS (or exactly at its last store, which is
				// still before the commit record).
				dev.StopEvictor()
				dev.Crash(nvm.CrashOptions{RescueFraction: rescue, Seed: 11})
				res.crashed = true
				committed = false
				break
			}
		}
		if !committed {
			break
		}
		th.Unlock(m)
		res.model = pending // OCS committed; the model applies it
	}
	if !res.crashed {
		// Schedule ended without reaching the crash step: crash between
		// OCSes (everything committed).
		dev.Crash(nvm.CrashOptions{RescueFraction: rescue, Seed: 11})
		res.crashed = true
	}
	dev.Restart()
	return dev, res
}

func checkAgainstModel(t *testing.T, dev *nvm.Device, want [modelWords]uint64) (ok bool) {
	t.Helper()
	heap, err := pheap.Open(dev)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := Recover(heap); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	region := heap.Root()
	for w := 0; w < modelWords; w++ {
		if got := heap.Load(region, w); got != want[w] {
			return false
		}
	}
	return true
}

func TestQuickCrashRecoveryMatchesModelTSP(t *testing.T) {
	f := func(ops []uint16, crashAt uint8) bool {
		if len(ops) == 0 {
			return true
		}
		crashStep := int(crashAt)%(len(ops)+1) + 1
		dev, res := runCrashScript(t, ModeTSP, ops, crashStep, 1) // full rescue
		return checkAgainstModel(t, dev, res.model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCrashRecoveryMatchesModelNonTSPNoRescue(t *testing.T) {
	f := func(ops []uint16, crashAt uint8) bool {
		if len(ops) == 0 {
			return true
		}
		crashStep := int(crashAt)%(len(ops)+1) + 1
		dev, res := runCrashScript(t, ModeNonTSP, ops, crashStep, 0) // NO rescue
		return checkAgainstModel(t, dev, res.model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCrashRecoveryMatchesModelNonTSPPartialRescue(t *testing.T) {
	// Non-TSP mode must tolerate ANY rescue fraction: its durability
	// discipline never depends on the rescue.
	f := func(ops []uint16, crashAt uint8, frac uint8) bool {
		if len(ops) == 0 {
			return true
		}
		crashStep := int(crashAt)%(len(ops)+1) + 1
		rescue := float64(frac%101) / 100
		dev, res := runCrashScript(t, ModeNonTSP, ops, crashStep, rescue)
		return checkAgainstModel(t, dev, res.model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLogEveryStoreRecoversIdentically(t *testing.T) {
	// The first-store filter is a pure optimization: with it disabled
	// (an undo record per store), recovery must restore the same state.
	f := func(ops []uint16, crashAt uint8) bool {
		if len(ops) == 0 {
			return true
		}
		crashStep := int(crashAt)%(len(ops)+1) + 1
		dev := nvm.NewDevice(nvm.Config{Words: 1 << 16})
		heap, _ := pheap.Format(dev)
		rt, err := New(heap, ModeTSP, Options{MaxThreads: 1, LogEntries: 1024, LogEveryStore: true})
		if err != nil {
			return false
		}
		region, _ := heap.Alloc(modelWords)
		heap.SetRoot(region)
		dev.FlushAll()
		th, _ := rt.NewThread()
		m := rt.NewMutex()

		var model, pending [modelWords]uint64
		step := 0
		crashed := false
		for i := 0; i < len(ops) && !crashed; i += 3 {
			th.Lock(m)
			pending = model
			for s := 0; s < int(ops[i]%3)+1; s++ {
				var op uint16
				if i+s < len(ops) {
					op = ops[i+s]
				}
				addr := int(op % modelWords)
				// Store the SAME address twice to exercise duplicate
				// undo records.
				th.Store(region.Addr()+nvm.Addr(addr), uint64(op))
				th.Store(region.Addr()+nvm.Addr(addr), uint64(op)+1)
				pending[addr] = uint64(op) + 1
				step++
				if step >= crashStep {
					dev.CrashRescue()
					crashed = true
					break
				}
			}
			if crashed {
				break
			}
			th.Unlock(m)
			model = pending
		}
		if !crashed {
			dev.CrashRescue()
		}
		dev.Restart()
		return checkAgainstModel(t, dev, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickChecksumRejectsTampering: flipping any single stored word of
// a valid record must invalidate it.
func TestQuickChecksumRejectsTampering(t *testing.T) {
	f := func(seq, a, v uint64, kindBits, word, bit uint8) bool {
		e := entry{
			kind:    entryKind(kindBits%3) + entryStore,
			seq:     seq % (1 << 40),
			a:       a,
			v:       v,
			opening: kindBits%2 == 0,
		}
		dev := nvm.NewDevice(nvm.Config{Words: 64})
		tal := dev.Tally()
		writeEntry(&tal, 0, e, 3, 7)
		if _, ok := readEntry(&tal, 0, 3, 7); !ok {
			return false // must validate untampered
		}
		// Tamper with one bit of one word.
		w := nvm.Addr(word % entryWords)
		dev.Store(w, dev.Load(w)^(1<<(bit%64)))
		_, ok := readEntry(&tal, 0, 3, 7)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEntryRejectedInWrongRingOrEpoch: a record read with the wrong
// thread id or epoch must not validate.
func TestQuickEntryRejectedInWrongRingOrEpoch(t *testing.T) {
	f := func(seq, a, v uint64, thread, epoch uint8) bool {
		e := entry{kind: entryStore, seq: seq % (1 << 40), a: a, v: v}
		tal := nvm.NewDevice(nvm.Config{Words: 64}).Tally()
		writeEntry(&tal, 0, e, uint64(thread), uint64(epoch))
		if _, ok := readEntry(&tal, 0, uint64(thread), uint64(epoch)); !ok {
			return false
		}
		if _, ok := readEntry(&tal, 0, uint64(thread)+1, uint64(epoch)); ok {
			return false
		}
		if _, ok := readEntry(&tal, 0, uint64(thread), uint64(epoch)+1); ok {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
