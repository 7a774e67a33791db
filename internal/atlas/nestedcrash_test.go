package atlas

import (
	"testing"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// Nested-crash testing: the machine dies AGAIN in the middle of
// recovery, repeatedly, at every possible store offset — and recovery
// must remain restartable: however many times it is cut short, a final
// uninterrupted run must produce exactly the state a single clean
// recovery would have.
func TestRecoveryRestartableUnderNestedCrashes(t *testing.T) {
	// Build the reference outcome once: a clean recovery.
	build := func() *nvm.Device {
		dev := nvm.NewDevice(nvm.Config{Words: 1 << 16})
		heap, err := pheap.Format(dev)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(heap, ModeTSP, Options{MaxThreads: 1, LogEntries: 256})
		if err != nil {
			t.Fatal(err)
		}
		region, err := heap.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		heap.SetRoot(region)
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		m := rt.NewMutex()
		// Committed history...
		for i := uint64(1); i <= 10; i++ {
			th.Lock(m)
			th.Store(region.Addr()+nvm.Addr(i%8), i)
			th.Unlock(m)
		}
		// ...and an in-flight OCS touching several words.
		th.Lock(m)
		for w := nvm.Addr(0); w < 4; w++ {
			th.Store(region.Addr()+w, 9999)
		}
		dev.CrashRescue()
		dev.Restart()
		return dev
	}

	reference := build()
	refHeap, err := pheap.Open(reference)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(refHeap); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 8)
	for w := 0; w < 8; w++ {
		want[w] = refHeap.Load(refHeap.Root(), w)
	}

	// Now re-run recovery with a crash armed at every store offset up to
	// well past recovery's total store count, nesting up to three deep.
	for offset := uint64(0); offset < 60; offset += 7 {
		dev := build()
		crashes := 0
		for attempt := 0; attempt < 10; attempt++ {
			heap, err := pheap.Open(dev)
			if err != nil {
				t.Fatalf("offset %d attempt %d: Open: %v", offset, attempt, err)
			}
			if crashes < 3 {
				dev.ArmCrashAfter(offset+uint64(attempt)*11, nvm.CrashOptions{RescueFraction: 1})
			}
			_, err = Recover(heap)
			if err != nil {
				t.Fatalf("offset %d attempt %d: Recover: %v", offset, attempt, err)
			}
			if !dev.Crashed() {
				// Recovery ran to completion; verify against the
				// reference.
				for w := 0; w < 8; w++ {
					if got := heap.Load(heap.Root(), w); got != want[w] {
						t.Fatalf("offset %d: word %d = %d, want %d (after %d nested crashes)",
							offset, w, got, want[w], crashes)
					}
				}
				break
			}
			crashes++
			dev.Restart()
		}
		if dev.Crashed() {
			t.Fatalf("offset %d: recovery never completed", offset)
		}
	}
}

// TestRecoveryRestartableUnderNoRescueNestedCrash covers the same
// property when the nested crash rescues nothing: recovery's own writes
// vanish, but the logs (still untruncated) drive an identical replay.
func TestRecoveryRestartableUnderNoRescueNestedCrash(t *testing.T) {
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 16})
	heap, err := pheap.Format(dev)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(heap, ModeNonTSP, Options{MaxThreads: 1, LogEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	region, err := heap.Alloc(4)
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
	th.Lock(m)
	th.Store(region.Addr(), 42)
	th.Unlock(m) // committed, durable via commit flush
	th.Lock(m)
	th.Store(region.Addr(), 777) // in-flight
	dev.CrashDrop()
	dev.Restart()

	// First recovery attempt dies (no rescue) after a handful of stores.
	heap1, err := pheap.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	dev.ArmCrashAfter(0, nvm.CrashOptions{RescueFraction: 0})
	if _, err := Recover(heap1); err != nil {
		t.Fatal(err)
	}
	if !dev.Crashed() {
		t.Skip("recovery finished before the armed crash; store count shifted")
	}
	dev.Restart()

	// Second attempt runs clean and must land on the committed value.
	heap2, err := pheap.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(heap2); err != nil {
		t.Fatalf("re-recovery: %v", err)
	}
	if got := heap2.Load(heap2.Root(), 0); got != 42 {
		t.Fatalf("value = %d, want committed 42", got)
	}
}

// TestRestartAfterCrashInsideRecovery pins what a second crash leaves
// for Restart. Recovery's own undo stores and flushes are cut short at
// every offset, with all, some or none of its dirty lines rescued;
// Restart reverts only the lines still dirty, and must leave the
// volatile image equal to the persisted one word for word. The next
// recovery then runs clean and lands on the committed state.
func TestRestartAfterCrashInsideRecovery(t *testing.T) {
	for _, frac := range []float64{0, 0.3, 1} {
		for offset := uint64(0); offset < 12; offset++ {
			dev := nvm.NewDevice(nvm.Config{Words: 1 << 14})
			heap, err := pheap.Format(dev)
			if err != nil {
				t.Fatal(err)
			}
			// Non-TSP mode: commit flushes make recovery sound whatever
			// the crash rescues.
			rt, err := New(heap, ModeNonTSP, Options{MaxThreads: 1, LogEntries: 64})
			if err != nil {
				t.Fatal(err)
			}
			region, err := heap.Alloc(16)
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
			th.Lock(m)
			for w := nvm.Addr(0); w < 16; w++ {
				th.Store(region.Addr()+w, 42)
			}
			th.Unlock(m) // committed
			th.Lock(m)
			for w := nvm.Addr(0); w < 16; w++ {
				th.Store(region.Addr()+w, 777) // in flight
			}
			dev.Crash(nvm.CrashOptions{RescueFraction: frac, Seed: int64(offset)})
			dev.Restart()

			heap1, err := pheap.Open(dev)
			if err != nil {
				t.Fatal(err)
			}
			dev.ArmCrashAfter(offset, nvm.CrashOptions{RescueFraction: frac, Seed: int64(offset) + 100})
			if _, err := Recover(heap1); err != nil {
				t.Fatal(err)
			}
			if !dev.Crashed() {
				t.Fatalf("rescue %v offset %d: recovery finished before the armed crash", frac, offset)
			}
			dev.Restart()
			for a := nvm.Addr(0); a < nvm.Addr(dev.Words()); a++ {
				if v, p := dev.Load(a), dev.Persisted(a); v != p {
					t.Fatalf("rescue %v offset %d: after the second Restart word %d is %d volatile, %d persisted", frac, offset, a, v, p)
				}
			}
			if n := dev.DirtyLines(); n != 0 {
				t.Fatalf("rescue %v offset %d: %d dirty lines after Restart", frac, offset, n)
			}

			heap2, err := pheap.Open(dev)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(heap2); err != nil {
				t.Fatalf("rescue %v offset %d: re-recovery: %v", frac, offset, err)
			}
			for w := 0; w < 16; w++ {
				if got := heap2.Load(heap2.Root(), w); got != 42 {
					t.Fatalf("rescue %v offset %d: word %d = %d, want committed 42", frac, offset, w, got)
				}
			}
		}
	}
}
