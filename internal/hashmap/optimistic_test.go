package hashmap

import (
	"sync"
	"testing"

	"tsp/internal/atlas"
	"tsp/internal/telemetry"
)

func TestGetOptimisticBasic(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 64, 8)
	tel := &telemetry.MapStats{}
	e.m.SetTelemetry(tel)
	th := e.thread(t)
	for k := uint64(0); k < 50; k++ {
		if err := e.m.Put(th, k, k*7); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for k := uint64(0); k < 50; k++ {
		v, ok, valid := e.m.GetOptimistic(k)
		if !valid || !ok || v != k*7 {
			t.Fatalf("GetOptimistic(%d) = %d,%v,%v", k, v, ok, valid)
		}
	}
	if _, ok, valid := e.m.GetOptimistic(999); !valid || ok {
		t.Fatalf("GetOptimistic(miss): ok=%v valid=%v, want validated miss", ok, valid)
	}
	if got := tel.OptGets.Load(); got != 51 {
		t.Fatalf("OptGets = %d, want 51", got)
	}
	if got := tel.OptFallbacks.Load(); got != 0 {
		t.Fatalf("OptFallbacks = %d on a quiescent map", got)
	}
}

// TestSectionBracketAtomicToOptimisticReaders pins the *Locked seqlock
// contract: the section owner's BeginStripeWrites/EndStripeWrites hold
// the stripe odd across EVERY mutation of the section, and the *Locked
// variants themselves never bump. The failure mode this closes is the
// quiet window: if each PutLocked bracketed itself, the stripe would
// read even between two writes of one mset, and an optimistic reader
// validating there would see the first write without the second.
func TestSectionBracketAtomicToOptimisticReaders(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 8, 8) // one stripe covers both keys
	th := e.thread(t)
	const k1, k2 = 1, 2
	if err := e.m.Put(th, k1, 10); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := e.m.Put(th, k2, 20); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st := e.m.StripeOf(k1)
	if got := e.m.StripeOf(k2); got != st {
		t.Fatalf("keys on different stripes (%d, %d); the env should have one", st, got)
	}
	start := e.m.StripeVersion(st)
	if start%2 != 0 {
		t.Fatalf("quiescent stripe version %d is odd", start)
	}

	mu := e.m.StripeMutex(st)
	th.Lock(mu)
	e.m.BeginStripeWrites(st)
	if err := e.m.PutLocked(th, k1, 11); err != nil {
		t.Fatalf("PutLocked: %v", err)
	}
	// The instant between the section's two writes — exactly where a
	// self-bracketing PutLocked would have left the stripe readable.
	if _, _, valid := e.m.GetOptimistic(k2); valid {
		t.Fatal("optimistic read validated mid-section")
	}
	if v := e.m.StripeVersion(st); v%2 == 0 {
		t.Fatalf("stripe version %d even mid-section", v)
	}
	if err := e.m.PutLocked(th, k2, 21); err != nil {
		t.Fatalf("PutLocked: %v", err)
	}
	e.m.EndStripeWrites(st)
	th.Unlock(mu)

	// One bracket for the whole section: exactly one odd/even cycle, not
	// one per mutation.
	if got := e.m.StripeVersion(st); got != start+2 {
		t.Fatalf("stripe version advanced %d->%d across one section, want +2", start, got)
	}
	for k, want := range map[uint64]uint64{k1: 11, k2: 21} {
		v, ok, valid := e.m.GetOptimistic(k)
		if !valid || !ok || v != want {
			t.Fatalf("GetOptimistic(%d) = %d,%v,%v after section, want %d", k, v, ok, valid, want)
		}
	}
}

// TestOptimisticMonotonicSingleWriter is the torn/stale-read property
// test: with one writer incrementing a counter key, every validated
// optimistic read is linearizable inside its snapshot window, so a
// single reader's successive validated reads must be non-decreasing. A
// torn or stale read (seeing the value regress, or a value that was
// never stored) fails the property.
func TestOptimisticMonotonicSingleWriter(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 8, 8) // one stripe: every read collides with the writer
	th := e.thread(t)
	const key = 7
	if err := e.m.Put(th, key, 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			if _, err := e.m.Inc(th, key, 1); err != nil {
				t.Errorf("Inc: %v", err)
				return
			}
		}
	}()
	var last uint64
	validated := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v, ok, valid := e.m.GetOptimistic(key)
		if !valid {
			continue
		}
		if !ok {
			t.Fatal("GetOptimistic: counter key vanished")
		}
		if v < last {
			t.Fatalf("non-monotonic optimistic read: %d after %d", v, last)
		}
		last = v
		validated++
	}
	if v, ok, valid := e.m.GetOptimistic(key); !valid || !ok || v != 3000 {
		t.Fatalf("final GetOptimistic = %d,%v,%v, want 3000", v, ok, valid)
	}
	t.Logf("validated %d optimistic reads against the writer", validated)
}

// TestOptimisticUnderChurn hammers one stripe with inserting/deleting
// writers while readers run lock-free. Two properties: a never-deleted
// key always reads its fixed value when validated (an unlink race that
// slipped past validation would break it), and any validated hit on a
// churn key sees exactly the value its writers store (never a torn or
// recycled word).
func TestOptimisticUnderChurn(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 8, 8) // one stripe: maximum collision
	tel := &telemetry.MapStats{}
	e.m.SetTelemetry(tel)
	const (
		stable    = uint64(1000)
		stableVal = uint64(424242)
		churnKeys = 32
		writers   = 3
		readers   = 3
		writerOps = 1500
	)
	setup := e.thread(t)
	if err := e.m.Put(setup, stable, stableVal); err != nil {
		t.Fatalf("Put: %v", err)
	}
	wths := make([]*atlas.Thread, writers)
	for i := range wths {
		wths[i] = e.thread(t)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int, th *atlas.Thread) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < writerOps; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := rng % churnKeys
				if rng&(1<<40) != 0 {
					if err := e.m.Put(th, k, k*31+7); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				} else {
					if _, err := e.m.Delete(th, k); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(w, wths[w])
	}
	go func() { wg.Wait(); close(done) }()

	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			k := uint64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				if v, ok, valid := e.m.GetOptimistic(stable); valid && (!ok || v != stableVal) {
					t.Errorf("stable key read %d,%v, want %d,true", v, ok, stableVal)
					return
				}
				k = (k + 1) % churnKeys
				if v, ok, valid := e.m.GetOptimistic(k); valid && ok && v != k*31+7 {
					t.Errorf("churn key %d read %d, want %d", k, v, k*31+7)
					return
				}
			}
		}()
	}
	rwg.Wait()
	if _, err := e.m.Verify(); err != nil {
		t.Fatalf("Verify after churn: %v", err)
	}
	t.Logf("opt_gets=%d opt_retries=%d opt_fallbacks=%d",
		tel.OptGets.Load(), tel.OptRetries.Load(), tel.OptFallbacks.Load())
}

// TestOptimisticBoundedUnderWriter pins a writer inside the stripe's
// critical section (TornUpdate: seq left odd, mutex held) and checks
// the reader gives up after exactly optimisticAttempts snapshots — the
// bounded-retry contract — while other stripes stay readable.
func TestOptimisticBoundedUnderWriter(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 64, 8) // 8 stripes
	tel := &telemetry.MapStats{}
	e.m.SetTelemetry(tel)
	th := e.thread(t)
	hot := uint64(1)
	var cold uint64
	for k := uint64(2); ; k++ {
		if e.m.StripeOf(k) != e.m.StripeOf(hot) {
			cold = k
			break
		}
	}
	if err := e.m.Put(th, hot, 5); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := e.m.Put(th, cold, 6); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A second thread tears the hot stripe open and never closes it.
	torn := e.thread(t)
	if err := e.m.TornUpdate(torn, hot, 99); err != nil {
		t.Fatalf("TornUpdate: %v", err)
	}
	if _, _, valid := e.m.GetOptimistic(hot); valid {
		t.Fatal("GetOptimistic validated under an in-flight writer")
	}
	if got := tel.OptRetries.Load(); got != optimisticAttempts {
		t.Fatalf("OptRetries = %d, want %d (bounded)", got, optimisticAttempts)
	}
	if got := tel.OptFallbacks.Load(); got != 1 {
		t.Fatalf("OptFallbacks = %d, want 1", got)
	}
	// Stripes without an in-flight writer are unaffected.
	if v, ok, valid := e.m.GetOptimistic(cold); !valid || !ok || v != 6 {
		t.Fatalf("cold-stripe GetOptimistic = %d,%v,%v", v, ok, valid)
	}
}

// TestOptimisticSeqsRebuiltOnOpen: the sequence counters live in
// volatile Go memory, so a reattach (what recovery does) starts every
// stripe quiescent even if the crash caught a writer mid-section.
func TestOptimisticSeqsRebuiltOnOpen(t *testing.T) {
	e := newEnv(t, atlas.ModeTSP, 8, 8)
	th := e.thread(t)
	if err := e.m.Put(th, 1, 11); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := e.m.Put(th, 2, 22); err != nil {
		t.Fatalf("Put: %v", err)
	}
	torn := e.thread(t)
	if err := e.m.TornUpdate(torn, 1, 99); err != nil {
		t.Fatalf("TornUpdate: %v", err)
	}
	if _, _, valid := e.m.GetOptimistic(2); valid {
		t.Fatal("old handle validated while its stripe is torn open")
	}
	m2, err := Open(e.rt, e.m.Ptr())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if v, ok, valid := m2.GetOptimistic(2); !valid || !ok || v != 22 {
		t.Fatalf("fresh handle GetOptimistic(2) = %d,%v,%v, want 22", v, ok, valid)
	}
}
