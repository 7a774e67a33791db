package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tsp/internal/nvm"
	"tsp/internal/stack"
)

// The multi-engine campaign crashes the FULL storage stack — the
// fortified hash map and the lock-free skip list sharing one heap under
// the multi-engine root — while writers are hot on both engines at
// once, then reattaches through stack.Reattach, whose recovery verifies
// the map, and verifies the list. It exercises what the per-structure campaigns cannot: the
// crash window where a skip-list CAS (durable the instant it lands)
// interleaves with an Atlas critical section (durable at OCS commit),
// and recovery must deliver the map's rollback semantics and the list's
// as-is semantics from the same rescued device image.

// meResult is one multi-engine run's outcome.
type meResult struct {
	consistent bool
	err        error
}

// meSlots is the per-writer key-slot count; small enough that every
// slot sees many overwrites inside a run's crash window.
const meSlots = 16

// slotState tracks one key's write progress: the last value the writer
// issued (handed to Put) and the last it saw acknowledged (Put
// returned). After recovery the durable value must lie in
// [acked, issued] — below acked the durability point was violated,
// above issued the value was invented.
type slotState struct {
	key           uint64
	issued, acked uint64
}

// checkSlot verifies one slot's recovered value against its bound.
// Absent is legal only while nothing was ever acknowledged.
func checkSlot(st *slotState, got uint64, found bool) error {
	if !found {
		if st.acked > 0 {
			return fmt.Errorf("key %#x: acked value %d lost", st.key, st.acked)
		}
		return nil
	}
	if got < st.acked || got > st.issued {
		return fmt.Errorf("key %#x: recovered %d outside [acked %d, issued %d]",
			st.key, got, st.acked, st.issued)
	}
	return nil
}

// runMultiEngineOnce builds a stack, hammers both engines from threads
// writer pairs, crashes at a random instant with a full TSP rescue, and
// verifies recovery.
func runMultiEngineOnce(threads int, seed int64) meResult {
	stk, err := stack.New(
		stack.WithDeviceWords(1<<20),
		stack.WithMaxThreads(threads+1),
	)
	if err != nil {
		return meResult{err: err}
	}
	dev := stk.Dev
	dev.StartEvictor()

	// One map writer and one list writer per thread, each owning a
	// disjoint slot set. List keys and map keys live in distinct halves
	// of the keyspace so the check is unambiguous.
	mapSlots := make([][]slotState, threads)
	listSlots := make([][]slotState, threads)
	for w := 0; w < threads; w++ {
		mapSlots[w] = make([]slotState, meSlots)
		listSlots[w] = make([]slotState, meSlots)
		for i := range mapSlots[w] {
			mapSlots[w][i].key = 1<<61 | uint64(w)<<32 | uint64(i)
			listSlots[w][i].key = 1<<62 | uint64(w)<<32 | uint64(i)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		th, err := stk.RT.NewThread()
		if err != nil {
			dev.StopEvictor()
			return meResult{err: err}
		}
		wg.Add(2)
		go func(w int) { // map writer
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*2))
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := &mapSlots[w][rng.Intn(meSlots)]
				st.issued++
				if err := stk.Map.Put(th, st.key, st.issued); err != nil {
					return
				}
				// Ack only if the machine was still alive when the op
				// returned: a store racing the crash instant is dropped by
				// the device (the simulated thread was already killed), and
				// this goroutine acking it afterwards would be the Go
				// runtime outliving the simulation. Observing Crashed()
				// false orders the store before the rescue flush.
				if dev.Crashed() {
					return
				}
				st.acked = st.issued
			}
		}(w)
		go func(w int) { // list writer
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*2 + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := &listSlots[w][rng.Intn(meSlots)]
				st.issued++
				if _, err := stk.List.Put(st.key, st.issued); err != nil {
					return
				}
				if dev.Crashed() { // same ack rule as the map writer
					return
				}
				st.acked = st.issued
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(seed))
	time.Sleep(2*time.Millisecond + time.Duration(rng.Int63n(int64(18*time.Millisecond))))
	dev.StopEvictor()
	dev.Crash(nvm.CrashOptions{RescueFraction: 1, Seed: seed})
	close(stop)
	wg.Wait()

	dev.Restart()
	ns, err := stack.Reattach(dev, stack.WithMaxThreads(threads+1))
	if err != nil {
		return meResult{err: fmt.Errorf("reattach: %w", err)}
	}
	if _, err := ns.List.Verify(); err != nil {
		return meResult{err: fmt.Errorf("list verify: %w", err)}
	}
	th, err := ns.RT.NewThread()
	if err != nil {
		return meResult{err: err}
	}
	for w := 0; w < threads; w++ {
		for i := range mapSlots[w] {
			st := &mapSlots[w][i]
			got, found, err := ns.Map.Get(th, st.key)
			if err != nil {
				return meResult{err: err}
			}
			if err := checkSlot(st, got, found); err != nil {
				return meResult{err: fmt.Errorf("map %v", err)}
			}
		}
		for i := range listSlots[w] {
			st := &listSlots[w][i]
			got, found := ns.List.Get(st.key)
			if err := checkSlot(st, got, found); err != nil {
				return meResult{err: fmt.Errorf("list %v", err)}
			}
		}
	}
	return meResult{consistent: true}
}

// runMultiEngine runs the campaign n times and reports it in the
// scenario table's format. Returns false if any run was inconsistent.
func runMultiEngine(n, threads int, seed int64) bool {
	consistent := 0
	var firstErr error
	for i := 0; i < n; i++ {
		res := runMultiEngineOnce(threads, seed+int64(i)*7919)
		if res.consistent {
			consistent++
		} else if firstErr == nil {
			firstErr = res.err
		}
	}
	campTel.Record(n, consistent)
	campTel.Crashes.Add(uint64(n))
	status := "OK"
	if consistent != n {
		status = "FAILED"
	}
	fmt.Printf("%-55s %3d/%3d consistent  %s\n", "multi-engine root (map+list) + TSP rescue", consistent, n, status)
	if firstErr != nil {
		fmt.Printf("    failure: %v\n", firstErr)
	}
	return consistent == n
}
