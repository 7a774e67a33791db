package main

import (
	"fmt"
	"math/rand"
	"sync"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
	"tsp/internal/stack"
)

// The multi-engine campaign crashes the map and the skip list sharing
// one heap while writers are hot on both, so the crash window holds
// skip-list CASes (durable as they land) between Atlas sections
// (durable at commit); one rescued image must recover the map's
// rollback and the list's as-is semantics. stack.Reattach verifies the
// map, the campaign verifies the list, and every key must hold a value
// in [acked, issued].

// meSlots is the per-writer key-slot count; small enough that every
// slot sees many overwrites inside a run's crash window.
const meSlots = 16

// runSharedHeap runs the campaign n times.
func runSharedHeap(n, threads int, seed int64) bool {
	return report("multi-engine root (map+list) + TSP rescue", n, func(i int) error {
		return multiEngineOnce(threads, seed+int64(i)*7919)
	})
}

// multiEngineOnce builds a stack, hammers both engines from threads
// writer pairs, crashes after a seeded number of device stores with a
// full TSP rescue, and checks recovery.
func multiEngineOnce(threads int, seed int64) error {
	stk, err := stack.New(
		stack.WithDeviceWords(1<<20),
		stack.WithMaxThreads(threads+1),
	)
	if err != nil {
		return err
	}
	dev := stk.Dev

	// Writer g puts to the map when even and to the list when odd, each
	// on its own slots, the engines' keys in distinct halves of the
	// keyspace.
	hists := make([][]keyHist, 2*threads)
	for g := range hists {
		hists[g] = make([]keyHist, meSlots)
		for i := range hists[g] {
			hists[g][i].key = 1<<(61+g%2) | uint64(g/2)<<32 | uint64(i)
		}
	}

	// put runs one writer until the crash. A put is acked only if the
	// machine was alive when it returned: the device drops a store racing
	// the crash, and acking it would be the Go runtime outliving the
	// simulation.
	var wg sync.WaitGroup
	put := func(slots []keyHist, seed int64, put func(k, v uint64) error) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for !dev.Crashed() {
			h := &slots[rng.Intn(meSlots)]
			v := h.floor + 1
			h.issue(v)
			if put(h.key, v) != nil || dev.Crashed() {
				return
			}
			h.ack(v, 0)
		}
	}
	ths := make([]*atlas.Thread, threads)
	for w := range ths {
		if ths[w], err = stk.RT.NewThread(); err != nil {
			return err
		}
	}
	// The crash fires inside whichever writer issues the seeded store, so
	// it lands among the writers' stores however the host schedules them.
	crash := nvm.CrashOptions{RescueFraction: 1, Seed: seed}
	dev.ArmCrashAfter(uint64(2_000+rand.New(rand.NewSource(seed)).Intn(48_000)), crash)
	for w, th := range ths {
		wg.Add(2)
		go put(hists[2*w], seed+int64(w)*2, func(k, v uint64) error { return stk.Map.Put(th, k, v) })
		go put(hists[2*w+1], seed+int64(w)*2+1, func(k, v uint64) error {
			_, err := stk.List.Put(k, v)
			return err
		})
	}

	wg.Wait()
	// Writers that all failed before the countdown ran out leave the
	// crash to this call; after the armed crash it does nothing.
	dev.Crash(crash)

	dev.Restart()
	ns, err := stack.Reattach(dev, stack.WithMaxThreads(threads+1))
	if err != nil {
		return fmt.Errorf("reattach: %w", err)
	}
	if _, err := ns.List.Verify(); err != nil {
		return fmt.Errorf("list verify: %w", err)
	}
	th, err := ns.RT.NewThread()
	if err != nil {
		return err
	}
	for g := range hists {
		for i := range hists[g] {
			h := &hists[g][i]
			got, _ := ns.List.Get(h.key)
			if g%2 == 0 {
				got, _, err = ns.Map.Get(th, h.key)
			}
			if err == nil {
				err = h.check(got, 0)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
