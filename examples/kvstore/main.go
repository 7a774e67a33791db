// kvstore: the Section 4.2 case study end to end — a mutex-based
// key-value store fortified by the Atlas runtime, crashed in the middle
// of a multi-store critical section, and recovered by rollback.
//
// The store's entries carry an integrity word (check = hash(key,value));
// an update writes value then check, so a crash between the two leaves a
// *detectably* corrupt entry unless the enclosing outermost critical
// section is rolled back. The demo runs the same torn update three ways:
//
//  1. unfortified (ModeOff) + TSP rescue  -> recovery observes corruption;
//
//  2. Atlas TSP mode (log only) + rescue  -> rollback, consistent;
//
//  3. Atlas non-TSP (log+flush) + NO rescue -> rollback from the
//     synchronously flushed log, consistent even though the cache died.
//
// The storage stack (device, heap, runtime, map) is assembled and
// recovered by internal/stack; this file only drives the workload.
//
//	go run ./examples/kvstore
package main

import (
	"errors"
	"fmt"
	"log"

	"tsp/internal/atlas"
	"tsp/internal/hashmap"
	"tsp/internal/nvm"
	"tsp/internal/stack"
)

func main() {
	scenarios := []struct {
		name   string
		mode   atlas.Mode
		rescue float64
	}{
		{"unfortified + TSP rescue", atlas.ModeOff, 1},
		{"Atlas TSP mode (log only) + TSP rescue", atlas.ModeTSP, 1},
		{"Atlas non-TSP (log+flush) + NO rescue", atlas.ModeNonTSP, 0},
	}
	for _, sc := range scenarios {
		fmt.Printf("== %s ==\n", sc.name)
		runScenario(sc.mode, sc.rescue)
		fmt.Println()
	}
}

func runScenario(mode atlas.Mode, rescue float64) {
	st, err := stack.New(
		stack.WithDeviceWords(1<<20),
		stack.WithMode(mode),
		stack.WithMaxThreads(4),
		stack.WithBuckets(1024, 128),
	)
	if err != nil {
		log.Fatalf("stack: %v", err)
	}

	th, err := st.RT.NewThread()
	if err != nil {
		log.Fatalf("thread: %v", err)
	}
	// Committed state: account balances.
	for k := uint64(1); k <= 10; k++ {
		if err := st.Map.Put(th, k, 1000); err != nil {
			log.Fatalf("put: %v", err)
		}
	}

	// A transfer begins: the OCS updates two accounts but the crash
	// lands after the first value store, before its integrity word.
	// (TornUpdate is a test hook exposed by the map precisely to let
	// fault-injection land between the two stores.)
	st.Map.TornUpdate(th, 3, 250)
	fmt.Println("  crash lands mid-critical-section (value written, check word not)")

	// Crash, restart, and bring a new incarnation up through the
	// standard recovery path (heap reopen, Atlas rollback, map attach),
	// which verifies the map's integrity words.
	st.Dev.StopEvictor()
	st2, err := st.CrashReattach(nvm.CrashOptions{RescueFraction: rescue, Seed: 7})
	if errors.Is(err, hashmap.ErrCorrupt) {
		fmt.Printf("  VERDICT: map corrupt, as expected without Atlas: %v\n", err)
		return
	}
	if err != nil {
		log.Fatalf("recover: %v", err)
	}
	fmt.Printf("  recovery: %s\n", st2.Recovery)
	th2, _ := st2.RT.NewThread()
	v, _, _ := st2.Map.Get(th2, 3)
	fmt.Printf("  VERDICT: map consistent; account 3 = %d (torn update rolled back)\n", v)
}
