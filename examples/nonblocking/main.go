// nonblocking: the Section 4.1 case study — a lock-free skip list that
// gains crash resilience from Timely Sufficient Persistence alone, with
// zero added code and zero runtime overhead.
//
// Eight goroutines hammer the list; the machine crashes at an arbitrary
// instant with a TSP rescue; a fresh incarnation traverses from the heap
// root and finds a structurally valid, consistent map.
//
//	go run ./examples/nonblocking
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/skiplist"
)

func main() {
	dev := nvm.NewDevice(nvm.Config{Words: 1 << 20})
	heap, err := pheap.Format(dev)
	if err != nil {
		log.Fatalf("format: %v", err)
	}
	list, err := skiplist.New(heap, skiplist.DefaultLevels)
	if err != nil {
		log.Fatalf("skiplist: %v", err)
	}
	heap.SetRoot(list.Ptr())
	dev.FlushAll()

	// Eight workers insert and increment concurrently. Note there is no
	// logging, no flushing, no transactional machinery anywhere below.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(g*100000 + i%5000)
				if _, err := list.Inc(k, 1); err != nil {
					if errors.Is(err, skiplist.ErrCrashed) {
						return // this thread just "died" in the crash
					}
					log.Fatalf("inc: %v", err)
				}
			}
		}(g)
	}

	// Let the workload run hot, then pull the plug mid-flight.
	time.Sleep(50 * time.Millisecond)
	dev.CrashRescue()
	close(stop)
	wg.Wait()
	fmt.Println("crashed mid-workload with a TSP rescue (no flushes were ever issued)")

	// The recovery observer, in a new incarnation that sees only the
	// durable image: open the heap, attach to the list via the root,
	// verify structure, count everything.
	dev.Restart()
	heap2, err := pheap.Open(dev)
	if err != nil {
		log.Fatalf("reopen: %v", err)
	}
	list2, err := skiplist.Open(heap2, heap2.Root())
	if err != nil {
		log.Fatalf("skiplist reopen: %v", err)
	}
	rep, err := list2.Verify()
	if err != nil {
		log.Fatalf("VERIFY FAILED (this should be impossible under TSP): %v", err)
	}
	var totalIncs uint64
	list2.Range(func(_, v uint64) bool { totalIncs += v; return true })
	fmt.Printf("recovered list verifies clean: %s\n", rep)
	fmt.Printf("total increments preserved: %d across %d keys\n", totalIncs, list2.Len())

	// Recovery-time GC reclaims nodes whose insertion never linked.
	gcRep, err := heap2.GC()
	if err != nil {
		log.Fatalf("gc: %v", err)
	}
	fmt.Printf("recovery GC: %d stranded block(s) reclaimed\n", gcRep.BlocksFreed)
}
