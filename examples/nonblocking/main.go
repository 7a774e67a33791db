// nonblocking: the Section 4.1 case study — a lock-free skip list that
// gains crash resilience from Timely Sufficient Persistence alone, with
// zero added code and zero runtime overhead.
//
// Eight goroutines hammer the list; the machine crashes at an arbitrary
// instant with a TSP rescue; a fresh incarnation traverses from the heap
// root and finds a structurally valid, consistent map. The demo also
// persists the post-crash image to a real file and reloads it, so the
// recovery truly spans a (simulated) process lifetime.
//
//	go run ./examples/nonblocking
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tsp/internal/famsync"
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
	list, err := skiplist.New(heap, 16)
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

	// Persist the durable image to a real file and reload it into a
	// brand-new device: recovery across an actual process boundary.
	path := filepath.Join(os.TempDir(), "tsp-nonblocking-demo.snap")
	saved, err := famsync.Create(dev, path)
	if err == nil {
		err = saved.Close()
	}
	if err != nil {
		log.Fatalf("save: %v", err)
	}
	defer os.Remove(path)
	dev2 := nvm.NewDevice(nvm.Config{Words: 1 << 20})
	loaded, err := famsync.OpenFile(dev2, path)
	if err != nil {
		log.Fatalf("load: %v", err)
	}
	loaded.Close()
	fmt.Printf("durable image saved to and reloaded from %s\n", path)

	// The recovery observer: open the heap, attach to the list via the
	// root, verify structure, count everything.
	heap2, err := pheap.Open(dev2)
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
