package pheap

import "fmt"

// CheckReport counts a heap's blocks.
type CheckReport struct {
	AllocatedBlocks int
	FreeBlocks      int
}

// String renders the report for logs.
func (r CheckReport) String() string {
	return fmt.Sprintf("heap{alloc=%d blocks, free=%d blocks}", r.AllocatedBlocks, r.FreeBlocks)
}

// Check walks the entire block chain and validates structural invariants:
// blocks tile [heapStart, bump) exactly, every size is plausible, and the
// bump pointer is in range. It returns a report on success.
func (h *Heap) Check() (CheckReport, error) {
	var rep CheckReport
	err := h.Blocks(func(_ Ptr, _ int, allocated bool) bool {
		if allocated {
			rep.AllocatedBlocks++
		} else {
			rep.FreeBlocks++
		}
		return true
	})
	return rep, err
}

// Blocks iterates over every block in the chain in address order, calling
// fn with the payload pointer, payload capacity in words, and whether the
// block is allocated. Iteration stops early if fn returns false. The
// allocator lock is held for the duration; fn must not allocate or free.
func (h *Heap) Blocks(fn func(p Ptr, payloadWords int, allocated bool) bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	tal := h.dev.Tally()
	defer tal.Publish()
	m, err := h.walkChain(&tal, false)
	if err != nil {
		return err
	}
	for p := uint64(heapStart + 1); p < m.end; p = m.starts.next(p + 1) {
		if !fn(Ptr(p), int(m.total(p))-1, m.alloc.has(p)) {
			break
		}
	}
	return nil
}
