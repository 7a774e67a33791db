// Package pheap implements a persistent heap on top of a simulated NVM
// device, following the programming model of the paper's case studies:
// durable data lives in a heap obtained through a malloc-like interface,
// "pointers" are stable word offsets into the heap (so a new process
// incarnation resolves them unchanged — the moral equivalent of mapping
// the backing file at a fixed virtual address), and all live data must be
// reachable from a heap-wide root manipulated via SetRoot/Root.
//
// Durability discipline. Only two kinds of state exist:
//
//   - persistent state: the heap header (magic, root, auxiliary roots,
//     bump pointer) and the per-block headers (size + allocated bit),
//     all stored in NVM words; and
//   - volatile state: the free lists, kept purely in Go memory and
//     rebuilt by Open after every crash by scanning the block chain.
//
// Keeping the free lists volatile makes the allocator trivially
// crash-consistent under a TSP rescue: the block chain is always walkable
// (each mutation is a single word store), and any block that was
// allocated but not yet linked into an application structure when the
// crash hit is simply unreachable from the root — the conservative
// mark-sweep collector in gc.go reclaims it, exactly the role of the
// recovery-time garbage collector the paper describes Atlas acquiring.
package pheap

import (
	"errors"
	"fmt"
	"sync"

	"tsp/internal/nvm"
	"tsp/internal/telemetry"
)

// Ptr is a persistent pointer: the word address of a block's payload.
// The zero Ptr is the nil pointer; the heap layout guarantees no payload
// ever starts at word 0.
type Ptr uint64

// Nil is the null persistent pointer.
const Nil Ptr = 0

// Addr converts the pointer to a raw device word address.
func (p Ptr) Addr() nvm.Addr { return nvm.Addr(p) }

// IsNil reports whether p is the null pointer.
func (p Ptr) IsNil() bool { return p == Nil }

// Header layout (word offsets from 0).
const (
	hdrMagic    = 0 // magic number identifying a formatted heap
	hdrVersion  = 1 // layout version
	hdrWords    = 2 // heap size in words at format time
	hdrRoot     = 3 // the heap-wide root pointer
	hdrBump     = 4 // first never-allocated word
	hdrAuxBase  = 5 // first of NumAux auxiliary root slots
	NumAux      = 8 // auxiliary roots (e.g. the Atlas log directory)
	hdrReserved = hdrAuxBase + NumAux
	heapStart   = 16 // first allocatable word; must be >= hdrReserved
)

// Magic and Version identify the on-device format.
const (
	Magic   = 0x5453_5048_4541_5001 // "TSPHEAP", v1 tag
	Version = 1
)

// Block header encoding: word = sizeWords<<1 | allocBit. sizeWords counts
// the header word itself plus the payload.
const (
	allocBit    = 1
	minBlock    = 2 // header + at least one payload word
	maxSizeBits = 40
)

// Size classes for the segregated free lists: total block sizes (header
// included) in words. Requests larger than the last class are allocated
// exactly and freed onto a separate large list.
var sizeClasses = []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024, 2048, 4096}

// Errors returned by the heap.
var (
	ErrOutOfMemory  = errors.New("pheap: out of memory")
	ErrNotFormatted = errors.New("pheap: device does not contain a formatted heap")
	ErrCorrupt      = errors.New("pheap: heap structure is corrupt")
	ErrBadPointer   = errors.New("pheap: invalid pointer")
	ErrDoubleFree   = errors.New("pheap: double free")
)

// Heap is a persistent heap bound to a device. All methods are safe for
// concurrent use; the allocator itself is protected by a single mutex,
// while payload accesses go straight to the device's atomic words.
type Heap struct {
	dev *nvm.Device

	mu    sync.Mutex
	free  [][]Ptr // free block payloads per size class
	large []Ptr   // free blocks bigger than the last class

	pins map[Ptr]struct{} // volatile GC roots registered this incarnation

	tel *telemetry.HeapStats // nil-safe; set via SetTelemetry
}

// Format initializes a fresh heap on the device, destroying any previous
// contents, and flushes the header so even an immediate crash-without-
// rescue leaves a well-formed (empty) heap.
func Format(dev *nvm.Device) (*Heap, error) {
	if dev.Words() < heapStart+minBlock {
		return nil, fmt.Errorf("pheap: device too small (%d words)", dev.Words())
	}
	dev.Store(hdrMagic, Magic)
	dev.Store(hdrVersion, Version)
	dev.Store(hdrWords, dev.Words())
	dev.Store(hdrRoot, 0)
	dev.Store(hdrBump, heapStart)
	for i := 0; i < NumAux; i++ {
		dev.Store(nvm.Addr(hdrAuxBase+i), 0)
	}
	dev.FlushRange(0, heapStart)
	return newHeap(dev), nil
}

// Open attaches to an existing heap, validating the header and rebuilding
// the volatile free lists by walking the block chain. It is the first
// step of every recovery.
func Open(dev *nvm.Device) (*Heap, error) {
	if dev.Words() < heapStart+minBlock {
		return nil, ErrNotFormatted
	}
	// One tally for the header check and the chain walk: Open is a
	// recovery pass, a load per block.
	tal := dev.Tally()
	defer tal.Publish()
	if tal.Load(hdrMagic) != Magic {
		return nil, ErrNotFormatted
	}
	if v := tal.Load(hdrVersion); v != Version {
		return nil, fmt.Errorf("pheap: unsupported version %d", v)
	}
	if w := tal.Load(hdrWords); w != dev.Words() {
		return nil, fmt.Errorf("%w: header says %d words, device has %d", ErrCorrupt, w, dev.Words())
	}
	h := newHeap(dev)
	if err := h.rebuildFreeLists(&tal); err != nil {
		return nil, err
	}
	return h, nil
}

func newHeap(dev *nvm.Device) *Heap {
	return &Heap{
		dev:  dev,
		free: make([][]Ptr, len(sizeClasses)),
		pins: make(map[Ptr]struct{}),
	}
}

// Device returns the underlying device.
func (h *Heap) Device() *nvm.Device { return h.dev }

// rebuildFreeLists walks the block chain from heapStart to the bump
// pointer, repairing a torn bump pointer if the chain ends early (a
// crash-without-rescue can persist a block header without the bump
// update, or vice versa; both resolve to "trust the chain").
func (h *Heap) rebuildFreeLists(tal *nvm.Tally) error {
	bump := Ptr(tal.Load(hdrBump))
	if uint64(bump) < heapStart || uint64(bump) > h.dev.Words() {
		return fmt.Errorf("%w: bump pointer %d out of range", ErrCorrupt, bump)
	}
	addr := Ptr(heapStart)
	for addr < bump {
		hdr := tal.Load(addr.Addr())
		size := hdr >> 1
		if size == 0 {
			// Torn allocation: the bump pointer advanced but the block
			// header never became durable. Everything from here on was
			// never handed out in this incarnation's view; pull the bump
			// pointer back.
			tal.Store(hdrBump, uint64(addr))
			h.dev.FlushWord(hdrBump)
			bump = addr
			break
		}
		if size < minBlock || size > 1<<maxSizeBits || uint64(addr)+size > uint64(bump) {
			return fmt.Errorf("%w: block at %d has size %d", ErrCorrupt, addr, size)
		}
		if hdr&allocBit == 0 {
			h.pushFree(addr+1, int(size))
		}
		addr += Ptr(size)
	}
	return nil
}

// classFor returns the smallest size-class index whose blocks hold total
// words, or -1 if total exceeds the largest class.
func classFor(total int) int {
	for i, c := range sizeClasses {
		if total <= c {
			return i
		}
	}
	return -1
}

// pushFree adds the block with the given payload pointer and total size
// to the appropriate volatile free list.
func (h *Heap) pushFree(payload Ptr, total int) {
	if c := classForExact(total); c >= 0 {
		h.free[c] = append(h.free[c], payload)
	} else {
		h.large = append(h.large, payload)
	}
}

// classForExact returns the class whose size equals total, or -1. Blocks
// are always carved at exact class sizes (or large), so lookup by exact
// size is sufficient and keeps freed blocks reusable at their class.
func classForExact(total int) int {
	for i, c := range sizeClasses {
		if total == c {
			return i
		}
	}
	return -1
}

// Alloc allocates a block with room for at least words payload words,
// zeroes the payload, and returns its persistent pointer. The payload is
// guaranteed zeroed even if the block is recycled.
func (h *Heap) Alloc(words int) (Ptr, error) {
	if words <= 0 {
		return Nil, fmt.Errorf("pheap: Alloc(%d): size must be positive", words)
	}
	need := words + 1 // block header
	tal := h.dev.Tally()
	defer tal.Publish()
	h.mu.Lock()
	p, total, err := h.allocLocked(&tal, need)
	h.mu.Unlock()
	if err != nil {
		return Nil, err
	}
	// Zero the payload outside the allocator lock; the block is not yet
	// published to any other thread.
	for i := 0; i < total-1; i++ {
		tal.Store(p.Addr()+nvm.Addr(i), 0)
	}
	h.tel.IncAlloc()
	return p, nil
}

// SetTelemetry points the heap's counters at a registry section (nil
// turns counting off). Call before the heap is shared.
func (h *Heap) SetTelemetry(tel *telemetry.HeapStats) { h.tel = tel }

func (h *Heap) allocLocked(tal *nvm.Tally, need int) (Ptr, int, error) {
	// Try the segregated lists first.
	if c := classFor(need); c >= 0 {
		for ; c < len(sizeClasses); c++ {
			if n := len(h.free[c]); n > 0 {
				p := h.free[c][n-1]
				h.free[c] = h.free[c][:n-1]
				markAllocated(tal, p)
				return p, blockSize(tal, p), nil
			}
		}
	} else {
		// Large request: first-fit over the large list.
		for i, p := range h.large {
			if blockSize(tal, p) >= need {
				h.large = append(h.large[:i], h.large[i+1:]...)
				markAllocated(tal, p)
				return p, blockSize(tal, p), nil
			}
		}
	}
	// Carve a fresh block from the bump region at the class size (or the
	// exact size for large requests).
	total := need
	if c := classFor(need); c >= 0 {
		total = sizeClasses[c]
	}
	bump := tal.Load(hdrBump)
	if bump+uint64(total) > h.dev.Words() {
		return Nil, 0, ErrOutOfMemory
	}
	blockAddr := nvm.Addr(bump)
	// Order matters for crash robustness: write the header first, then
	// advance the bump pointer. rebuildFreeLists tolerates either store
	// being lost.
	tal.Store(blockAddr, uint64(total)<<1|allocBit)
	tal.Store(hdrBump, bump+uint64(total))
	return Ptr(blockAddr) + 1, total, nil
}

// markAllocated sets the allocated bit on a block being popped from a
// free list.
func markAllocated(tal *nvm.Tally, payload Ptr) {
	hdr := payload.Addr() - 1
	tal.Store(hdr, tal.Load(hdr)|allocBit)
}

// blockSize returns the total size (header included) of the block whose
// payload starts at p.
func blockSize(tal *nvm.Tally, payload Ptr) int {
	return int(tal.Load(payload.Addr()-1) >> 1)
}

// SizeOf returns the payload capacity, in words, of the block at p.
func (h *Heap) SizeOf(p Ptr) (int, error) {
	tal := h.dev.Tally()
	defer tal.Publish()
	if err := h.validate(&tal, p); err != nil {
		return 0, err
	}
	return blockSize(&tal, p) - 1, nil
}

// Free returns the block at p to the allocator. Freeing Nil is a no-op,
// matching free(NULL).
func (h *Heap) Free(p Ptr) error {
	if p.IsNil() {
		return nil
	}
	tal := h.dev.Tally()
	defer tal.Publish()
	if err := h.validate(&tal, p); err != nil {
		return err
	}
	hdrAddr := p.Addr() - 1
	hdr := tal.Load(hdrAddr)
	if hdr&allocBit == 0 {
		return fmt.Errorf("%w: block at %d", ErrDoubleFree, p)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	tal.Store(hdrAddr, hdr&^uint64(allocBit))
	h.pushFree(p, int(hdr>>1))
	delete(h.pins, p)
	h.tel.IncFree()
	return nil
}

// validate checks that p plausibly points at the payload of a block
// inside the heap. It cannot prove p is a live allocation (that is the
// collector's job) but rejects out-of-range and misheaded pointers.
func (h *Heap) validate(tal *nvm.Tally, p Ptr) error {
	if p.IsNil() || uint64(p) <= heapStart || uint64(p) >= h.dev.Words() {
		return fmt.Errorf("%w: %d", ErrBadPointer, p)
	}
	size := tal.Load(p.Addr()-1) >> 1
	if size < minBlock || uint64(p)-1+size > h.dev.Words() {
		return fmt.Errorf("%w: %d (header size %d)", ErrBadPointer, p, size)
	}
	return nil
}

// Root returns the heap-wide root pointer.
func (h *Heap) Root() Ptr { return Ptr(h.dev.Load(hdrRoot)) }

// SetRoot atomically publishes p as the heap-wide root. The single word
// store is the commit point for whatever structure p leads to.
func (h *Heap) SetRoot(p Ptr) { h.dev.Store(hdrRoot, uint64(p)) }

// Aux returns auxiliary root slot i. Auxiliary roots let subsystems such
// as the Atlas runtime anchor their persistent metadata (log buffers)
// where both recovery and the collector can find them.
func (h *Heap) Aux(i int) Ptr {
	if i < 0 || i >= NumAux {
		panic(fmt.Sprintf("pheap: aux index %d out of range", i))
	}
	return Ptr(h.dev.Load(nvm.Addr(hdrAuxBase + i)))
}

// SetAux sets auxiliary root slot i.
func (h *Heap) SetAux(i int, p Ptr) {
	if i < 0 || i >= NumAux {
		panic(fmt.Sprintf("pheap: aux index %d out of range", i))
	}
	h.dev.Store(nvm.Addr(hdrAuxBase+i), uint64(p))
}

// Pin registers p as an additional GC root for this incarnation (volatile;
// pins do not survive a crash — persistent anchors belong in Aux slots).
func (h *Heap) Pin(p Ptr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pins[p] = struct{}{}
}

// Unpin removes a pin added with Pin.
func (h *Heap) Unpin(p Ptr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.pins, p)
}

// Load reads payload word off of the block at p.
func (h *Heap) Load(p Ptr, off int) uint64 { return h.dev.Load(p.Addr() + nvm.Addr(off)) }

// Store writes payload word off of the block at p.
func (h *Heap) Store(p Ptr, off int, v uint64) { h.dev.Store(p.Addr()+nvm.Addr(off), v) }

// CAS compare-and-swaps payload word off of the block at p.
func (h *Heap) CAS(p Ptr, off int, old, new uint64) bool {
	return h.dev.CAS(p.Addr()+nvm.Addr(off), old, new)
}

// Add atomically adds delta to payload word off of the block at p and
// returns the new value.
func (h *Heap) Add(p Ptr, off int, delta uint64) uint64 {
	return h.dev.Add(p.Addr()+nvm.Addr(off), delta)
}

// HeapStart returns the first allocatable word; exported for tests and
// for the conservative collector's pointer heuristics.
func HeapStart() uint64 { return heapStart }

// Bump returns the current bump pointer (first never-allocated word).
func (h *Heap) Bump() uint64 { return h.dev.Load(hdrBump) }
