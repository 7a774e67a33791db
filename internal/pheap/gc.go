package pheap

import (
	"math/bits"

	"tsp/internal/nvm"
)

// This file implements the recovery-time garbage collector. The paper
// notes that crashes can cause Atlas-fortified software to leak memory
// (a block is allocated but the crash lands before it is linked into a
// reachable structure, or after it is unlinked but before it is freed)
// and that Atlas added a recovery-time collector to reclaim such leaks.
// The same situation arises for the non-blocking case study: a crash
// between pheap.Alloc and the linking CAS strands the node.
//
// The collector is conservative, in the tradition of Boehm-style
// collectors that Atlas's own collector descends from: any payload word
// whose value equals the payload address of an allocated block is treated
// as a pointer to it. False retention is possible (an integer that
// happens to collide with a block address) but harmless; false
// reclamation is impossible.
//
// A structure whose layout is known may instead be walked precisely by a
// tracer (SetTracer), which runs before the roots. It keeps reclamation
// false-free by a contract: it marks every block it walks with Reach,
// without scanning it, and offers every word of those blocks that it
// does not follow as a pointer with Offer, as a scan would. So a traced
// structure is read once, and may be checked on the way (recovery's hash
// map is verified by its trace); a tracer error aborts the collection.

// GCReport summarizes a collection.
type GCReport struct {
	BlocksScanned  int // allocated blocks examined
	BlocksMarked   int // blocks reachable from the roots
	BlocksFreed    int // leaked blocks reclaimed
	WordsReclaimed int // total words (headers included) reclaimed
}

// GC runs a conservative stop-the-world mark-sweep from the heap root
// and the auxiliary roots. The caller must ensure no mutator is running
// — the collector is designed for recovery time, where that holds by
// construction.
//
// The blocks named in noScan are kept but never scanned: they hold no
// pointers the heap's structures need, only words that may look like
// them — Boehm's pointer-free blocks. Recovery names the Atlas log
// rings, whose dead undo records still carry the addresses of blocks
// unlinked before the crash; scanned, they would retain the very leaks
// the collection exists to reclaim.
//
// The collector's whole working state is three bitmaps over the words
// below the bump pointer (see blockMap), so a collection costs the chain
// walk plus the live payload, hashes nothing, and frees in chain order.
func (h *Heap) GC(noScan ...Ptr) (GCReport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	tal := h.dev.Tally()
	defer tal.Publish()

	blocks, err := h.walkChain(&tal, false)
	if err != nil {
		return GCReport{}, err
	}

	// Mark phase: the unscanned blocks, the tracer's, then depth-first
	// from all roots. A block is marked when first reached or offered, so
	// none is scanned twice, and one the tracer reaches is not scanned
	// unless the tracer offered it first.
	mk := &Marker{Tally: &tal, alloc: blocks.alloc, marked: make(bitmap, len(blocks.alloc))}
	for _, p := range noScan {
		mk.Reach(p)
	}
	if h.tracer != nil {
		if err := h.tracer(mk); err != nil {
			return GCReport{}, err
		}
	}
	mk.Offer(tal.Load(hdrRoot))
	for i := 0; i < NumAux; i++ {
		mk.Offer(tal.Load(nvm.Addr(hdrAuxBase + i)))
	}
	var buf [256]uint64
	for len(mk.scan) > 0 {
		p := mk.scan[len(mk.scan)-1]
		mk.scan = mk.scan[:len(mk.scan)-1]
		for end := p + blocks.total(p) - 1; p < end; {
			words := buf[:min(uint64(len(buf)), end-p)]
			tal.LoadBlock(nvm.Addr(p), words)
			mk.Offer(words...)
			p += uint64(len(words))
		}
	}

	// Sweep phase: free every allocated block the mark phase missed.
	var rep GCReport
	for w, allocated := range blocks.alloc {
		rep.BlocksScanned += bits.OnesCount64(allocated)
		rep.BlocksMarked += bits.OnesCount64(mk.marked[w])
		for leaked := allocated &^ mk.marked[w]; leaked != 0; leaked &= leaked - 1 {
			p := uint64(w)<<6 + uint64(bits.TrailingZeros64(leaked))
			total := blocks.total(p)
			tal.Store(nvm.Addr(p)-1, total<<1) // clear alloc bit
			h.pushFree(Ptr(p), int(total))
			rep.BlocksFreed++
			rep.WordsReclaimed += int(total)
		}
	}
	h.tel.AddGC(uint64(rep.BlocksFreed))
	return rep, nil
}

// SetTracer makes t (see the file comment) part of every collection's
// mark phase, or removes it (nil); call it while the heap is unshared. t
// runs under the allocator lock: it reads through mk.Tally or Load only.
func (h *Heap) SetTracer(t func(*Marker) error) { h.tracer = t }

// Marker is a collection's mark state as its tracer sees it; the
// tracer's loads go on Tally. A nil Marker ignores every call.
type Marker struct {
	Tally  *nvm.Tally
	alloc  bitmap // the allocated blocks (blockMap.alloc)
	marked bitmap
	scan   []uint64 // offered blocks, marked, not yet scanned
}

// Reach marks p, if it is an allocated block, without scanning it.
func (mk *Marker) Reach(p Ptr) {
	if mk != nil && mk.alloc.has(uint64(p)) {
		mk.marked.set(uint64(p))
	}
}

// Offer takes each of vs as a scanned word: if it is, seen through
// tags, the payload address of an allocated block not yet marked, the
// block is marked, and scanned once the tracer returns.
func (mk *Marker) Offer(vs ...uint64) {
	if mk == nil {
		return
	}
	for _, v := range vs {
		if p := v &^ markTagMask; mk.alloc.has(p) && !mk.marked.has(p) {
			mk.marked.set(p)
			mk.scan = append(mk.scan, p)
		}
	}
}

// markTagMask strips low/high tag bits before the conservative pointer
// test. Non-blocking structures store "marked" pointers whose
// most-significant bit flags logical deletion (see internal/skiplist);
// the collector must still see through the tag, otherwise nodes reachable
// only via marked references would be swept while a traversal could still
// reach them.
const markTagMask uint64 = 1 << 63

// bitmap is a set of word addresses, one bit each.
type bitmap []uint64

// has reports whether a is in the set. An address past the end is not,
// so a conservative candidate (any 64-bit value) can be tested as it is.
func (b bitmap) has(a uint64) bool {
	w := a >> 6
	return w < uint64(len(b)) && b[w]>>(a&63)&1 != 0
}

func (b bitmap) set(a uint64) { b[a>>6] |= 1 << (a & 63) }

// next returns the smallest member that is at least a; there must be one.
func (b bitmap) next(a uint64) uint64 {
	w := a >> 6
	rest := b[w] &^ (1<<(a&63) - 1)
	for rest == 0 {
		w++
		rest = b[w]
	}
	return w<<6 + uint64(bits.TrailingZeros64(rest))
}

// blockMap is the collector's picture of the block chain, taken from the
// header words in one walk: which words start a block's payload, and
// which of those blocks are allocated. Payload starts ascend with the
// chain, so iterating a bitmap visits blocks in chain order, and a
// block's size is the distance to the next start.
type blockMap struct {
	starts bitmap // payload address of every block, and bump+1 closing the last
	alloc  bitmap // the allocated blocks among starts
}

// total returns the size in words, header included, of the block whose
// payload starts at p.
func (m *blockMap) total(p uint64) uint64 { return m.starts.next(p+1) - p }
