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

// GCReport summarizes a collection.
type GCReport struct {
	BlocksScanned  int // allocated blocks examined
	BlocksMarked   int // blocks reachable from the roots
	BlocksFreed    int // leaked blocks reclaimed
	WordsReclaimed int // total words (headers included) reclaimed
}

// GC runs a conservative stop-the-world mark-sweep from the heap root,
// the auxiliary roots, and any volatile pins. The caller must ensure no
// mutator is running — the collector is designed for recovery time, where
// that holds by construction.
//
// The collector's whole working state is three bitmaps over the words
// below the bump pointer (see blockMap), so a collection costs the chain
// walk plus the live payload, hashes nothing, and frees in chain order.
func (h *Heap) GC() (GCReport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	tal := h.dev.Tally()
	defer tal.Publish()

	blocks, err := h.collectBlocks(&tal)
	if err != nil {
		return GCReport{}, err
	}
	var rep GCReport

	// Mark phase: depth-first from all roots. A candidate word is a
	// pointer iff it is the payload address of an allocated block; has
	// rejects everything else, out-of-range values included.
	marked := make(bitmap, len(blocks.alloc))
	var stack []uint64
	push := func(v uint64) {
		p := v &^ markTagMask // see through pointer tags
		if blocks.alloc.has(p) && !marked.has(p) {
			marked.set(p)
			stack = append(stack, p)
		}
	}
	push(tal.Load(hdrRoot))
	for i := 0; i < NumAux; i++ {
		push(tal.Load(nvm.Addr(hdrAuxBase + i)))
	}
	for p := range h.pins {
		push(uint64(p))
	}
	var buf [256]uint64
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rep.BlocksMarked++
		for end := p + blocks.total(p) - 1; p < end; {
			words := buf[:min(uint64(len(buf)), end-p)]
			tal.LoadBlock(nvm.Addr(p), words)
			for _, v := range words {
				push(v)
			}
			p += uint64(len(words))
		}
	}

	// Sweep phase: free every allocated block the mark phase missed.
	for w, allocated := range blocks.alloc {
		rep.BlocksScanned += bits.OnesCount64(allocated)
		for leaked := allocated &^ marked[w]; leaked != 0; leaked &= leaked - 1 {
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

// collectBlocks walks the block chain and returns its map.
func (h *Heap) collectBlocks(tal *nvm.Tally) (*blockMap, error) {
	bump := tal.Load(hdrBump)
	if bump > h.dev.Words() {
		return nil, ErrCorrupt
	}
	n := (bump+1)>>6 + 1
	m := &blockMap{starts: make(bitmap, n), alloc: make(bitmap, n)}
	addr := uint64(heapStart)
	for addr < bump {
		hdr := tal.Load(nvm.Addr(addr))
		size := hdr >> 1
		if size < minBlock || addr+size > bump {
			return nil, ErrCorrupt
		}
		m.starts.set(addr + 1)
		if hdr&allocBit != 0 {
			m.alloc.set(addr + 1)
		}
		addr += size
	}
	m.starts.set(bump + 1)
	return m, nil
}
