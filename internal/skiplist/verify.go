package skiplist

import (
	"fmt"

	"tsp/internal/pheap"
)

// VerifyReport summarizes a structural verification pass.
type VerifyReport struct {
	LiveNodes    int // unmarked nodes on level 0
	MarkedNodes  int // logically deleted nodes still physically linked
	IndexedLinks int // upper-level links checked
}

// String renders the report for logs.
func (r VerifyReport) String() string {
	return fmt.Sprintf("skiplist{live=%d marked=%d indexed-links=%d}", r.LiveNodes, r.MarkedNodes, r.IndexedLinks)
}

// Verify checks the structural invariants a recovery observer relies on:
//
//  1. the level-0 chain is strictly sorted by key (no duplicates among
//     unmarked nodes);
//  2. every node reachable at level L>0 is also reachable at level 0
//     (the index is a sub-list of the data list);
//  3. upper-level chains are sorted;
//  4. no node appears at a level at or above its own topLevel.
//
// It must be run on a quiescent list (e.g. at recovery). A nil error
// means a traversal from the root cannot encounter an inconsistency —
// the Section 4.1 guarantee, checked mechanically.
func (l *List) Verify() (VerifyReport, error) {
	var rep VerifyReport
	tal := l.dev.Tally()
	defer tal.Publish()
	// Walk level 0, collecting its nodes and checking sort order.
	var level0 []pheap.Ptr
	lo, hi := ^pheap.Ptr(0), pheap.Nil
	var lastKey uint64
	first := true
	for curr := ref(l.next(&tal, l.head, 0)); !curr.IsNil(); {
		level0 = append(level0, curr)
		lo, hi = min(lo, curr), max(hi, curr)
		marked := isMarked(l.next(&tal, curr, 0))
		k := l.key(&tal, curr)
		if marked {
			rep.MarkedNodes++
		} else {
			rep.LiveNodes++
			if !first && k <= lastKey {
				return rep, fmt.Errorf("skiplist: level 0 out of order: %d after %d", k, lastKey)
			}
			lastKey = k
			first = false
		}
		if top := l.top(&tal, curr); top < 1 || top > l.maxLevel {
			return rep, fmt.Errorf("skiplist: node %d has topLevel %d", curr, top)
		}
		curr = ref(l.next(&tal, curr, 0))
	}
	// on0 is level 0's membership: a bitmap over its nodes' addresses (one
	// word when it has none: hi-lo wraps to 1).
	on0 := make([]uint64, (hi-lo)>>6+1)
	for _, n := range level0 {
		on0[(n-lo)>>6] |= 1 << ((n - lo) & 63)
	}
	// Walk the index levels.
	for lvl := 1; lvl < l.maxLevel; lvl++ {
		var prevKey uint64
		firstAt := true
		for curr := ref(l.next(&tal, l.head, lvl)); !curr.IsNil(); curr = ref(l.next(&tal, curr, lvl)) {
			rep.IndexedLinks++
			if curr < lo || curr > hi || on0[(curr-lo)>>6]>>((curr-lo)&63)&1 == 0 {
				return rep, fmt.Errorf("skiplist: node %d at level %d not on level 0", curr, lvl)
			}
			if l.top(&tal, curr) <= lvl {
				return rep, fmt.Errorf("skiplist: node %d linked at level %d beyond its topLevel %d",
					curr, lvl, l.top(&tal, curr))
			}
			k := l.key(&tal, curr)
			if !firstAt && k <= prevKey {
				return rep, fmt.Errorf("skiplist: level %d out of order: %d after %d", lvl, k, prevKey)
			}
			prevKey = k
			firstAt = false
		}
	}
	return rep, nil
}

// CompactReport summarizes a Compact pass.
type CompactReport struct {
	Unlinked int // marked nodes physically removed
	Freed    int // node blocks returned to the allocator
}

// Compact physically unlinks every logically deleted node and frees its
// block. It must run on a quiescent list — recovery time is the natural
// moment, where it plays the role the paper assigns to recovery-time
// garbage collection for the non-blocking case study (unreachable nodes
// are also reclaimed by the heap's conservative GC; Compact additionally
// removes still-linked tombstones so that later traversals do not pay
// for them).
func (l *List) Compact() (CompactReport, error) {
	var rep CompactReport
	tal := l.dev.Tally()
	defer tal.Publish()
	// Unlink marked nodes at every level, single-threadedly.
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		pred := l.head
		for {
			curr := ref(l.next(&tal, pred, lvl))
			if curr.IsNil() {
				break
			}
			if isMarked(l.next(&tal, curr, 0)) {
				// Splice curr out of this level.
				succ := ref(l.next(&tal, curr, lvl))
				tal.Store(l.nextAddr(pred, lvl), uint64(succ))
				if lvl == 0 {
					if err := l.heap.Free(curr); err != nil {
						return rep, err
					}
					rep.Freed++
					rep.Unlinked++
				}
				continue
			}
			pred = curr
		}
	}
	return rep, nil
}

// RebuildIndex reconstructs all upper-level links from the level-0 chain.
// A crash can leave freshly inserted nodes indexed only partially (their
// upper links were still being CASed in); that is harmless for
// correctness but suboptimal for search. Recovery code may call this on
// a quiescent list to restore the expected O(log n) search paths.
func (l *List) RebuildIndex() error {
	tal := l.dev.Tally()
	defer tal.Publish()
	// Clear all index levels.
	for lvl := 1; lvl < l.maxLevel; lvl++ {
		tal.Store(l.nextAddr(l.head, lvl), 0)
	}
	// Re-thread each level: walk level 0 and append nodes whose
	// topLevel admits them.
	tails := make([]pheap.Ptr, l.maxLevel) // last node linked per level
	for i := range tails {
		tails[i] = l.head
	}
	for curr := ref(l.next(&tal, l.head, 0)); !curr.IsNil(); curr = ref(l.next(&tal, curr, 0)) {
		if isMarked(l.next(&tal, curr, 0)) {
			continue
		}
		top := l.top(&tal, curr)
		for lvl := 1; lvl < top; lvl++ {
			tal.Store(l.nextAddr(tails[lvl], lvl), uint64(curr))
			tal.Store(l.nextAddr(curr, lvl), 0)
			tails[lvl] = curr
		}
	}
	return nil
}
