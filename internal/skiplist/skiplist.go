// Package skiplist implements the paper's non-blocking case study: a
// lock-free skip-list map from uint64 keys to uint64 values (after
// Herlihy & Shavit, "The Art of Multiprocessor Programming", the
// algorithm family of the Dybnis nbds library the paper uses) living
// entirely in a persistent heap and manipulated through simulated-NVM
// atomic words.
//
// The structure takes NO measures for crash consistency — no logging, no
// flushing, nothing. That is the point of Section 4.1: because every
// linearization point is a single atomic word operation and the
// suspension of any subset of threads cannot block the rest, a crash
// under Timely Sufficient Persistence (which preserves every issued
// store) leaves the heap in a state from which a "recovery observer" can
// simply resume: traversals from the root encounter a valid skip list.
// Nodes whose insertion had linked only the lower levels are present
// (the bottom-level CAS is the linearization point); nodes allocated but
// never linked are unreachable and are reclaimed by the recovery-time
// conservative GC.
package skiplist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// MaxLevel is the maximum number of levels a list may be built with.
const MaxLevel = 24

// markBit tags a node's next pointer to flag the node as logically
// deleted. Heap word addresses are far below 2^63, so the bit is free.
const markBit uint64 = 1 << 63

func isMarked(w uint64) bool { return w&markBit != 0 }
func ref(w uint64) pheap.Ptr { return pheap.Ptr(w &^ markBit) }

// Descriptor layout (payload words of the descriptor block):
const (
	descMagicWord = 0
	descLevelWord = 1
	descHeadWord  = 2
	descWords     = 3

	descMagic = 0x534b_4950_4c53_5431 // "SKIPLST1"
)

// Node layout (payload words):
//
//	0: key
//	1: value
//	2: topLevel (number of next pointers)
//	3..3+topLevel-1: next pointers (with markBit)
const (
	nodeKey   = 0
	nodeValue = 1
	nodeTop   = 2
	nodeNext  = 3
)

// Errors returned by the package.
var (
	ErrNotSkipList = errors.New("skiplist: pointer does not reference a skip-list descriptor")
	ErrCrashed     = errors.New("skiplist: device crashed (thread terminated)")
)

// List is a handle onto a persistent lock-free skip list. Handles are
// stateless apart from the RNG; any number may be created over the same
// descriptor, and all methods are safe for concurrent use.
type List struct {
	heap     *pheap.Heap
	dev      *nvm.Device
	desc     pheap.Ptr
	head     pheap.Ptr
	maxLevel int
	seed     atomic.Uint64
	scratch  sync.Pool // *pathScratch, reused across operations
}

// pathScratch holds the preds/succs arrays find fills; pooled to keep
// the hot paths allocation-free.
type pathScratch struct {
	preds, succs []pheap.Ptr
}

func (l *List) getScratch() *pathScratch {
	if s, ok := l.scratch.Get().(*pathScratch); ok {
		return s
	}
	return &pathScratch{
		preds: make([]pheap.Ptr, l.maxLevel),
		succs: make([]pheap.Ptr, l.maxLevel),
	}
}

func (l *List) putScratch(s *pathScratch) { l.scratch.Put(s) }

// New allocates a fresh skip list with the given maximum level and
// returns its handle. The descriptor pointer (Ptr) is what callers link
// into their root structure.
func New(heap *pheap.Heap, maxLevel int) (*List, error) {
	if maxLevel < 1 || maxLevel > MaxLevel {
		return nil, fmt.Errorf("skiplist: maxLevel %d out of [1,%d]", maxLevel, MaxLevel)
	}
	head, err := heap.Alloc(nodeNext + maxLevel)
	if err != nil {
		return nil, err
	}
	heap.Store(head, nodeTop, uint64(maxLevel))
	// head's key/value are never consulted; next pointers start nil.
	desc, err := heap.Alloc(descWords)
	if err != nil {
		return nil, err
	}
	heap.Store(desc, descLevelWord, uint64(maxLevel))
	heap.Store(desc, descHeadWord, uint64(head))
	heap.Store(desc, descMagicWord, descMagic) // magic last: descriptor valid once visible
	l := &List{heap: heap, dev: heap.Device(), desc: desc, head: head, maxLevel: maxLevel}
	l.seed.Store(uint64(desc) * 0x9e3779b97f4a7c15)
	return l, nil
}

// Open attaches to an existing skip list via its descriptor pointer.
func Open(heap *pheap.Heap, desc pheap.Ptr) (*List, error) {
	if desc.IsNil() {
		return nil, ErrNotSkipList
	}
	if heap.Load(desc, descMagicWord) != descMagic {
		return nil, ErrNotSkipList
	}
	maxLevel := int(heap.Load(desc, descLevelWord))
	if maxLevel < 1 || maxLevel > MaxLevel {
		return nil, fmt.Errorf("skiplist: descriptor has maxLevel %d", maxLevel)
	}
	l := &List{
		heap:     heap,
		dev:      heap.Device(),
		desc:     desc,
		head:     pheap.Ptr(heap.Load(desc, descHeadWord)),
		maxLevel: maxLevel,
	}
	l.seed.Store(uint64(desc)*0x9e3779b97f4a7c15 + 1)
	return l, nil
}

// Ptr returns the descriptor pointer for linking into root structures.
func (l *List) Ptr() pheap.Ptr { return l.desc }

// nextAddr returns the device address of node n's level-lvl next pointer.
func (l *List) nextAddr(n pheap.Ptr, lvl int) nvm.Addr {
	return n.Addr() + nvm.Addr(nodeNext+lvl)
}

// Every operation counts its device accesses in one nvm.Tally on its own
// frame (the traversal helpers below take it) and publishes it on return.

func (l *List) key(tal *nvm.Tally, n pheap.Ptr) uint64 { return tal.Load(n.Addr() + nodeKey) }
func (l *List) top(tal *nvm.Tally, n pheap.Ptr) int    { return int(tal.Load(n.Addr() + nodeTop)) }
func (l *List) next(tal *nvm.Tally, n pheap.Ptr, lvl int) uint64 {
	return tal.Load(l.nextAddr(n, lvl))
}

// randomLevel draws a geometric level in [1, maxLevel] from a lock-free
// splitmix stream.
func (l *List) randomLevel() int {
	x := l.seed.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	lvl := 1
	for x&1 == 1 && lvl < l.maxLevel {
		lvl++
		x >>= 1
	}
	return lvl
}

// find locates the position of key at every level, helping to physically
// unlink marked nodes along the way (the Harris/Herlihy-Shavit helping
// protocol). It fills preds and succs and reports whether an unmarked
// node with the key sits at level 0. It returns ErrCrashed if the device
// has crashed, so spinning threads terminate like their SIGKILLed
// counterparts.
func (l *List) find(tal *nvm.Tally, key uint64, preds, succs []pheap.Ptr) (bool, error) {
retry:
	for {
		if l.dev.Crashed() {
			return false, ErrCrashed
		}
		pred := l.head
		for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
			curr := ref(l.next(tal, pred, lvl))
			for {
				if curr.IsNil() {
					break
				}
				succ := l.next(tal, curr, lvl)
				for isMarked(succ) {
					// curr is logically deleted: splice it out.
					if !tal.CAS(l.nextAddr(pred, lvl), uint64(curr), uint64(ref(succ))) {
						if l.dev.Crashed() {
							return false, ErrCrashed
						}
						continue retry
					}
					curr = ref(l.next(tal, pred, lvl))
					if curr.IsNil() {
						break
					}
					succ = l.next(tal, curr, lvl)
				}
				if curr.IsNil() {
					break
				}
				if l.key(tal, curr) < key {
					pred = curr
					curr = ref(succ)
				} else {
					break
				}
			}
			preds[lvl] = pred
			succs[lvl] = curr
		}
		found := !succs[0].IsNil() && l.key(tal, succs[0]) == key
		return found, nil
	}
}

// Get returns the value stored under key. The traversal is wait-free: it
// skips logically deleted nodes without helping, so it never writes.
func (l *List) Get(key uint64) (uint64, bool) {
	tal := l.dev.Tally()
	defer tal.Publish()
	pred := l.head
	var curr pheap.Ptr
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		curr = ref(l.next(&tal, pred, lvl))
		for !curr.IsNil() {
			succ := l.next(&tal, curr, lvl)
			if isMarked(succ) {
				curr = ref(succ) // skip deleted node
				continue
			}
			if l.key(&tal, curr) < key {
				pred = curr
				curr = ref(succ)
				continue
			}
			break
		}
	}
	if curr.IsNil() || l.key(&tal, curr) != key || isMarked(l.next(&tal, curr, 0)) {
		return 0, false
	}
	return tal.Load(curr.Addr() + nodeValue), true
}

// Put sets key to val, inserting a node if absent. It returns true if a
// new node was inserted, false if an existing node was updated.
func (l *List) Put(key, val uint64) (bool, error) {
	tal := l.dev.Tally()
	defer tal.Publish()
	sc := l.getScratch()
	defer l.putScratch(sc)
	preds, succs := sc.preds, sc.succs
	for {
		found, err := l.find(&tal, key, preds, succs)
		if err != nil {
			return false, err
		}
		if found {
			// Single-word value update: atomic, and a fine linearization
			// point on its own.
			tal.Store(succs[0].Addr()+nodeValue, val)
			return false, nil
		}
		inserted, err := l.insert(&tal, key, val, preds, succs)
		if err != nil {
			return false, err
		}
		if inserted {
			return true, nil
		}
		// Lost the race to another inserter of the same key; retry.
	}
}

// Inc atomically adds delta to the value under key, inserting the key
// with value delta if absent. It returns the new value.
func (l *List) Inc(key, delta uint64) (uint64, error) {
	tal := l.dev.Tally()
	defer tal.Publish()
	sc := l.getScratch()
	defer l.putScratch(sc)
	preds, succs := sc.preds, sc.succs
	for {
		found, err := l.find(&tal, key, preds, succs)
		if err != nil {
			return 0, err
		}
		if found {
			return tal.Add(succs[0].Addr()+nodeValue, delta), nil
		}
		inserted, err := l.insert(&tal, key, delta, preds, succs)
		if err != nil {
			return 0, err
		}
		if inserted {
			return delta, nil
		}
	}
}

// insert tries to link a fresh node for key between preds and succs. It
// returns false (without error) if the bottom-level CAS lost a race and
// the caller should re-find and retry.
func (l *List) insert(tal *nvm.Tally, key, val uint64, preds, succs []pheap.Ptr) (bool, error) {
	topLevel := l.randomLevel()
	node, err := l.heap.Alloc(nodeNext + topLevel)
	if err != nil {
		return false, err
	}
	tal.Store(node.Addr()+nodeKey, key)
	tal.Store(node.Addr()+nodeValue, val)
	tal.Store(node.Addr()+nodeTop, uint64(topLevel))
	for lvl := 0; lvl < topLevel; lvl++ {
		tal.Store(l.nextAddr(node, lvl), uint64(succs[lvl]))
	}
	// The bottom-level CAS is the linearization point — and, under TSP,
	// also the durability point: a crash immediately after it leaves the
	// node reachable; a crash before it leaves the node unreachable (the
	// recovery GC reclaims the block). No intermediate state is visible
	// to the recovery observer.
	if !tal.CAS(l.nextAddr(preds[0], 0), uint64(succs[0]), uint64(node)) {
		if l.dev.Crashed() {
			return false, ErrCrashed
		}
		// The block is private garbage now; hand it straight back.
		_ = l.heap.Free(node)
		return false, nil
	}
	// Link the index levels. Failures here never affect correctness —
	// the node is already in the set — only search speed, so a crash
	// mid-way is harmless (Section 4.1's partial-upper-links case).
	for lvl := 1; lvl < topLevel; lvl++ {
		for {
			if l.dev.Crashed() {
				return true, nil // node is linked; thread dies here
			}
			cur := l.next(tal, node, lvl)
			if isMarked(cur) {
				return true, nil // concurrently deleted; stop indexing
			}
			if ref(cur) != succs[lvl] {
				if !tal.CAS(l.nextAddr(node, lvl), cur, uint64(succs[lvl])) {
					continue
				}
			}
			if tal.CAS(l.nextAddr(preds[lvl], lvl), uint64(succs[lvl]), uint64(node)) {
				break
			}
			found, err := l.find(tal, key, preds, succs)
			if err != nil {
				return true, nil
			}
			if !found || succs[0] != node {
				return true, nil // deleted while indexing
			}
		}
	}
	return true, nil
}

// Delete removes key from the map. It returns false if the key was
// absent (or already being deleted by another thread). Deleted nodes are
// unlinked but never freed during the run — a concurrent traversal may
// still be reading them; they become unreachable garbage that the
// recovery-time conservative GC reclaims, which is exactly the
// reclamation story the paper's persistent-heap model prescribes.
func (l *List) Delete(key uint64) (bool, error) {
	tal := l.dev.Tally()
	defer tal.Publish()
	sc := l.getScratch()
	defer l.putScratch(sc)
	preds, succs := sc.preds, sc.succs
	found, err := l.find(&tal, key, preds, succs)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	node := succs[0]
	topLevel := l.top(&tal, node)
	// Mark the index levels top-down.
	for lvl := topLevel - 1; lvl >= 1; lvl-- {
		for {
			succ := l.next(&tal, node, lvl)
			if isMarked(succ) {
				break
			}
			if tal.CAS(l.nextAddr(node, lvl), succ, succ|markBit) {
				break
			}
			if l.dev.Crashed() {
				return false, ErrCrashed
			}
		}
	}
	// Marking level 0 is the linearization point.
	for {
		succ := l.next(&tal, node, 0)
		if isMarked(succ) {
			return false, nil // someone else deleted it first
		}
		if tal.CAS(l.nextAddr(node, 0), succ, succ|markBit) {
			// Physically unlink via find's helping; best effort.
			_, _ = l.find(&tal, key, preds, succs)
			return true, nil
		}
		if l.dev.Crashed() {
			return false, ErrCrashed
		}
	}
}

// Range calls fn for every live (unmarked) key/value pair in ascending
// key order until fn returns false. It is a snapshot-free traversal:
// concurrent updates may or may not be observed, exactly like the C
// original.
func (l *List) Range(fn func(key, val uint64) bool) {
	tal := l.dev.Tally()
	defer tal.Publish()
	curr := ref(l.next(&tal, l.head, 0))
	for !curr.IsNil() {
		succ := l.next(&tal, curr, 0)
		if !isMarked(succ) {
			if !fn(l.key(&tal, curr), tal.Load(curr.Addr()+nodeValue)) {
				return
			}
		}
		curr = ref(succ)
	}
}

// RangeBetween calls fn for every live key in [lo, hi) in ascending
// order until fn returns false. Unlike the hash map, the skip list
// supports ordered scans natively — the index levels find lo in
// O(log n) and the bottom level walks forward from there.
func (l *List) RangeBetween(lo, hi uint64, fn func(key, val uint64) bool) {
	if lo >= hi {
		return
	}
	tal := l.dev.Tally()
	defer tal.Publish()
	// Descend the index to the last node with key < lo.
	pred := l.head
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		for {
			curr := ref(l.next(&tal, pred, lvl))
			if curr.IsNil() || l.key(&tal, curr) >= lo {
				break
			}
			pred = curr
		}
	}
	// Walk the bottom level through the window.
	for curr := ref(l.next(&tal, pred, 0)); !curr.IsNil(); curr = ref(l.next(&tal, curr, 0)) {
		k := l.key(&tal, curr)
		if k >= hi {
			return
		}
		if isMarked(l.next(&tal, curr, 0)) || k < lo {
			continue
		}
		if !fn(k, tal.Load(curr.Addr()+nodeValue)) {
			return
		}
	}
}

// CountBetween counts live keys in [lo, hi). Like RangeBetween the
// index levels find lo in O(log n); the count itself walks the bottom
// level, so the cost is O(log n + result).
func (l *List) CountBetween(lo, hi uint64) int {
	n := 0
	l.RangeBetween(lo, hi, func(_, _ uint64) bool { n++; return true })
	return n
}

// Min returns the smallest live key, if any.
func (l *List) Min() (uint64, bool) {
	tal := l.dev.Tally()
	defer tal.Publish()
	for curr := ref(l.next(&tal, l.head, 0)); !curr.IsNil(); curr = ref(l.next(&tal, curr, 0)) {
		if !isMarked(l.next(&tal, curr, 0)) {
			return l.key(&tal, curr), true
		}
	}
	return 0, false
}

// Len counts live keys by traversal.
func (l *List) Len() int {
	n := 0
	l.Range(func(_, _ uint64) bool { n++; return true })
	return n
}
