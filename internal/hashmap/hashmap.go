// Package hashmap implements the paper's mutex-based map: a
// separate-chaining hash table in the persistent heap with moderate-grain
// lock striping ("one mutex per 1000 buckets", Section 5.1), written
// against the Atlas runtime so that one code path serves all three Table
// 1 configurations — unfortified (atlas.ModeOff), Atlas TSP mode
// (atlas.ModeTSP, log only) and Atlas non-TSP mode (atlas.ModeNonTSP,
// log + flush).
//
// Every entry carries an integrity word alongside its value (check =
// hash(key, value)). An update writes the value and then the check word —
// two separate stores inside one critical section. A crash that lands
// between them therefore leaves a *detectably* inconsistent entry unless
// the enclosing outermost critical section is rolled back, which is
// exactly the hazard that motivates Atlas for mutex-based code: unlike
// the non-blocking case study, mutex-based updates pass through states
// that violate application invariants while the lock is held.
package hashmap

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/telemetry"
)

// Descriptor layout (payload words):
const (
	descMagicWord   = 0
	descBucketsWord = 1
	descStrideWord  = 2 // buckets per mutex
	descArrayWord   = 3
	descWords       = 4

	descMagic = 0x484d_4150_5453_5031 // "HMAPTSP1"
)

// Node layout (payload words):
const (
	nodeKey   = 0
	nodeValue = 1
	nodeCheck = 2
	nodeNext  = 3
	nodeWords = 4
)

// Errors returned by the package.
var (
	ErrNotMap   = errors.New("hashmap: pointer does not reference a hash-map descriptor")
	ErrCorrupt  = errors.New("hashmap: integrity check failed")
	ErrNoThread = errors.New("hashmap: nil atlas thread")
)

// DefaultBucketsPerMutex matches the paper's striping grain.
const DefaultBucketsPerMutex = 1000

// Map is a handle onto a persistent mutex-based hash map.
type Map struct {
	rt       *atlas.Runtime
	heap     *pheap.Heap
	desc     pheap.Ptr
	array    pheap.Ptr
	nBuckets int
	stride   int
	mask     uint64 // nBuckets-1 on a power-of-two table, else noMask
	shift    uint   // log2(stride) on a power-of-two stripe, else 64
	mutexes  []*atlas.Mutex
	seqs     []stripeSeq // one seqlock word per stripe, parallel to mutexes

	tel *telemetry.MapStats // nil-safe; set via SetTelemetry
}

// stripeSeq is one stripe's sequence counter, padded to a cache line so
// writers on neighbouring stripes don't false-share. The counter lives in
// volatile Go memory, not the persistent heap: like the stripe mutexes it
// is rebuilt on attach, so recovery starts every stripe quiescent (even)
// and crash-consistency never depends on it. Odd means a writer is inside
// the stripe's critical section.
type stripeSeq struct {
	v uint64
	_ [56]byte
}

// SetTelemetry points the map's operation counters at a registry section
// (nil turns counting off). Call before the map is shared. The *Locked
// stripe-level variants count too: they are the same logical map
// operations, just with caller-managed locking. Every operation but an
// optimistic get is counted in its thread's tally (atlas.Thread.MapTally)
// and reaches tel when the thread's outermost critical section closes.
func (m *Map) SetTelemetry(tel *telemetry.MapStats) { m.tel = tel }

// noMask marks a table whose bucket count is not a power of two.
const noMask = ^uint64(0)

// mix64 is the table's hash and integrity mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// checkWord computes the integrity companion of (key, value).
func checkWord(key, value uint64) uint64 {
	return mix64(key ^ mix64(value^0x6861_736d_6170_7631))
}

// New allocates a fresh map with nBuckets buckets and one mutex per
// bucketsPerMutex buckets (DefaultBucketsPerMutex if 0).
func New(rt *atlas.Runtime, nBuckets, bucketsPerMutex int) (*Map, error) {
	if nBuckets < 1 {
		return nil, fmt.Errorf("hashmap: nBuckets %d must be positive", nBuckets)
	}
	if bucketsPerMutex == 0 {
		bucketsPerMutex = DefaultBucketsPerMutex
	}
	if bucketsPerMutex < 1 {
		return nil, fmt.Errorf("hashmap: bucketsPerMutex %d must be positive", bucketsPerMutex)
	}
	heap := rt.Heap()
	array, err := heap.Alloc(nBuckets)
	if err != nil {
		return nil, fmt.Errorf("hashmap: allocating bucket array: %w", err)
	}
	desc, err := heap.Alloc(descWords)
	if err != nil {
		return nil, fmt.Errorf("hashmap: allocating descriptor: %w", err)
	}
	heap.Store(desc, descBucketsWord, uint64(nBuckets))
	heap.Store(desc, descStrideWord, uint64(bucketsPerMutex))
	heap.Store(desc, descArrayWord, uint64(array))
	heap.Store(desc, descMagicWord, descMagic)
	return Open(rt, desc)
}

// Open attaches to an existing map via its descriptor pointer.
func Open(rt *atlas.Runtime, desc pheap.Ptr) (*Map, error) {
	m, err := layout(rt.Heap(), desc)
	if err != nil {
		return nil, err
	}
	m.rt = rt
	nMutexes := (m.nBuckets + m.stride - 1) / m.stride
	m.mutexes = make([]*atlas.Mutex, nMutexes)
	for i := range m.mutexes {
		m.mutexes[i] = rt.NewMutex()
	}
	m.seqs = make([]stripeSeq, nMutexes)
	return m, nil
}

// layout reads desc's map shape: a Map that walks, with no runtime.
func layout(heap *pheap.Heap, desc pheap.Ptr) (*Map, error) {
	if desc.IsNil() || heap.Load(desc, descMagicWord) != descMagic {
		return nil, ErrNotMap
	}
	m := &Map{
		heap:     heap,
		desc:     desc,
		array:    pheap.Ptr(heap.Load(desc, descArrayWord)),
		nBuckets: int(heap.Load(desc, descBucketsWord)),
		stride:   int(heap.Load(desc, descStrideWord)),
	}
	if m.nBuckets < 1 || m.stride < 1 || m.array.IsNil() {
		return nil, ErrNotMap
	}
	m.mask, m.shift = noMask, 64
	if m.nBuckets&(m.nBuckets-1) == 0 {
		m.mask = uint64(m.nBuckets - 1)
	}
	if m.stride&(m.stride-1) == 0 {
		m.shift = uint(bits.TrailingZeros(uint(m.stride)))
	}
	return m, nil
}

// writeBegin/writeEnd bracket every mutation of reachable map state under
// a stripe mutex: begin flips the stripe's sequence odd before the first
// visible store, end flips it even after the last. Optimistic readers
// snapshot the sequence, walk, and revalidate; any bump in between voids
// the snapshot. The callers already hold the stripe mutex, so the two
// atomic adds never contend with another writer — they exist purely to
// signal readers.

func (m *Map) writeBegin(b int) { atomic.AddUint64(&m.seqs[m.stripe(b)].v, 1) }

func (m *Map) writeEnd(b int) { atomic.AddUint64(&m.seqs[m.stripe(b)].v, 1) }

// StripeVersion returns stripe i's current sequence value — the
// optimistic readers' consistency witness, exported so multi-key
// readers can implement snapshot validation across keys: capture every
// involved stripe's version before the first read, revalidate all of
// them after the last, and an unchanged even set proves the values
// coexisted. A single-key reader gets this for free inside
// GetOptimistic; only cross-key consistency needs the raw witness.
func (m *Map) StripeVersion(i int) uint64 { return atomic.LoadUint64(&m.seqs[i].v) }

// BeginStripeWrites flips stripe i's sequence odd: the opening bracket
// a multi-key section owner places around ALL its stripes before its
// first *Locked mutation. Holding every involved stripe odd for the
// whole section is what makes the section atomic to optimistic readers
// — with per-mutation brackets alone, the quiet window between two
// mutations of one section validates, and a cross-key reader could see
// half an mset. The caller must hold stripe i's mutex.
func (m *Map) BeginStripeWrites(i int) { atomic.AddUint64(&m.seqs[i].v, 1) }

// EndStripeWrites flips stripe i's sequence even again: the closing
// bracket, after the section's last mutation.
func (m *Map) EndStripeWrites(i int) { atomic.AddUint64(&m.seqs[i].v, 1) }

// BeginStripes opens the bracket on every stripe in stripes, in order:
// a multi-key section's, around all of its *Locked mutations.
func (m *Map) BeginStripes(stripes []int) {
	for _, i := range stripes {
		m.BeginStripeWrites(i)
	}
}

// EndStripes closes the bracket BeginStripes opened.
func (m *Map) EndStripes(stripes []int) {
	for _, i := range stripes {
		m.EndStripeWrites(i)
	}
}

// Ptr returns the descriptor pointer for linking into root structures.
func (m *Map) Ptr() pheap.Ptr { return m.desc }

// Mutexes returns the number of stripe locks.
func (m *Map) Mutexes() int { return len(m.mutexes) }

// bucketOf is key's bucket, mix64(key) mod the bucket count: a mask on a
// power-of-two table (the same bucket, so a persisted key never moves),
// a division otherwise.
func (m *Map) bucketOf(key uint64) int {
	h := mix64(key)
	if m.mask != noMask {
		return int(h & m.mask)
	}
	return int(h % uint64(m.nBuckets))
}

// stripe is bucket b's stripe, b / stride: a shift on a power-of-two
// stripe, a division otherwise.
func (m *Map) stripe(b int) int {
	if m.shift < 64 {
		return b >> m.shift
	}
	return b / m.stride
}

func (m *Map) bucketAddr(b int) nvm.Addr { return m.array.Addr() + nvm.Addr(b) }

func (m *Map) mutexFor(b int) *atlas.Mutex { return m.mutexes[m.stripe(b)] }

// findLocked walks bucket b's chain for key; the caller holds the
// stripe's mutex. It returns the node and its predecessor (Nil if the
// node is the chain head).
func (m *Map) findLocked(t *atlas.Thread, b int, key uint64) (node, prev pheap.Ptr) {
	prev = pheap.Nil
	for n := pheap.Ptr(t.Load(m.bucketAddr(b))); !n.IsNil(); {
		if t.Load(n.Addr()+nodeKey) == key {
			return n, prev
		}
		prev = n
		n = pheap.Ptr(t.Load(n.Addr() + nodeNext))
	}
	return pheap.Nil, pheap.Nil
}

// walkRounds bounds WalkChains: chains average entries/buckets nodes,
// and a walk that reaches this deep has warmed what the section reads.
const walkRounds = 8

// WalkChains walks the bucket chains of keys in lockstep rounds — one
// load per chain per round, at most walkRounds rounds — so the cache
// misses of a batch's ops overlap instead of each waiting on the one
// before, and the *Locked calls that follow find their chains cached.
// It is only a hint: it reads through nvm.Device.Peek (not counted, not
// charged to the latency model), writes nothing, and ends a chain at a
// pointer out of range. keys is overwritten with the walk's cursors.
// It needs no lock: a concurrent writer only makes it a worse hint.
func (m *Map) WalkChains(keys []uint64) {
	d := m.heap.Device()
	for i, k := range keys {
		keys[i] = uint64(m.bucketAddr(m.bucketOf(k)))
	}
	for r, live := 0, true; r < walkRounds && live; r++ {
		live = false
		for i, a := range keys {
			if a == 0 {
				continue
			}
			n, ok := d.Peek(nvm.Addr(a))
			if keys[i] = 0; ok && !pheap.Ptr(n).IsNil() {
				keys[i], live = uint64(pheap.Ptr(n).Addr()+nodeNext), true
			}
		}
	}
}

// Put sets key to value as one outermost critical section.
func (m *Map) Put(t *atlas.Thread, key, value uint64) error {
	if t == nil {
		return ErrNoThread
	}
	t.MapTally(m.tel).Puts++
	b := m.bucketOf(key)
	mu := m.mutexFor(b)
	t.Lock(mu)
	defer t.Unlock(mu)
	return m.putLocked(t, b, key, value, true)
}

// putLocked is the shared body of Put and PutLocked. bump selects
// per-mutation seqlock bracketing (the single-op paths); the *Locked
// variants pass false because their caller brackets every involved
// stripe for its whole multi-key section.
func (m *Map) putLocked(t *atlas.Thread, b int, key, value uint64, bump bool) error {
	if n, _ := m.findLocked(t, b, key); !n.IsNil() {
		// The two-store update whose intermediate state is the
		// mutex-based hazard: value first, integrity word second.
		if bump {
			m.writeBegin(b)
		}
		t.Store(n.Addr()+nodeValue, value)
		t.Store(n.Addr()+nodeCheck, checkWord(key, value))
		if bump {
			m.writeEnd(b)
		}
		return nil
	}
	n, err := m.heap.Alloc(nodeWords)
	if err != nil {
		return err
	}
	t.Store(n.Addr()+nodeKey, key)
	t.Store(n.Addr()+nodeValue, value)
	t.Store(n.Addr()+nodeCheck, checkWord(key, value))
	t.Store(n.Addr()+nodeNext, t.Load(m.bucketAddr(b)))
	// Only the head store publishes the (fully initialized) node, but the
	// bump keeps the reader protocol uniform: any mutation of reachable
	// state invalidates concurrent snapshots.
	if bump {
		m.writeBegin(b)
	}
	t.Store(m.bucketAddr(b), uint64(n))
	if bump {
		m.writeEnd(b)
	}
	return nil
}

// Get returns the value under key, acquiring the stripe lock for
// isolation (the paper's map interface performs each operation as an
// atomic, isolated step).
func (m *Map) Get(t *atlas.Thread, key uint64) (uint64, bool, error) {
	if t == nil {
		return 0, false, ErrNoThread
	}
	mu := m.mutexFor(m.bucketOf(key))
	t.Lock(mu)
	defer t.Unlock(mu)
	return m.GetLocked(t, key)
}

// Inc adds delta to the value under key (inserting the key with value
// delta if absent) as one outermost critical section, and returns the
// new value.
func (m *Map) Inc(t *atlas.Thread, key, delta uint64) (uint64, error) {
	if t == nil {
		return 0, ErrNoThread
	}
	t.MapTally(m.tel).Incs++
	b := m.bucketOf(key)
	mu := m.mutexFor(b)
	t.Lock(mu)
	defer t.Unlock(mu)
	return m.incLocked(t, b, key, delta, true)
}

// incLocked is the shared body of Inc and IncLocked; bump as in
// putLocked.
func (m *Map) incLocked(t *atlas.Thread, b int, key, delta uint64, bump bool) (uint64, error) {
	if n, _ := m.findLocked(t, b, key); !n.IsNil() {
		v := t.Load(n.Addr()+nodeValue) + delta
		if bump {
			m.writeBegin(b)
		}
		t.Store(n.Addr()+nodeValue, v)
		t.Store(n.Addr()+nodeCheck, checkWord(key, v))
		if bump {
			m.writeEnd(b)
		}
		return v, nil
	}
	// Absent key: the insert path (and its seqlock bracketing) is
	// putLocked's.
	if err := m.putLocked(t, b, key, delta, bump); err != nil {
		return 0, err
	}
	return delta, nil
}

// Delete unlinks key's node. The block is reclaimed through the Atlas
// runtime's deferred-free mechanism: deallocation happens only after the
// enclosing critical section commits, so a rolled-back delete can
// resurrect the node intact (Atlas itself defers deallocation for the
// same reason). It reports whether the key was present.
func (m *Map) Delete(t *atlas.Thread, key uint64) (bool, error) {
	if t == nil {
		return false, ErrNoThread
	}
	t.MapTally(m.tel).Deletes++
	b := m.bucketOf(key)
	mu := m.mutexFor(b)
	t.Lock(mu)
	defer t.Unlock(mu)
	return m.deleteLocked(t, b, key, true)
}

// deleteLocked is the shared unlink body of Delete and DeleteLocked. The
// seqlock bracket (per-mutation here, or the caller's section-wide one)
// covers the unlink store, so an optimistic reader that could otherwise
// chase the dead node's pointers is forced to retry; the deferred free
// then guarantees the block survives untouched until a full log-ring lap
// later, long after every such snapshot has been voided.
func (m *Map) deleteLocked(t *atlas.Thread, b int, key uint64, bump bool) (bool, error) {
	n, prev := m.findLocked(t, b, key)
	if n.IsNil() {
		return false, nil
	}
	next := t.Load(n.Addr() + nodeNext)
	if bump {
		m.writeBegin(b)
	}
	if prev.IsNil() {
		t.Store(m.bucketAddr(b), next)
	} else {
		t.Store(prev.Addr()+nodeNext, next)
	}
	if bump {
		m.writeEnd(b)
	}
	if err := t.FreeDeferred(n); err != nil {
		return false, err
	}
	return true, nil
}

// Stripe-level access, for layers that implement multi-key operations
// by locking for themselves: the cache server's batch pipeline takes one
// commit lock of its own, since one thread runs all of a shard's
// sections. The *Locked methods require the
// caller to hold a lock that excludes every other writer of the key's
// stripe — they perform no locking of their own, and no seqlock bumping
// either: the section owner brackets every stripe its group mutates with
// BeginStripeWrites before the first mutation and EndStripeWrites after
// the last, which holds the stripes odd for the whole section and makes
// the group atomic to optimistic readers (per-mutation brackets would
// leave the quiet windows between a group's mutations individually
// validatable — a cross-key reader could see half an mset).

// StripeSet is the stripes a multi-key section owner locks or brackets,
// as a bitset: Add each stripe its keys map to, and Sorted lists the
// distinct ones in ascending order — the order of ordered locking and of
// the seqlock bracket — and empties the set. Words at or past hi are
// zero, so emptying clears only the words below it. The zero value is
// an empty set.
type StripeSet struct {
	words []uint64
	hi    int
	list  []int
}

// Add puts stripe i in the set.
func (s *StripeSet) Add(i int) {
	w := i >> 6
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[w] |= 1 << (i & 63)
	s.hi = max(s.hi, w+1)
}

// Sorted empties the set into its stripes in ascending order, in a slice
// the next call reuses.
func (s *StripeSet) Sorted() []int {
	s.list = s.list[:0]
	for w, b := range s.words[:s.hi] {
		for ; b != 0; b &= b - 1 {
			s.list = append(s.list, w<<6|bits.TrailingZeros64(b))
		}
		s.words[w] = 0
	}
	s.hi = 0
	return s.list
}

// StripeOf returns the stripe-lock index covering key.
func (m *Map) StripeOf(key uint64) int { return m.stripe(m.bucketOf(key)) }

// StripeMutex returns stripe i's mutex.
func (m *Map) StripeMutex(i int) *atlas.Mutex { return m.mutexes[i] }

// GetLocked reads key under a caller-held stripe lock.
func (m *Map) GetLocked(t *atlas.Thread, key uint64) (uint64, bool, error) {
	if t == nil {
		return 0, false, ErrNoThread
	}
	t.MapTally(m.tel).Gets++
	n, _ := m.findLocked(t, m.bucketOf(key), key)
	if n.IsNil() {
		return 0, false, nil
	}
	return t.Load(n.Addr() + nodeValue), true, nil
}

// PutLocked writes key under a caller-held stripe lock and
// caller-owned seqlock bracket (see BeginStripeWrites).
func (m *Map) PutLocked(t *atlas.Thread, key, value uint64) error {
	if t == nil {
		return ErrNoThread
	}
	t.MapTally(m.tel).Puts++
	return m.putLocked(t, m.bucketOf(key), key, value, false)
}

// IncLocked adds delta to key's value (inserting delta if absent) under
// a caller-held stripe lock and seqlock bracket, returning the new
// value — Inc's body for layers that batch several operations into one
// critical section.
func (m *Map) IncLocked(t *atlas.Thread, key, delta uint64) (uint64, error) {
	if t == nil {
		return 0, ErrNoThread
	}
	t.MapTally(m.tel).Incs++
	return m.incLocked(t, m.bucketOf(key), key, delta, false)
}

// DeleteLocked unlinks key under a caller-held stripe lock and seqlock
// bracket, with the same deferred reclamation as Delete.
func (m *Map) DeleteLocked(t *atlas.Thread, key uint64) (bool, error) {
	if t == nil {
		return false, ErrNoThread
	}
	t.MapTally(m.tel).Deletes++
	return m.deleteLocked(t, m.bucketOf(key), key, false)
}

// TornUpdate is a fault-injection hook: it begins the critical section
// of an update to an EXISTING key, stores the new value, and returns
// without storing the integrity word and without closing the critical
// section — the state a crash landing mid-OCS would capture. The thread
// is left inside the OCS (holding the stripe mutex) and must not be used
// again; the caller is expected to crash the device next. Examples and
// fault-injection tests use it to land a crash at the most revealing
// instant deterministically.
func (m *Map) TornUpdate(t *atlas.Thread, key, value uint64) error {
	if t == nil {
		return ErrNoThread
	}
	b := m.bucketOf(key)
	t.Lock(m.mutexFor(b))
	n, _ := m.findLocked(t, b, key)
	if n.IsNil() {
		return fmt.Errorf("hashmap: TornUpdate: key %d not present", key)
	}
	// writeBegin with no matching writeEnd: the stripe sequence stays odd,
	// so optimistic readers fall back to the (held) stripe lock — i.e.
	// they block behind the torn writer exactly as the locked path would —
	// until the crash the caller is about to inject rebuilds the map and
	// its sequence counters.
	m.writeBegin(b)
	t.Store(n.Addr()+nodeValue, value)
	// No check-word store, no Unlock: the crash happens here.
	return nil
}

// VerifyReport summarizes a Verify pass.
type VerifyReport struct {
	Entries int
	Chains  int // non-empty buckets
}

// String renders the report for logs.
func (r VerifyReport) String() string {
	return fmt.Sprintf("hashmap{entries=%d chains=%d}", r.Entries, r.Chains)
}

// Verify walks every chain on a QUIESCENT map (no locks taken; recovery
// time or single-threaded tests), validating that each entry's integrity
// word matches its key/value, that chains are acyclic, and that each
// entry hashes to the bucket holding it. A non-nil error means the map
// is corrupt — which, for an unfortified map interrupted mid-update, is
// the expected observable outcome.
func (m *Map) Verify() (VerifyReport, error) {
	tal := m.heap.Device().Tally()
	defer tal.Publish()
	return m.walk(&tal, nil)
}

// Trace is the recovery collector's tracer (pheap.SetTracer) for the map
// whose descriptor is desc: Verify's walk, reaching the descriptor, the
// bucket array and every node, and offering every word it does not
// follow. It fails where Verify would: a collection with it verifies.
func Trace(heap *pheap.Heap, desc pheap.Ptr, mk *pheap.Marker) error {
	m, err := layout(heap, desc)
	if err != nil {
		return err
	}
	mk.Reach(desc)
	mk.Reach(m.array)
	mk.Offer(descMagic, uint64(m.nBuckets), uint64(m.stride))
	_, err = m.walk(mk.Tally, mk)
	return err
}

// walk is the body of Verify (mk nil) and of Trace.
func (m *Map) walk(tal *nvm.Tally, mk *pheap.Marker) (VerifyReport, error) {
	var rep VerifyReport
	var node [nodeWords]uint64
	for b := 0; b < m.nBuckets; b++ {
		n := pheap.Ptr(tal.Load(m.bucketAddr(b)))
		if !n.IsNil() {
			rep.Chains++
		}
		steps := 0
		for !n.IsNil() {
			steps++
			if steps > m.nBuckets*1024 {
				return rep, fmt.Errorf("%w: cycle suspected in bucket %d", ErrCorrupt, b)
			}
			tal.LoadBlock(n.Addr(), node[:])
			mk.Reach(n)
			mk.Offer(node[:nodeNext]...) // key, value, check: all but the link
			key, val := node[nodeKey], node[nodeValue]
			if node[nodeCheck] != checkWord(key, val) {
				return rep, fmt.Errorf("%w: entry key=%d val=%d in bucket %d", ErrCorrupt, key, val, b)
			}
			if m.bucketOf(key) != b {
				return rep, fmt.Errorf("%w: key %d misfiled in bucket %d", ErrCorrupt, key, b)
			}
			rep.Entries++
			n = pheap.Ptr(node[nodeNext])
		}
	}
	return rep, nil
}

// Range calls fn for every entry on a QUIESCENT map until fn returns
// false. Iteration order is unspecified.
func (m *Map) Range(fn func(key, value uint64) bool) {
	tal := m.heap.Device().Tally()
	defer tal.Publish()
	for b := 0; b < m.nBuckets; b++ {
		for n := pheap.Ptr(tal.Load(m.bucketAddr(b))); !n.IsNil(); n = pheap.Ptr(tal.Load(n.Addr() + nodeNext)) {
			if !fn(tal.Load(n.Addr()+nodeKey), tal.Load(n.Addr()+nodeValue)) {
				return
			}
		}
	}
}

// Len counts entries on a QUIESCENT map.
func (m *Map) Len() int {
	n := 0
	m.Range(func(_, _ uint64) bool { n++; return true })
	return n
}
