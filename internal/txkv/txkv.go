// Package txkv layers failure-atomic multi-key transactions over the
// mutex-based map — the payoff the paper's Section 4.2 machinery makes
// almost free. An Atlas outermost critical section is rolled back as a
// unit, so a transaction that acquires every stripe lock it needs and
// performs all its writes inside ONE OCS is crash-atomic by
// construction: a crash anywhere inside it (even between writes to
// different buckets) rolls the whole transaction back at recovery, and
// under TSP that costs nothing but the undo logging the runtime already
// pays.
//
// Concurrency control is conservative two-phase locking with ordered
// acquisition: the caller declares the transaction's key set up front;
// the affected stripe mutexes are locked in ascending index order (so
// concurrent transactions can never deadlock) and released in reverse
// after commit. Writes are buffered in volatile memory and applied at
// commit while every lock is still held — an aborted transaction
// (callback error) therefore touches nothing, with no runtime rollback
// machinery needed; only a CRASH mid-apply needs rollback, and that is
// exactly what Atlas recovery provides.
package txkv

import (
	"errors"
	"fmt"

	"tsp/internal/atlas"
	"tsp/internal/hashmap"
	"tsp/internal/pheap"
)

// Errors returned by the package.
var (
	ErrUndeclaredKey = errors.New("txkv: key not in the transaction's declared set")
	ErrTxnDone       = errors.New("txkv: transaction already finished")
)

// Store is a transactional key-value store.
type Store struct {
	rt *atlas.Runtime
	m  *hashmap.Map
}

// New creates a store with the given bucket shape (see hashmap.New).
func New(rt *atlas.Runtime, buckets, bucketsPerMutex int) (*Store, error) {
	m, err := hashmap.New(rt, buckets, bucketsPerMutex)
	if err != nil {
		return nil, err
	}
	return &Store{rt: rt, m: m}, nil
}

// Open attaches to an existing store via its descriptor pointer.
func Open(rt *atlas.Runtime, desc pheap.Ptr) (*Store, error) {
	m, err := hashmap.Open(rt, desc)
	if err != nil {
		return nil, err
	}
	return &Store{rt: rt, m: m}, nil
}

// Ptr returns the descriptor pointer for linking into root structures.
func (s *Store) Ptr() pheap.Ptr { return s.m.Ptr() }

// Map exposes the underlying map for single-key operations and
// quiescent verification.
func (s *Store) Map() *hashmap.Map { return s.m }

// writeOp is a buffered mutation.
type writeOp struct {
	del bool
	val uint64
}

// Txn is the handle the Update callback works with. It is valid only
// for the duration of the callback.
type Txn struct {
	s        *Store
	t        *atlas.Thread
	declared map[uint64]bool
	writes   map[uint64]writeOp
	order    []uint64 // write application order (deterministic commits)
	done     bool
}

// Get reads key k, observing the transaction's own earlier writes.
func (tx *Txn) Get(k uint64) (uint64, bool, error) {
	if tx.done {
		return 0, false, ErrTxnDone
	}
	if !tx.declared[k] {
		return 0, false, fmt.Errorf("%w: %d", ErrUndeclaredKey, k)
	}
	if op, ok := tx.writes[k]; ok {
		if op.del {
			return 0, false, nil
		}
		return op.val, true, nil
	}
	return tx.s.m.GetLocked(tx.t, k)
}

// Put buffers a write of k = v.
func (tx *Txn) Put(k, v uint64) error {
	if tx.done {
		return ErrTxnDone
	}
	if !tx.declared[k] {
		return fmt.Errorf("%w: %d", ErrUndeclaredKey, k)
	}
	if _, seen := tx.writes[k]; !seen {
		tx.order = append(tx.order, k)
	}
	tx.writes[k] = writeOp{val: v}
	return nil
}

// Delete buffers a removal of k.
func (tx *Txn) Delete(k uint64) error {
	if tx.done {
		return ErrTxnDone
	}
	if !tx.declared[k] {
		return fmt.Errorf("%w: %d", ErrUndeclaredKey, k)
	}
	if _, seen := tx.writes[k]; !seen {
		tx.order = append(tx.order, k)
	}
	tx.writes[k] = writeOp{del: true}
	return nil
}

// Add reads, adds delta, and buffers the result; it returns the new
// value.
func (tx *Txn) Add(k, delta uint64) (uint64, error) {
	v, _, err := tx.Get(k)
	if err != nil {
		return 0, err
	}
	nv := v + delta
	if err := tx.Put(k, nv); err != nil {
		return 0, err
	}
	return nv, nil
}

// Update runs fn as a failure-atomic transaction over the declared keys.
// If fn returns an error, nothing is applied and the error is returned.
// If fn succeeds, the buffered writes are applied inside the enclosing
// outermost critical section: a crash before the final stripe unlock
// rolls back every write at recovery; after it, all are durable (under
// the mode's usual guarantees).
func (s *Store) Update(t *atlas.Thread, keys []uint64, fn func(tx *Txn) error) error {
	if t == nil {
		return hashmap.ErrNoThread
	}
	// Collect and sort the distinct stripes; ordered acquisition makes
	// concurrent transactions deadlock-free.
	var stripes hashmap.StripeSet
	declared := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		declared[k] = true
		stripes.Add(s.m.StripeOf(k))
	}
	order := stripes.Sorted()
	mus := make([]*atlas.Mutex, len(order))
	for i, st := range order {
		mus[i] = s.m.StripeMutex(st)
	}

	// Section holds every stripe for the duration of fn plus the apply
	// phase; the final release closes the OCS and commits.
	return t.Section(mus, func() error {
		tx := &Txn{
			s:        s,
			t:        t,
			declared: declared,
			writes:   map[uint64]writeOp{},
		}
		if err := fn(tx); err != nil {
			tx.done = true
			return err // nothing applied; locks release with no stores made
		}
		tx.done = true
		// Apply the write set inside the OCS, in deterministic order,
		// holding every involved stripe's seqlock odd for the whole
		// apply phase: the *Locked variants do not bump on their own, and
		// a transaction must be atomic to optimistic readers too — a
		// per-write bracket would let a cross-key reader validate between
		// two writes of one transaction.
		if len(tx.order) > 0 {
			s.m.BeginStripes(order)
			defer s.m.EndStripes(order)
		}
		for _, k := range tx.order {
			op := tx.writes[k]
			if op.del {
				if _, err := s.m.DeleteLocked(t, k); err != nil {
					return err
				}
				continue
			}
			if err := s.m.PutLocked(t, k, op.val); err != nil {
				return err
			}
		}
		return nil
	})
}

// View runs fn with shared access to the declared keys (same locking as
// Update; the map's stripe mutexes are not reader-writer locks, so a
// view is simply an update that writes nothing).
func (s *Store) View(t *atlas.Thread, keys []uint64, fn func(tx *Txn) error) error {
	return s.Update(t, keys, func(tx *Txn) error {
		if err := fn(tx); err != nil {
			return err
		}
		if len(tx.writes) != 0 {
			return errors.New("txkv: View transaction attempted writes")
		}
		return nil
	})
}
