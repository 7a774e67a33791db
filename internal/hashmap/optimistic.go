// Optimistic (seqlock) read path: the paper's recovery-observer argument
// (Section 4.1) made executable. A reader never writes, so it needs zero
// persistence work under TSP — no undo log, no flushes, no mutex. What it
// does need is a consistency witness, because the mutex-based update
// passes through states that violate the map's invariants (the two-store
// value/check update, the unlink of a node mid-chain). The per-stripe
// sequence counter is that witness: readers snapshot it, walk the chain
// with atomic loads straight off the device, and revalidate; if any
// writer bumped the stripe in between, the snapshot is void and the
// reader retries. After optimisticAttempts void snapshots the reader
// falls back to the locked Get, so writers under 100% churn delay
// readers but never livelock them.
//
// Safety of the speculative walk (no locks held, writers concurrent):
//   - Every word access is an atomic load on the simulated NVM device, so
//     the race detector is clean by construction.
//   - A torn pointer (next/head read mid-unlink) can point anywhere; the
//     walk dereferences through nvm's TryLoad, which range-checks
//     instead of panicking, and any such interleaving also bumped the
//     sequence, so the garbage value is discarded at validation.
//   - Freed node memory cannot be recycled under a reader's feet: Delete
//     unlinks inside a seqlock bump and reclaims through FreeDeferred,
//     which waits a full log-ring lap — by the time the block is
//     reusable, every snapshot that could have seen it is long void.
//   - A cyclic chain (transient, assembled from torn pointers) cannot
//     hang the reader: the walk gives up after optimisticMaxSteps and
//     retries.
package hashmap

import (
	"sync/atomic"

	"tsp/internal/nvm"
)

const (
	// optimisticAttempts bounds how many void snapshots a reader tolerates
	// before taking the stripe lock. Small on purpose: a failed snapshot
	// means a writer is active on the stripe, and under sustained writes
	// the locked path is the fair queue. Measured across 1/2/4/8 (see
	// EXPERIMENTS.md): the read benchmarks are flat in this knob, so 4
	// stays as the bounded-delay middle ground.
	optimisticAttempts = 4

	// optimisticMaxSteps bounds one speculative chain walk. Chains are
	// expected to hold a handful of nodes; a walk this long means the
	// reader is chasing torn pointers and should revalidate.
	optimisticMaxSteps = 4096
)

// GetOptimistic attempts a lock-free read of key. It returns
// (value, ok, true) when a snapshot validated — ok reporting presence,
// exactly as Get would — and (0, false, false) when the retry budget was
// exhausted, in which case the caller must re-run the read under the
// stripe lock (Get). It takes no atlas.Thread: the whole point is that
// the reader participates in no critical section.
//
// The read is one device operation: its loads, retried walks included,
// are counted in a tally on this frame and published once on return.
func (m *Map) GetOptimistic(key uint64) (value uint64, ok, valid bool) {
	tal := m.heap.Device().Tally()
	defer tal.Publish()
	for attempt := 0; attempt < optimisticAttempts; attempt++ {
		value, ok, valid = m.getAttempt(&tal, key)
		if valid {
			m.tel.IncOptGet()
			m.tel.IncGet()
			return value, ok, true
		}
		m.tel.IncOptRetry()
	}
	m.tel.IncOptFallback()
	return 0, false, false
}

// MGetOptimistic attempts lock-free reads of keys[i] into vals[i]/oks[i],
// setting valid[i] per key and returning how many validated. Invalid
// entries (retry budget exhausted) must be re-read under the stripe lock
// by the caller; the slices let a server resolve a whole mget with one
// pass and fall back only for the contended minority.
func (m *Map) MGetOptimistic(keys, vals []uint64, oks, valid []bool) (nValid int) {
	for i, key := range keys {
		v, ok, okSnap := m.GetOptimistic(key)
		vals[i], oks[i], valid[i] = v, ok, okSnap
		if okSnap {
			nValid++
		}
	}
	return nValid
}

// getAttempt is one snapshot-walk-validate cycle.
func (m *Map) getAttempt(tal *nvm.Tally, key uint64) (value uint64, ok, valid bool) {
	b := m.bucketOf(key)
	seqAddr := &m.seqs[b/m.stride].v
	seq := atomic.LoadUint64(seqAddr)
	if seq&1 != 0 { // writer in the stripe's critical section right now
		return 0, false, false
	}
	n, live := tal.TryLoad(m.bucketAddr(b))
	steps := 0
	for live && n != 0 {
		steps++
		if steps > optimisticMaxSteps {
			return 0, false, false
		}
		k, kLive := tal.TryLoad(nvm.Addr(n) + nodeKey)
		if !kLive {
			return 0, false, false
		}
		if k == key {
			v, vLive := tal.TryLoad(nvm.Addr(n) + nodeValue)
			if !vLive || atomic.LoadUint64(seqAddr) != seq {
				return 0, false, false
			}
			return v, true, true
		}
		n, live = tal.TryLoad(nvm.Addr(n) + nodeNext)
	}
	if !live || atomic.LoadUint64(seqAddr) != seq {
		return 0, false, false
	}
	return 0, false, true // validated miss
}
