// Package telemetry is the stack-wide observability plane: lock-free
// atomic counters, fixed-bucket latency histograms, and a per-stack
// Registry that every layer of the storage stack (simulated NVM device,
// persistent heap, Atlas runtime, hash map, cache-server shard) reports
// into. Before this package existed each layer reinvented its own
// snapshot/reset scheme (nvm.Stats, the cache server's shardStats, the
// harness's hand-rolled sample merging) with no way to see one coherent
// picture of where persistence cost goes — the very attribution the
// paper's Table 1 is built on (flushes vs. log writes vs. rescue work).
//
// Design constraints, in order:
//
//   - The disabled path must be essentially free. Every mutator is
//     nil-receiver safe, so a layer built without telemetry holds a nil
//     section pointer and pays one predictable branch per event — no
//     interface dispatch, no map lookup, no allocation.
//   - The enabled hot path is atomics only. High-frequency device
//     counters (loads/stores/CAS) are sharded across padded cache lines
//     exactly as nvm.Stats was, so counting never serializes the
//     simulation on counter-line ping-pong.
//   - Snapshots are monotonic deltas. Counters only ever go up during an
//     incarnation; consumers diff two Snapshots (Sub) to attribute cost
//     to a window, and merge shards' Snapshots (Add) to aggregate.
package telemetry

import "sync/atomic"

// Counter is a lock-free monotonic event counter. All methods are safe
// on a nil receiver, which is the "telemetry off" fast path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter. Resets are for test isolation and explicit
// operator action only; live consumers should diff snapshots instead.
func (c *Counter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// counterShards is the sharding degree of ShardedCounter. Sixteen padded
// lines keep a simulated many-core workload from serializing on one
// counter word while costing only 2 KiB per counter.
const counterShards = 16

// paddedCounter occupies a full cache line so shards never false-share.
type paddedCounter struct {
	v atomic.Uint64
	_ [7]uint64
}

// ShardedCounter is a Counter sharded across padded cache lines for
// counters incremented on every simulated memory access. The hint
// (typically the address being accessed) picks the shard, so concurrent
// workers touching different addresses bump different lines.
type ShardedCounter struct {
	shards [counterShards]paddedCounter
}

// Inc adds one to the shard selected by hint.
func (c *ShardedCounter) Inc(hint uint64) {
	if c != nil {
		c.shards[hint&(counterShards-1)].v.Add(1)
	}
}

// Add adds n to the shard selected by hint.
func (c *ShardedCounter) Add(hint, n uint64) {
	if c != nil {
		c.shards[hint&(counterShards-1)].v.Add(n)
	}
}

// Load sums all shards (0 on nil).
func (c *ShardedCounter) Load() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Reset zeroes every shard.
func (c *ShardedCounter) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}
