// Package telemetry is the stack-wide observability plane: lock-free
// atomic counters, fixed-bucket latency histograms, and a per-stack
// Registry that every layer of the storage stack (simulated NVM device,
// persistent heap, Atlas runtime, hash map, cache-server shard) reports
// into: one coherent picture of where persistence cost goes, the
// attribution the paper's Table 1 is built on (flushes vs. log writes
// vs. rescue work).
//
// Design constraints, in order:
//
//   - The disabled path must be essentially free. Every mutator is
//     nil-receiver safe, so a layer built without telemetry holds a nil
//     section pointer and pays one predictable branch per event — no
//     interface dispatch, no map lookup, no allocation.
//   - Nothing counted per simulated memory access touches shared
//     memory. The device's access counters (loads/stores/CAS) are kept
//     in an nvm.Tally — plain words owned by the goroutine doing an
//     operation — and reach DeviceStats as one atomic add per counter
//     per OPERATION (a critical section, an optimistic read, a recovery
//     pass). Every other counter here fires once per operation already
//     and is a single atomic add. A reader of the registry therefore
//     sees every finished operation exactly and may miss only the
//     accesses of operations still in flight.
//   - Snapshots are monotonic deltas. Counters only ever go up during an
//     incarnation; consumers diff two Snapshots (Sub) to attribute cost
//     to a window, and merge shards' Snapshots (Add) to aggregate.
//   - A metric is one row (rows.go): name, kind, scope, help and how to
//     read it from its section. Every surface is one renderer over the
//     rows (render.go) and `stats reset` one loop over them. Rows are
//     read-side only: counting stays one atomic add on a struct field.
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
