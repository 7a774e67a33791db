// Package cluster is the horizontal scale-out tier: a consistent-hash
// ring that maps the server's uint64 keyspace onto cache nodes through
// a fixed set of slots, and a routing proxy that multiplexes many
// frontend connections onto a few pipelined backend connections per
// node.
//
// Keys hash to one of NumSlots slots (the unit of ownership and of
// migration); slots map to nodes through the ring. The two-level
// scheme is what makes shards mobile: moving a slot is a bounded
// stream of state plus one ownership flip, while the key → slot
// mapping never changes. The ring's epoch counts ownership flips, so
// routing state can be compared and refreshed cheaply after a MOVED
// redirect.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// NumSlots is the fixed number of hash slots keys map onto. 64 keeps
// the slot → owner table one cache line per column while still letting
// a handful of nodes rebalance in small steps (redis uses 16384 for
// thousand-node clusters; this tier targets tens).
const NumSlots = 64

// SlotOf maps a key to its hash slot. It reuses the splitmix64
// finalizer the per-process shard router applies, but takes the TOP
// bits where shardOf takes bits 32..63 — the two placements stay
// independent, so a node's local shard balance survives any slot
// layout.
func SlotOf(key uint64) int {
	x := key
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int((x >> 58) % NumSlots)
}

// point is one virtual node on the hash circle.
type point struct {
	hash uint64
	node int // index into the ring's node list
}

// Ring is the slot → owner table plus the consistent-hash layout that
// seeds it. The layout (virtual-node points on a 64-bit circle) only
// decides the INITIAL owner of each slot; after that, ownership moves
// by explicit migration and the table is authoritative. An epoch
// counts ownership changes so cached routing state can be validated.
type Ring struct {
	mu     sync.RWMutex
	nodes  []string
	owners [NumSlots]string
	epoch  uint64
}

// DefaultVNodes is the proxy's virtual-node count per node, and
// NewRing's when a caller passes 0: enough points that 4 nodes land
// within a few slots of a perfect split.
const DefaultVNodes = 64

// NewRing builds a ring over nodes (backend addresses) with vnodes
// virtual points per node (0 = DefaultVNodes) and assigns every slot
// its initial owner by walking the hash circle. The assignment is
// deterministic in the node list, so a proxy and an operator script
// computing slot ranges for the same node list agree without talking.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	pts := make([]point, 0, len(nodes)*vnodes)
	for ni, addr := range nodes {
		for v := 0; v < vnodes; v++ {
			h := pointHash(addr, v)
			pts = append(pts, point{hash: h, node: ni})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].node < pts[j].node
	})
	r := &Ring{nodes: append([]string(nil), nodes...), epoch: 1}
	for s := 0; s < NumSlots; s++ {
		h := slotHash(s)
		i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
		if i == len(pts) {
			i = 0
		}
		r.owners[s] = r.nodes[pts[i].node]
	}
	return r, nil
}

// pointHash places virtual point v of a node on the circle.
func pointHash(addr string, v int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	h ^= uint64(v) + 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// slotHash places a slot on the circle.
func slotHash(s int) uint64 {
	x := uint64(s) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the node currently owning slot s.
func (r *Ring) Owner(s int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.owners[s]
}

// OwnerOfKey returns the node owning key's slot, and the slot.
func (r *Ring) OwnerOfKey(key uint64) (addr string, slot int) {
	slot = SlotOf(key)
	return r.Owner(slot), slot
}

// Epoch returns the ring epoch (starts at 1, bumps on every ownership
// change).
func (r *Ring) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// SetOwner moves slot s to addr, bumping the epoch. Unknown addresses
// join the node list (a migration target need not have been in the
// seed list).
func (r *Ring) SetOwner(s int, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.owners[s] == addr {
		return
	}
	r.owners[s] = addr
	known := false
	for _, n := range r.nodes {
		if n == addr {
			known = true
			break
		}
	}
	if !known {
		r.nodes = append(r.nodes, addr)
	}
	r.epoch++
}

// Nodes returns the node list (seed nodes plus any migration targets
// learned since).
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.nodes...)
}

// SlotsOf returns the sorted slots addr currently owns.
func (r *Ring) SlotsOf(addr string) []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []int
	for s, o := range r.owners {
		if o == addr {
			out = append(out, s)
		}
	}
	return out
}

// Table renders the slot → owner table as "lo-hi addr" lines grouped
// by contiguous runs — the cluster info text.
func (r *Ring) Table() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "CLUSTER epoch %d\r\n", r.epoch)
	for s := 0; s < NumSlots; {
		e := s
		for e+1 < NumSlots && r.owners[e+1] == r.owners[s] {
			e++
		}
		fmt.Fprintf(&b, "SLOTS %d-%d %s\r\n", s, e, r.owners[s])
		s = e + 1
	}
	b.WriteString("END")
	return b.String()
}

// FormatSlots renders a sorted slot list as a "lo-hi,lo" spec.
func FormatSlots(slots []int) string {
	var b strings.Builder
	for i := 0; i < len(slots); {
		j := i
		for j+1 < len(slots) && slots[j+1] == slots[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if i == j {
			fmt.Fprintf(&b, "%d", slots[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", slots[i], slots[j])
		}
		i = j + 1
	}
	return b.String()
}

// ParseSlots parses a "lo-hi,lo" slot spec into a slot set. The word
// "all" is every slot; "none" is the empty set — a fresh node joining
// a cluster with nothing, to be filled by migration.
func ParseSlots(spec string) (map[int]bool, error) {
	out := make(map[int]bool)
	switch spec {
	case "all":
		for s := 0; s < NumSlots; s++ {
			out[s] = true
		}
		return out, nil
	case "none":
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi := part, part
		if i := strings.IndexByte(part, '-'); i >= 0 {
			lo, hi = part[:i], part[i+1:]
		}
		var l, h int
		if _, err := fmt.Sscanf(lo, "%d", &l); err != nil {
			return nil, fmt.Errorf("cluster: bad slot spec %q", part)
		}
		if _, err := fmt.Sscanf(hi, "%d", &h); err != nil {
			return nil, fmt.Errorf("cluster: bad slot spec %q", part)
		}
		if l < 0 || h >= NumSlots || l > h {
			return nil, fmt.Errorf("cluster: slot range %q outside 0-%d", part, NumSlots-1)
		}
		for s := l; s <= h; s++ {
			out[s] = true
		}
	}
	return out, nil
}
