package cluster

import (
	"testing"
)

// SlotOf must be a pure function of the key, land inside the slot
// space, and stay independent of the per-process shard router (bits
// 32..63): keys that share a shard must not all share a slot.
func TestSlotOf(t *testing.T) {
	for key := uint64(0); key < 10_000; key++ {
		s := SlotOf(key)
		if s < 0 || s >= NumSlots {
			t.Fatalf("SlotOf(%d) = %d, outside 0-%d", key, s, NumSlots-1)
		}
		if s != SlotOf(key) {
			t.Fatalf("SlotOf(%d) not deterministic", key)
		}
	}
	// Coverage: 10k sequential keys should touch every slot.
	seen := make(map[int]int)
	for key := uint64(0); key < 10_000; key++ {
		seen[SlotOf(key)]++
	}
	if len(seen) != NumSlots {
		t.Fatalf("10k keys hit %d/%d slots", len(seen), NumSlots)
	}
	// Balance: no slot should hold more than 4x its fair share.
	fair := 10_000 / NumSlots
	for s, n := range seen {
		if n > 4*fair {
			t.Fatalf("slot %d holds %d keys (fair share %d)", s, n, fair)
		}
	}
}

// The initial assignment must be deterministic in the node list and
// cover every slot, and each node must own something at the default
// vnode count.
func TestNewRingDeterministic(t *testing.T) {
	nodes := []string{"10.0.0.1:11222", "10.0.0.2:11222", "10.0.0.3:11222", "10.0.0.4:11222"}
	a, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < NumSlots; s++ {
		if a.Owner(s) != b.Owner(s) {
			t.Fatalf("slot %d: %q vs %q across identical rings", s, a.Owner(s), b.Owner(s))
		}
		if a.Owner(s) == "" {
			t.Fatalf("slot %d unowned after NewRing", s)
		}
	}
	for _, n := range nodes {
		if len(a.SlotsOf(n)) == 0 {
			t.Fatalf("node %s owns no slots at DefaultVNodes", n)
		}
	}
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("NewRing(nil) succeeded")
	}
}

// SetOwner must move exactly one slot, bump the epoch, learn unknown
// targets, and be idempotent.
func TestRingSetOwner(t *testing.T) {
	r, err := NewRing([]string{"a:1", "b:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Epoch(); got != 1 {
		t.Fatalf("fresh epoch = %d, want 1", got)
	}
	r.SetOwner(7, "c:1")
	if got := r.Owner(7); got != "c:1" {
		t.Fatalf("Owner(7) = %q after SetOwner", got)
	}
	if got := r.Epoch(); got != 2 {
		t.Fatalf("epoch after move = %d, want 2", got)
	}
	r.SetOwner(7, "c:1") // idempotent: no epoch bump
	if got := r.Epoch(); got != 2 {
		t.Fatalf("epoch after no-op move = %d, want 2", got)
	}
	found := false
	for _, n := range r.Nodes() {
		if n == "c:1" {
			found = true
		}
	}
	if !found {
		t.Fatal("migration target not learned into the node list")
	}
}

// FormatSlots and ParseSlots must round-trip any slot set, including
// each node's slots of a live ring.
func TestSlotSpecRoundTrip(t *testing.T) {
	cases := [][]int{
		{0},
		{0, 1, 2, 3},
		{5, 7, 9},
		{0, 1, 2, 10, 11, 63},
	}
	for _, slots := range cases {
		spec := FormatSlots(slots)
		set, err := ParseSlots(spec)
		if err != nil {
			t.Fatalf("ParseSlots(%q): %v", spec, err)
		}
		if len(set) != len(slots) {
			t.Fatalf("%q parsed to %d slots, want %d", spec, len(set), len(slots))
		}
		for _, s := range slots {
			if !set[s] {
				t.Fatalf("%q lost slot %d", spec, s)
			}
		}
	}

	all, err := ParseSlots("all")
	if err != nil || len(all) != NumSlots {
		t.Fatalf(`ParseSlots("all") = %d slots, err %v`, len(all), err)
	}
	for _, bad := range []string{"x", "1-", "-3", "5-4", "64", "0-64"} {
		if _, err := ParseSlots(bad); err == nil {
			t.Fatalf("ParseSlots(%q) succeeded", bad)
		}
	}

	r, err := NewRing([]string{"a:1", "b:1", "c:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range r.Nodes() {
		set, err := ParseSlots(FormatSlots(r.SlotsOf(n)))
		if err != nil {
			t.Fatalf("slots of %s unparseable: %v", n, err)
		}
		for s := range set {
			if r.Owner(s) != n {
				t.Fatalf("slots of %s claim slot %d owned by %s", n, s, r.Owner(s))
			}
		}
		total += len(set)
	}
	if total != NumSlots {
		t.Fatalf("node specs cover %d/%d slots", total, NumSlots)
	}
}
