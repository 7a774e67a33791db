package stack

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tsp/internal/hashmap"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// Recovery verifies the hash map inside its collection (hashmap.Trace):
// these tests give that walk its teeth and check what it keeps.

// The map's persistent layout, as the corruptions below need it: the
// descriptor's bucket count and array words, and a node's check and
// next words.
const (
	tDescBuckets = 1
	tDescArray   = 3
	tNodeCheck   = 2
	tNodeNext    = 3
)

// traceStack is a small crashed-and-restarted stack holding keys 0..n-1
// in a map of nb buckets, 16 a stripe; with n at four times nb, most
// chains hold two nodes or more.
func traceStack(t *testing.T, n uint64, nb int, extra func(s *Stack)) *nvm.Device {
	t.Helper()
	s, err := New(WithDeviceWords(1<<16), WithBuckets(nb, 16))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	th, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	for k := uint64(0); k < n; k++ {
		if err := s.Map.Put(th, k, k*10); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if extra != nil {
		extra(s)
	}
	s.Dev.Crash(nvm.CrashOptions{RescueFraction: 1})
	s.Dev.Restart()
	return s.Dev
}

// buckets returns the map's bucket array address and bucket count, read
// from the heap root's directory.
func buckets(t *testing.T, dev *nvm.Device) (nvm.Addr, int) {
	t.Helper()
	heap, err := pheap.Open(dev)
	if err != nil {
		t.Fatalf("pheap.Open: %v", err)
	}
	desc := nvm.Addr(heap.Load(heap.Root(), rootMapWord))
	return nvm.Addr(dev.Load(desc + tDescArray)), int(dev.Load(desc + tDescBuckets))
}

// chain returns bucket b's nodes in chain order.
func chain(dev *nvm.Device, array nvm.Addr, b int) []nvm.Addr {
	var nodes []nvm.Addr
	for n := nvm.Addr(dev.Load(array + nvm.Addr(b))); n != 0; n = nvm.Addr(dev.Load(n + tNodeNext)) {
		nodes = append(nodes, n)
	}
	return nodes
}

// longChain returns the first bucket from bucket from on holding at
// least two nodes, and its nodes.
func longChain(t *testing.T, dev *nvm.Device, from int) (int, []nvm.Addr) {
	t.Helper()
	array, nb := buckets(t, dev)
	for b := from; b < nb; b++ {
		if c := chain(dev, array, b); len(c) >= 2 {
			return b, c
		}
	}
	t.Fatal("no chain of two nodes")
	return 0, nil
}

// TestReattachRefusesCorruptMap corrupts the map of a restarted device
// in each way Verify names and requires Reattach to fail with
// hashmap.ErrCorrupt, for that reason, in that bucket. Recovery no longer
// calls Verify itself: the collector's trace is the check, so a trace
// that skips one of its tests fails here. The walk reads bucket heads 256
// at a time, so each corruption is planted in the first block of a
// 64-bucket map and past the first block of a 1024-bucket one.
func TestReattachRefusesCorruptMap(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dev *nvm.Device, from int) string
	}{
		{"check word", func(t *testing.T, dev *nvm.Device, from int) string {
			b, c := longChain(t, dev, from)
			dev.Store(c[0]+tNodeCheck, dev.Load(c[0]+tNodeCheck)^1)
			return fmt.Sprintf("in bucket %d", b)
		}},
		{"misfiled key", func(t *testing.T, dev *nvm.Device, from int) string {
			// The next bucket's chain now starts with a node hashed to
			// this one.
			b, c := longChain(t, dev, from)
			array, _ := buckets(t, dev)
			dev.Store(array+nvm.Addr(b+1), uint64(c[0]))
			return fmt.Sprintf("misfiled in bucket %d", b+1)
		}},
		{"two-node cycle", func(t *testing.T, dev *nvm.Device, from int) string {
			b, c := longChain(t, dev, from)
			dev.Store(c[1]+tNodeNext, uint64(c[0]))
			return fmt.Sprintf("cycle suspected in bucket %d", b)
		}},
	}
	for _, nb := range []int{64, 1024} {
		for _, tc := range cases {
			name := tc.name
			if nb > 256 {
				name += " past the first block"
			}
			t.Run(name, func(t *testing.T) {
				dev := traceStack(t, uint64(4*nb), nb, nil)
				want := tc.corrupt(t, dev, nb/4)
				_, err := Reattach(dev, WithBuckets(nb, 16))
				if !errors.Is(err, hashmap.ErrCorrupt) || !strings.Contains(err.Error(), want) {
					t.Fatalf("Reattach = %v, want hashmap.ErrCorrupt (%q)", err, want)
				}
			})
		}
		// The same device, uncorrupted, recovers.
		if _, err := Reattach(traceStack(t, uint64(4*nb), nb, nil), WithBuckets(nb, 16)); err != nil {
			t.Fatalf("Reattach of an intact %d-bucket map: %v", nb, err)
		}
	}
}

// TestTraceKeepsBlocksNamedByKeysAndValues: the trace follows a node's
// next word only, so a block whose address is a node's key, or its value,
// is reached by the trace's offer alone, and must survive the collection;
// a block nothing names is reclaimed beside them.
func TestTraceKeepsBlocksNamedByKeysAndValues(t *testing.T) {
	var byKey, byValue, leaked pheap.Ptr
	dev := traceStack(t, 32, 64, func(s *Stack) {
		var err error
		for _, p := range []*pheap.Ptr{&byKey, &byValue, &leaked} {
			if *p, err = s.Heap.Alloc(2); err != nil {
				t.Fatalf("alloc: %v", err)
			}
		}
		th, err := s.RT.NewThread()
		if err != nil {
			t.Fatalf("thread: %v", err)
		}
		if err := s.Map.Put(th, uint64(byKey), 1); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := s.Map.Put(th, 1000, uint64(byValue)); err != nil {
			t.Fatalf("put: %v", err)
		}
	})
	s, err := Reattach(dev, WithBuckets(64, 16))
	if err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	if s.Recovery.GC.BlocksFreed != 1 {
		t.Fatalf("recovery freed %d blocks, want 1 (the unnamed one)", s.Recovery.GC.BlocksFreed)
	}
	allocated := map[pheap.Ptr]bool{}
	if err := s.Heap.Blocks(func(p pheap.Ptr, _ int, a bool) bool { allocated[p] = a; return true }); err != nil {
		t.Fatal(err)
	}
	if !allocated[byKey] || !allocated[byValue] || allocated[leaked] {
		t.Fatalf("after recovery: named by a key %v, by a value %v, by nothing %v; want true, true, false",
			allocated[byKey], allocated[byValue], allocated[leaked])
	}
}
