package pheap

import (
	"testing"

	"tsp/internal/nvm"
)

// allocStores allocates words payload words and returns the block and
// the device stores the allocation made.
func allocStores(t *testing.T, h *Heap, words int) (Ptr, uint64) {
	t.Helper()
	before := h.dev.Stats().Stores
	p, err := h.Alloc(words)
	if err != nil {
		t.Fatalf("Alloc(%d): %v", words, err)
	}
	return p, h.dev.Stats().Stores - before
}

// zeroPayload fails unless every payload word of p reads zero.
func zeroPayload(t *testing.T, what string, h *Heap, p Ptr) {
	t.Helper()
	n, err := h.SizeOf(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v := h.Load(p, i); v != 0 {
			t.Fatalf("%s: payload word %d of %d reads %#x", what, i, p, v)
		}
	}
}

// TestFormatOnUntouchedDeviceSkipsZeroing: a heap Formatted on a device
// no store has reached above the header carves blocks with two stores
// (header, bump pointer) and no zeroes; a recycled block is zeroed.
func TestFormatOnUntouchedDeviceSkipsZeroing(t *testing.T) {
	h := newHeapT(t, 1<<12)
	p, n := allocStores(t, h, 20)
	if n != 2 {
		t.Fatalf("carving a 20-word block made %d stores, want 2", n)
	}
	zeroPayload(t, "carved", h, p)
	for i := 0; i < 20; i++ {
		h.Store(p, i, uint64(i)+1)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	q, n := allocStores(t, h, 20)
	if q != p {
		t.Fatalf("the freed block was not recycled: %d, then %d", p, q)
	}
	if size, _ := h.SizeOf(q); n != uint64(1+size) {
		t.Fatalf("recycling a %d-word block made %d stores, want its header and every payload word", size, n)
	}
	zeroPayload(t, "recycled", h, q)
}

// TestFormatOnUsedDeviceZeroesBlocks: Format on a device that has held
// data above the header — unflushed, written back, or a formatted heap's
// blocks — still hands out zeroed blocks. So does a heap Open finds
// with garbage past its bump pointer.
func TestFormatOnUsedDeviceZeroesBlocks(t *testing.T) {
	scribble := func(dev *nvm.Device, flush bool) {
		for a := nvm.Addr(heapStart); a < 1024; a++ {
			dev.Store(a, 0xdead0000|uint64(a))
		}
		if flush {
			dev.FlushAll()
		}
	}
	for _, tc := range []struct {
		name string
		use  func(dev *nvm.Device)
	}{
		{"unflushed stores", func(dev *nvm.Device) { scribble(dev, false) }},
		{"written-back stores", func(dev *nvm.Device) { scribble(dev, true) }},
		{"a stored heap", func(dev *nvm.Device) {
			h, err := Format(dev)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				p, err := h.Alloc(1 + i%13)
				if err != nil {
					t.Fatal(err)
				}
				h.Store(p, 0, ^uint64(i))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := nvm.NewDevice(nvm.Config{Words: 1 << 12})
			tc.use(dev)
			h, err := Format(dev)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				p, err := h.Alloc(1 + i%13)
				if err != nil {
					t.Fatal(err)
				}
				zeroPayload(t, "after Format", h, p)
			}
		})
	}
	t.Run("Open", func(t *testing.T) {
		dev := nvm.NewDevice(nvm.Config{Words: 1 << 12})
		h, err := Format(dev)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := allocStores(t, h, 6)
		for i := 0; i < 6; i++ {
			h.Store(p, i, 7)
		}
		// The bump pointer falls back behind the block, as a torn
		// allocation's repair would leave it: its words stay on the device.
		dev.Store(hdrBump, uint64(p)-1)
		dev.FlushAll()
		dev.CrashDrop()
		dev.Restart()
		if h, err = Open(dev); err != nil {
			t.Fatal(err)
		}
		q, _ := allocStores(t, h, 6)
		if q != p {
			t.Fatalf("Open's heap carved %d, want the abandoned block %d", q, p)
		}
		zeroPayload(t, "after Open", h, q)
	})
}
