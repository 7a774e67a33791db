package nvm

import (
	"fmt"
	"sync/atomic"
)

// SnapshotPersisted returns a copy of the persisted image. It is meant to
// be taken on a quiescent or crashed device (the persist package writes
// it to a file to survive real process restarts); taking it while threads
// run yields a word-atomic but line-torn view, like reading NVM from a
// bus analyzer.
func (d *Device) SnapshotPersisted() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, len(d.persisted))
	for w := range out {
		out[w] = d.persistedLoad(uint64(w))
	}
	return out
}

// RestorePersisted replaces the persisted image with img, which must have
// exactly the device's word count. Callers normally follow it with
// Restart so the volatile image re-reads the restored state. Every line
// the restore changes is marked dirty — its volatile content now differs
// from its persisted content — which is what makes that Restart re-read
// it (the clean-line invariant, see writeBack).
func (d *Device) RestorePersisted(img []uint64) error {
	if len(img) != len(d.persisted) {
		return fmt.Errorf("nvm: snapshot has %d words, device has %d", len(img), len(d.persisted))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for w, v := range img {
		if atomic.LoadUint64(&d.persisted[w]) != v {
			atomic.StoreUint64(&d.persisted[w], v)
			d.markDirty(Addr(w))
		}
	}
	return nil
}
