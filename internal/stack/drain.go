package stack

import (
	"fmt"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
)

// The epoch drain's persist point. A relaxed-tier overlay drains in two
// steps. The commit writes the snapshot out of place, as this payload:
// plain sequential stores of the records, then the length, then the
// commit word — no undo log, no chain walk. The commit word's store is
// the moment the whole snapshot is durable. The apply then runs the
// snapshot through the map in ordinary Atlas sections, the last of
// which marks the payload applied (MarkDrainApplied). A crash anywhere
// in between leaves a committed, unapplied payload, and Reattach replays
// it; its records are absolute sets and deletes, so a replay after a
// partial apply, or a second replay, lands the same state. A crash before
// the commit word leaves the previous, applied payload: the map holds
// all of a drain or none of it.
//
// Under ModeNonTSP nothing is durable until flushed, so the commit
// flushes the records and the length before it stores the commit word,
// and flushes that word too.

// DrainPayload is one epoch drain's payload being written; obtain it from
// BeginDrain, add each snapshot entry once, then Commit.
type DrainPayload struct {
	dev         *nvm.Device
	tal         nvm.Tally
	base        nvm.Addr
	lo, hi, end nvm.Addr // next set record, lowest delete record, record area end
	nontsp      bool
}

// BeginDrain readies the payload block for a snapshot of up to n entries,
// growing it (by replacement) when n could outgrow it. It fails if the
// previous payload was committed and never applied.
func (s *Stack) BeginDrain(n int) (DrainPayload, error) {
	tal := s.Dev.Tally()
	defer tal.Publish()
	if p := s.drainPtr; !p.IsNil() {
		if c := tal.Load(p.Addr() + drainCommitWord); c != tal.Load(p.Addr()+drainAppliedWord) {
			return DrainPayload{}, fmt.Errorf("stack: epoch drain payload %d was never applied", c)
		}
	}
	if 2*n > s.drainCap {
		if err := s.growDrain(2 * n); err != nil {
			return DrainPayload{}, err
		}
	}
	base := s.drainPtr.Addr()
	end := base + drainHdrWords + nvm.Addr(s.drainCap)
	return DrainPayload{
		dev: s.Dev, tal: s.Dev.Tally(), base: base,
		lo: base + drainHdrWords, hi: end, end: end,
		nontsp: s.cfg.mode == atlas.ModeNonTSP,
	}, nil
}

// growDrain replaces the payload block with one of at least words record
// words (doubling, from drainMinWords). The fresh block is zeroed —
// commit and applied both 0, nothing pending — and the old one held an
// applied payload, so the anchor store alone switches between two idle
// blocks; whichever one a crash orphans, recovery's collector reclaims.
func (s *Stack) growDrain(words int) error {
	words = max(words, 2*s.drainCap, drainMinWords)
	p, err := s.Heap.Alloc(drainHdrWords + words)
	if err != nil {
		return fmt.Errorf("stack: epoch drain payload: %w", err)
	}
	size, err := s.Heap.SizeOf(p)
	if err != nil {
		return fmt.Errorf("stack: epoch drain payload: %w", err)
	}
	nontsp := s.cfg.mode == atlas.ModeNonTSP
	if nontsp {
		s.Dev.FlushAll() // the zeroed block before the anchor naming it
	}
	s.Heap.SetAux(auxDrainSlot, p)
	if nontsp {
		s.Dev.FlushAll()
	}
	old := s.drainPtr
	s.drainPtr, s.drainCap = p, size-drainHdrWords
	return s.Heap.Free(old)
}

// Set records an absolute set of key to val.
func (w *DrainPayload) Set(key, val uint64) {
	w.tal.Store(w.lo, key)
	w.tal.Store(w.lo+1, val)
	w.lo += 2
}

// Delete records a delete of key.
func (w *DrainPayload) Delete(key uint64) {
	w.hi--
	w.tal.Store(w.hi, key)
}

// Commit stores the length and then the commit word: once it returns the
// payload is durable (given the mode's rescue) and pending until applied.
func (w *DrainPayload) Commit() {
	sets, dels := uint64(w.lo-w.base-drainHdrWords)/2, uint64(w.end-w.hi)
	w.tal.Store(w.base+drainLenWord, sets<<32|dels)
	if w.nontsp {
		w.dev.FlushRange(w.base+drainLenWord, uint64(w.lo-w.base-drainLenWord))
		w.dev.FlushRange(w.hi, uint64(w.end-w.hi))
	}
	w.tal.Store(w.base+drainCommitWord, w.tal.Load(w.base+drainAppliedWord)+1)
	if w.nontsp {
		w.dev.FlushWord(w.base + drainCommitWord)
	}
	w.tal.Publish()
}

// NewThread registers an Atlas thread on the stack's runtime — or, the
// first time after a Reattach that replayed a drain payload, returns the
// replay's thread: released, its slot would cost the next thread a
// scrubbed log ring, on the crash-to-serving path.
func (s *Stack) NewThread() (*atlas.Thread, error) {
	if th := s.replayTh; th != nil {
		s.replayTh = nil
		return th, nil
	}
	return s.RT.NewThread()
}

// MarkDrainApplied marks the committed payload applied. It is a store of
// th's open section — the apply's last — so the mark commits, or rolls
// back, with the map writes beside it.
func (s *Stack) MarkDrainApplied(th *atlas.Thread) {
	if p := s.drainPtr; !p.IsNil() {
		th.Store(p.Addr()+drainAppliedWord, th.Load(p.Addr()+drainCommitWord))
	}
}

// replayDrain attaches the payload block and, if a payload is committed
// but not applied, applies it to the map — one section per record —
// marks it applied and verifies the map it leaves (recovery's collector
// verified the map before the replay). Run by Reattach after Atlas
// recovery, so a partial apply has already rolled back to a section
// boundary. The replay's thread stays registered for NewThread to hand
// out.
func (s *Stack) replayDrain() error {
	p := s.Heap.Aux(auxDrainSlot)
	if p.IsNil() {
		return nil
	}
	size, err := s.Heap.SizeOf(p)
	if err != nil {
		return fmt.Errorf("stack: epoch drain payload: %w", err)
	}
	s.drainPtr, s.drainCap = p, size-drainHdrWords
	tal := s.Dev.Tally()
	defer tal.Publish()
	base := p.Addr()
	commit := tal.Load(base + drainCommitWord)
	if commit == tal.Load(base+drainAppliedWord) {
		return nil
	}
	th, err := s.RT.NewThread()
	if err != nil {
		return fmt.Errorf("stack: epoch drain replay: %w", err)
	}
	s.replayTh = th
	n := tal.Load(base + drainLenWord)
	rec, end := base+drainHdrWords, base+drainHdrWords+nvm.Addr(s.drainCap)
	for i := nvm.Addr(0); i < nvm.Addr(n>>32); i++ {
		if err := s.Map.Put(th, tal.Load(rec+2*i), tal.Load(rec+2*i+1)); err != nil {
			return fmt.Errorf("stack: epoch drain replay: %w", err)
		}
	}
	for i := nvm.Addr(1); i <= nvm.Addr(n&(1<<32-1)); i++ {
		if _, err := s.Map.Delete(th, tal.Load(end-i)); err != nil {
			return fmt.Errorf("stack: epoch drain replay: %w", err)
		}
	}
	tal.Store(base+drainAppliedWord, commit)
	if s.cfg.mode == atlas.ModeNonTSP {
		s.Dev.FlushWord(base + drainAppliedWord)
	}
	if _, err := s.Map.Verify(); err != nil {
		return fmt.Errorf("stack: epoch drain replay: %w", err)
	}
	return nil
}
