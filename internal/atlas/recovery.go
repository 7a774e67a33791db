package atlas

import (
	"fmt"
	"sort"

	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// Recovery. After a crash, the persistent heap may contain the effects
// of outermost critical sections that were still running (no durable
// final release) and — through happens-before edges — of completed
// OCSes that observed their data. Recover restores the heap to a
// consistent cut:
//
//  1. scan every slot of every thread's log ring for valid current-epoch
//     records (checksums reject torn or never-written slots; the epoch
//     rejects records truncated by a previous recovery);
//  2. group records by (thread, OCS ordinal). A group holding its
//     opening acquire (the acquire that took the thread's held count
//     from 0 to 1, flagged at append time) is fully captured: it is
//     complete iff its acquires and releases balance. A group WITHOUT
//     its opening acquire is the partially overwritten tail of an old,
//     long-committed OCS — the ring overwrote its head precisely because
//     the thread kept logging afterwards — and is ignored;
//  3. cascade: if a rolled-back OCS released mutex M, every OCS that
//     acquired M after that release may have observed its writes and is
//     rolled back too (the Section 2.3 situation of the Atlas papers),
//     transitively;
//  4. apply the undo records of all rolled-back OCSes in descending
//     global-sequence order — each record restores the value a location
//     held just before its first store in that OCS, so the replay is
//     self-sufficient even when the data stores themselves never became
//     durable;
//  5. make the restored state durable, truncate the logs by bumping the
//     epoch, and run the heap's conservative collector to reclaim blocks
//     leaked by the crash. The log rings are kept but not scanned: their
//     records are dead after the bump, and the old values they hold
//     include the addresses of blocks unlinked inside committed OCSes
//     and still awaiting FreeDeferred — exactly the leaks to reclaim.
//
// Soundness of ignoring partial groups rests on the ring-capacity
// assumption the runtime enforces at append time: an OCS never outlives
// one full lap of its own ring, so any group whose head was overwritten
// must have finished long before the crash (its thread appended a whole
// ring of records afterwards), and its durability is guaranteed by the
// mode's commit discipline (commit flush in non-TSP mode; the rescue in
// TSP mode).
//
// Recover must run before atlas.New on a reopened heap and with no
// mutators running, which recovery time guarantees by construction.

// Report summarizes a recovery pass.
type Report struct {
	EntriesScanned int // valid log records found
	OCSes          int // fully captured OCS groups
	IgnoredPartial int // partially overwritten old groups skipped
	Incomplete     int // OCSes lacking a durable final release
	Cascaded       int // completed OCSes rolled back via happens-before
	UndoApplied    int // undo records replayed
	GC             pheap.GCReport
}

// String renders the report for logs.
func (r Report) String() string {
	return fmt.Sprintf("atlas recovery{entries=%d ocses=%d partial=%d incomplete=%d cascaded=%d undone=%d, gc: freed %d blocks}",
		r.EntriesScanned, r.OCSes, r.IgnoredPartial, r.Incomplete, r.Cascaded, r.UndoApplied, r.GC.BlocksFreed)
}

// ocsKey identifies a reconstructed OCS: the thread and the ordinal of
// its group among that thread's recovered history (derived during the
// depth walk; ordinals are not stored in records).
type ocsKey struct{ thread, ocs uint64 }

// ocsGroup is one OCS's records: a thread's records sorted by sequence
// number are in append order, so a group is a contiguous run of them.
type ocsGroup struct {
	entries  []entry // in append (sequence) order; a subslice of the thread's sorted records
	complete bool    // final release observed (depth returned to 0)
}

// lockEvent is an acquire or release of a mutex by an OCS.
type lockEvent struct {
	seq     uint64
	acquire bool
	owner   ocsKey
}

// Recover scans the Atlas log rings on heap and rolls back every OCS cut
// short by (or transitively dependent on one cut short by) the crash.
// It is a no-op returning a zero Report if the heap carries no Atlas
// directory — e.g. for programs using only non-blocking structures,
// where Section 4.1 promises recovery needs no mechanism at all.
func Recover(heap *pheap.Heap) (Report, error) {
	var rep Report
	dirPtr := heap.Aux(AuxLogDir)
	if dirPtr.IsNil() {
		// Not Atlas-fortified; nothing to roll back. Still collect
		// leaked blocks so the two case studies get the same GC service.
		gc, err := heap.GC()
		if err != nil {
			return rep, err
		}
		rep.GC = gc
		return rep, nil
	}
	dev := heap.Device()
	// One tally for the scan and the undo replay (the ring scan is the
	// bulk of a recovery's loads), published before the collector runs
	// with its own.
	tal := dev.Tally()
	defer tal.Publish()
	dir := logDir{dev: dev, p: dirPtr, tal: &tal}
	if dir.magic() != dirMagic {
		return rep, fmt.Errorf("atlas: log directory corrupt (bad magic)")
	}
	epoch := dir.epoch()

	// 1: scan every ring slot per thread; sort valid records by sequence
	// number, which recovers exact append order (per-thread sequence
	// numbers are strictly increasing, and the ring holds a contiguous
	// suffix of the thread's history).
	//
	// 2: regroup by the acquire/release depth walk. Records before the
	// first OCS-opening acquire are the partially overwritten tail of an
	// old, long-committed OCS and are skipped; after that, an opening
	// acquire starts a group and the release that balances its depth
	// completes it.
	groups := map[ocsKey]*ocsGroup{}
	var rings []pheap.Ptr
	for tid := 0; tid < dir.maxThreads(); tid++ {
		buf := dir.buf(tid)
		if buf.IsNil() {
			continue
		}
		rings = append(rings, buf)
		base := alignedLogBase(buf)
		var recs []entry
		for slot := 0; slot < dir.entries(); slot++ {
			e, ok := readEntry(&tal, base+nvm.Addr(slot*entryWords), uint64(tid), epoch)
			if !ok {
				continue // empty, torn, or stale slot
			}
			recs = append(recs, e)
		}
		rep.EntriesScanned += len(recs)
		sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })

		// Groups come from one slab per thread, sized by its opening
		// acquires; a group's entries are a run of recs, not a copy.
		opens := 0
		for _, e := range recs {
			if e.kind == entryAcquire && e.opening {
				opens++
			}
		}
		slab := make([]ocsGroup, 0, opens)
		var cur *ocsGroup
		start := 0 // index in recs of cur's opening acquire
		depth := 0
		sawPartial := false
		for i, e := range recs {
			if cur == nil && !(e.kind == entryAcquire && e.opening) {
				sawPartial = true // overwritten head of an old OCS
				continue
			}
			if e.kind == entryAcquire && e.opening {
				// If the previous OCS never closed, its tail records were
				// lost (possible only in the unsound TSP-without-rescue
				// scenario) and it stays incomplete.
				depth = 0
				slab = append(slab, ocsGroup{})
				cur, start = &slab[len(slab)-1], i
				groups[ocsKey{uint64(tid), uint64(len(slab))}] = cur
			}
			cur.entries = recs[start : i+1]
			switch e.kind {
			case entryAcquire:
				depth++
			case entryRelease:
				depth--
				if depth <= 0 {
					cur.complete = true
					cur = nil
					depth = 0
				}
			}
		}
		if sawPartial {
			rep.IgnoredPartial++
		}
	}

	// Seed the rollback set and build the per-mutex event lists for
	// cascade analysis.
	events := map[uint64][]lockEvent{} // mutex id -> events
	rollback := map[ocsKey]bool{}
	for k, g := range groups {
		rep.OCSes++
		if !g.complete {
			rollback[k] = true
			rep.Incomplete++
		}
		for _, e := range g.entries {
			if e.kind == entryAcquire || e.kind == entryRelease {
				events[e.a] = append(events[e.a], lockEvent{
					seq:     e.seq,
					acquire: e.kind == entryAcquire,
					owner:   k,
				})
			}
		}
	}

	// 3: close the rollback set under the released-then-acquired
	// relation.
	for id := range events {
		sort.Slice(events[id], func(i, j int) bool { return events[id][i].seq < events[id][j].seq })
	}
	for changed := true; changed; {
		changed = false
		for _, evs := range events {
			tainted := false
			for _, ev := range evs {
				if !ev.acquire && rollback[ev.owner] {
					tainted = true
					continue
				}
				if ev.acquire && tainted && !rollback[ev.owner] {
					rollback[ev.owner] = true
					rep.Cascaded++
					changed = true
				}
			}
		}
	}

	// 4: replay undo records of the rollback set in descending global
	// sequence order.
	var undo []entry
	for k := range rollback {
		if g := groups[k]; g != nil {
			for _, e := range g.entries {
				if e.kind == entryStore {
					undo = append(undo, e)
				}
			}
		}
	}
	sort.Slice(undo, func(i, j int) bool { return undo[i].seq > undo[j].seq })
	for _, e := range undo {
		tal.Store(nvm.Addr(e.a), e.v)
	}
	rep.UndoApplied = len(undo)

	// 5: persist the restored state, truncate logs, collect leaks.
	dev.FlushAll()
	dir.setEpoch(epoch + 1)
	tal.Publish()
	gc, err := heap.GC(rings...)
	if err != nil {
		return rep, err
	}
	rep.GC = gc
	dev.FlushAll()
	return rep, nil
}
