package cacheserver

import (
	"sync"
	"sync/atomic"
	"time"

	"tsp/internal/proto"
	"tsp/internal/telemetry"
)

// Per-operation durability tiers on an epoch clock — the paper's
// "timeliness requirement" made a per-command knob. The TSP planner's
// verdict for a power failure is that persistence need only be TIMELY:
// data must be durable by the time the failure's consequences are
// observable, not at every store. The durable tier keeps today's
// contract (the command's effects are committed to fortified state
// before the ack). The relaxed tier procrastinates harder: the write
// lands in a volatile per-shard overlay — plain Go memory, no Atlas
// machinery, no device stores — and is acknowledged immediately,
// stamped with the current epoch. One goroutine closes an epoch every
// epochInterval — at once when a `wait` demands it — by submitting every
// shard's overlay as a commit group on the one write path (one Atlas
// critical section per BatchMax-sized chunk; see batch.go), all shards
// at once, and then advancing a persistent frontier word on each heap.
// A crash therefore loses at most one epoch interval of relaxed writes
// — a bounded, configured, and *purchasable* loss window, which is
// exactly the paper's Figure-1 argument that the cost of persistence
// should be priced per requirement, not paid maximally everywhere.
// The fire tier acks without even consulting current state.
//
// Epoch stamps are crash-scoped receipts. An ack `STORED @e` promises:
// if the server has not crashed since, the write is durable once the
// persistent frontier reaches e (observable via `wait`). A crash reply
// carries the recovered frontier (`OK RECOVERED EPOCH <p>`); acks with
// epoch <= p are guaranteed to have survived, acks above it may be
// gone. The frontier never advances past an epoch whose drain raced a
// crash (closeEpoch re-checks every shard generation before
// persisting), so the receipt can never overpromise.
//
// Read-your-writes holds across tiers without waiting: every read path
// — batched gets, optimistic seqlock gets, ordered-keyspace reads —
// consults the overlay first, and a durable write to a key with a
// pending relaxed entry folds that entry into its critical section
// before applying (so a relaxed set followed by a durable incr
// increments the relaxed value, then commits durably). The reverse
// direction is serialized the same way: a relaxed read-modify-write
// (incr, zincr, a delete that reports presence) reads and buffers under
// the shard's drain lock (see shard.relaxedRMW), so it cannot
// interleave with a durable group folding the same entry or with
// another relaxed writer. Blind relaxed writes never touch that lock.

// ovKey addresses one overlay entry: a key in either the hash-map or
// the ordered (skip-list) keyspace.
type ovKey struct {
	key  uint64
	list bool
}

// ovEntry is one acked-but-unflushed relaxed write. seq orders entries
// per overlay so an epoch drain clears an entry only if it is still
// the one it flushed (a relaxed write landing mid-flush stays
// pending); del marks a buffered delete (a tombstone reads must honor). A sessioned relaxed
// write (sess != 0) additionally buffers its dedup record fields —
// sseq and spay — beside the value, so the record persists in the same
// section that makes the value durable (see session.go).
type ovEntry struct {
	val uint64
	seq uint64
	del bool

	sess uint64
	sseq uint64
	spay uint64
}

// overlay is a shard's volatile relaxed-write buffer. It is exactly
// the state a crash is allowed to lose: crashAndRecover discards it
// wholesale. size mirrors len(m) atomically so the hot read and
// durable-write paths can skip the mutex when no relaxed write is
// pending — the common case on an all-durable workload, which must not
// pay for a feature it does not use.
type overlay struct {
	mu   sync.Mutex
	m    map[ovKey]ovEntry
	size atomic.Int64
	seq  uint64
}

// put inserts or replaces the entry for (key, list) and returns its
// sequence stamp. A sessioned write (sess != 0) carries its dedup
// record fields: the record rides the entry so the epoch flush persists
// value and record in one section.
func (o *overlay) put(key uint64, list, del bool, val, sess, sseq, spay uint64) uint64 {
	o.mu.Lock()
	if o.m == nil {
		o.m = make(map[ovKey]ovEntry)
	}
	k := ovKey{key: key, list: list}
	if _, ok := o.m[k]; !ok {
		o.size.Add(1)
	}
	o.seq++
	seq := o.seq
	o.m[k] = ovEntry{val: val, seq: seq, del: del, sess: sess, sseq: sseq, spay: spay}
	o.mu.Unlock()
	return seq
}

// get returns the pending entry for (key, list), if any. Callers on
// hot paths should gate on size.Load() != 0 first.
func (o *overlay) get(key uint64, list bool) (ovEntry, bool) {
	if o.size.Load() == 0 {
		return ovEntry{}, false
	}
	o.mu.Lock()
	e, ok := o.m[ovKey{key: key, list: list}]
	o.mu.Unlock()
	return e, ok
}

// clearIfSeq removes the entry at (key, list) if it still carries seq.
func (o *overlay) clearIfSeq(key uint64, list bool, seq uint64) {
	o.mu.Lock()
	k := ovKey{key: key, list: list}
	if e, ok := o.m[k]; ok && e.seq == seq {
		delete(o.m, k)
		o.size.Add(-1)
	}
	o.mu.Unlock()
}

// take pops and returns the pending entry for (key, list) — the
// durable-write fold: a durable op on the key supersedes (and must
// account for) the buffered relaxed state. The size fast path keeps an
// all-durable workload at one atomic load per op; a relaxed put racing
// past it serializes after the durable op, a legal order for
// concurrent commands.
func (o *overlay) take(key uint64, list bool) (ovEntry, bool) {
	if o.size.Load() == 0 {
		return ovEntry{}, false
	}
	o.mu.Lock()
	k := ovKey{key: key, list: list}
	e, ok := o.m[k]
	if ok {
		delete(o.m, k)
		o.size.Add(-1)
	}
	o.mu.Unlock()
	return e, ok
}

// discard drops every pending entry — the crash path. The entries were
// acked with epochs above the persistent frontier, so dropping them is
// precisely the loss the relaxed tier's contract allows.
func (o *overlay) discard() {
	o.mu.Lock()
	if n := int64(len(o.m)); n > 0 {
		o.m = make(map[ovKey]ovEntry)
		o.size.Add(-n)
	}
	o.mu.Unlock()
}

// flushOp is the epoch-drain op for one pending entry: the write the
// entry buffered, carrying the entry's seq (so execOp clears exactly
// the entry it flushed) and a sessioned write's record fields.
func flushOp(k ovKey, e ovEntry) batchOp {
	kind := opSet
	switch {
	case k.list && e.del:
		kind = opZDelete
	case k.list:
		kind = opZSet
	case e.del:
		kind = opDelete
	}
	return batchOp{
		kind: kind, key: k.key, arg: e.val, seq: e.seq,
		sess: e.sess, sseq: e.sseq, spay: e.spay,
	}
}

// pendingOps snapshots every pending entry as an epoch-drain op. A
// durable fold or a newer relaxed write may land between snapshot and
// apply; execOp re-reads the entry and flushes whatever is pending
// then.
func (o *overlay) pendingOps(out []batchOp) []batchOp {
	if o.size.Load() == 0 {
		return out
	}
	o.mu.Lock()
	for k, e := range o.m {
		out = append(out, flushOp(k, e))
	}
	o.mu.Unlock()
	return out
}

// rangeList visits every pending ordered-keyspace entry with key in
// [lo, hi) under the overlay lock — the ordered read path's merge
// source. f must not call back into the overlay.
func (o *overlay) rangeList(lo, hi uint64, f func(key uint64, e ovEntry)) {
	if o.size.Load() == 0 {
		return
	}
	o.mu.Lock()
	for k, e := range o.m {
		if k.list && k.key >= lo && k.key < hi {
			f(k.key, e)
		}
	}
	o.mu.Unlock()
}

// epochEnabled reports whether the durability tiers are live. When
// false, relaxed and fire degrade to durable and epoch waits return
// immediately.
func (s *Server) epochEnabled() bool { return s.cfg.epochInterval > 0 }

// broadcastWake publishes a wakeup to every waiter parked on p by
// swapping in a fresh channel and closing the old one — a one-shot
// broadcast with no waiter registry and no lock.
func broadcastWake(p *atomic.Pointer[chan struct{}]) {
	next := make(chan struct{})
	old := p.Swap(&next)
	close(*old)
}

// startEpochClock initializes the epoch state and, when the tiers are
// enabled, starts the clock goroutine. Epochs start at 1 so an epoch
// stamp of 0 can mean "absent" on the wire.
func (s *Server) startEpochClock() {
	s.curEpoch.Store(1)
	ch1 := make(chan struct{})
	s.epochWake.Store(&ch1)
	ch2 := make(chan struct{})
	s.ackWake.Store(&ch2)
	if !s.epochEnabled() {
		return
	}
	s.epochKick = make(chan struct{}, 1)
	s.epochStop = make(chan struct{})
	s.epochDone = make(chan struct{})
	go s.epochLoop()
}

// stopEpochClock runs one final epoch close (draining every overlay —
// relaxed writes acked before a clean shutdown are NOT allowed to be
// lost by it; only crashes get that license) and stops the clock.
func (s *Server) stopEpochClock() {
	if s.epochStop == nil {
		return
	}
	close(s.epochStop)
	<-s.epochDone
}

// epochLoop is the one goroutine that closes epochs, so at most one
// close is ever in flight — the whole guard against a wait storm. The
// ticker bounds the loss of writes nobody waits on and restarts after a
// demanded close. A kick (see epochReached) is honoured only while the
// frontier is below what is wanted: a close already covered the rest.
func (s *Server) epochLoop() {
	defer close(s.epochDone)
	t := time.NewTicker(s.cfg.epochInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.closeEpoch()
		case <-s.epochKick:
			if s.perEpoch.Load() < s.epochWant.Load() {
				s.shards[0].tel.Server.EpochDemanded.Inc()
				s.closeEpoch()
				t.Reset(s.cfg.epochInterval)
			}
		case <-s.epochStop:
			s.closeEpoch()
			return
		}
	}
}

// epochReached reports whether the persistent frontier covers target
// and, while it does not, demands the close that gets it there: raise
// the wanted epoch (it only grows) and ring the one-slot kick.
func (s *Server) epochReached(target uint64) bool {
	if s.perEpoch.Load() >= target {
		return true
	}
	for w := s.epochWant.Load(); w < target && !s.epochWant.CompareAndSwap(w, target); {
		w = s.epochWant.Load()
	}
	select {
	case s.epochKick <- struct{}{}:
	default:
	}
	return false
}

// closeEpoch closes the current epoch e: open e+1, drain every shard's
// overlay into fortified state through the write path, and — if no
// shard crashed during the drain — persist e as every shard's durable
// frontier and advance the volatile frontier waiters watch.
//
// Ordering is what makes the ack sound: curEpoch moves to e+1 BEFORE
// the overlays are snapshotted, and a relaxed writer inserts its
// overlay entry BEFORE reading curEpoch for its ack stamp (both sides
// ordered by the overlay mutex). So any entry the snapshot misses was
// inserted after the snapshot, and its writer must have read e+1 —
// every write acked with stamp <= e is in this (or an earlier) drain.
// The shards drain concurrently (one goroutine per non-empty overlay,
// one of them this one), each through shard.submit under its own drain
// lock: a barrier waits for the largest drain, not the sum.
//
// A shard generation changing across the drain means a crash landed
// somewhere inside it: some flushed chunks may have committed, but the
// crashed shard's overlay (and possibly its un-rescued commits) are
// gone, so the frontier must NOT advance to e — the receipts for epoch
// e would overpromise; the generations are read before any drain starts
// and re-checked after all returned. Survivors need no re-flush (they
// committed); the lost ones were acked above the frontier and are legal
// losses. The next close (at once, if a waiter is unmet) tries epoch e+1.
func (s *Server) closeEpoch() {
	e := s.curEpoch.Load()
	s.curEpoch.Store(e + 1)

	for _, sh := range s.shards {
		sh.drainGen = sh.gen.Load()
	}
	var inline *shard // the last non-empty shard drains on this goroutine
	for _, sh := range s.shards {
		if sh.ovl.size.Load() == 0 {
			continue
		}
		s.drainWG.Add(1)
		if inline != nil {
			go s.drainShard(inline)
		}
		inline = sh
	}
	if inline != nil {
		s.drainShard(inline)
	}
	s.drainWG.Wait()
	stable := true
	for _, sh := range s.shards {
		stable = stable && sh.gen.Load() == sh.drainGen
	}
	tel := s.shards[0].tel.Server
	if stable {
		for _, sh := range s.shards {
			sh.setDurableEpoch(e)
		}
		s.perEpoch.Store(e)
	} else {
		tel.EpochSkipped.Inc()
	}
	tel.EpochCloses.Inc()
	// Wake waiters unconditionally: on an advance they observe the new
	// frontier; on a skip (or shutdown) they demand the next close or
	// see the closing state instead of parking forever.
	broadcastWake(&s.epochWake)
}

// drainShard is one shard's leg of closeEpoch's drain.
func (s *Server) drainShard(sh *shard) {
	defer s.drainWG.Done()
	sh.flushOverlay(s, &sh.drainOps)
}

// flushOverlay drains this shard's pending relaxed writes into
// fortified state as one commit group (one OCS and one replication
// group per batchMax-sized chunk), stamping the epoch being closed on
// the replicated groups. buf is the caller's own ops scratch, kept for
// its next call (the epoch loop and a migration flip can overlap).
func (sh *shard) flushOverlay(s *Server, buf *[]batchOp) {
	ops := sh.ovl.pendingOps((*buf)[:0])
	if *buf = ops; len(ops) == 0 {
		return
	}
	start := time.Now()
	g := batchReq{ops: ops, epoch: s.curEpoch.Load() - 1}
	sh.submit(&g)
	g.wait()
	sh.tel.EpochFlushLatency.Observe(time.Since(start))
}

// setDurableEpoch persists e as the shard's epoch frontier, under the
// read lock so it cannot race the crash command's stack swap.
func (sh *shard) setDurableEpoch(e uint64) {
	sh.mu.RLock()
	sh.stk.SetDurableEpoch(e)
	sh.mu.RUnlock()
}

// park blocks until met reports true, the timeout (0 = none) passes, or
// the server closes; wake is the broadcast every event that can change
// met's answer re-arms. Returns met's last answer.
func (s *Server) park(wake *atomic.Pointer[chan struct{}], timeout time.Duration, met func() bool) bool {
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		if met() {
			return true
		}
		if s.closing.Load() {
			return false
		}
		ch := *wake.Load()
		// Re-check between arming and parking: the broadcast may have
		// happened after the first check but before the channel load.
		if met() {
			return true
		}
		select {
		case <-ch:
		case <-deadline:
			return met()
		}
	}
}

// waitEpoch parks until the persistent frontier reaches target, demanding
// the close on every unmet check; it returns whether the frontier got there.
func (s *Server) waitEpoch(target uint64, timeout time.Duration) bool {
	return s.park(&s.epochWake, timeout, func() bool { return s.epochReached(target) })
}

// waitRepl parks until need followers have acknowledged (gen, seq); it
// returns the achieved count and whether the target was met.
func (s *Server) waitRepl(gen, seq uint64, need int, timeout time.Duration) (int, bool) {
	met := s.park(&s.ackWake, timeout, func() bool { return s.replPrimary.AckedCount(gen, seq) >= need })
	return s.replPrimary.AckedCount(gen, seq), met
}

// serveWait answers one wait barrier. Called from serveBatch AFTER the
// pending data group flushed, so the barrier covers every write this
// connection pipelined before it. Two forms:
//
//   - epoch barrier (WaitRepl false): block until the persistent epoch
//     frontier reaches KV[0] (0 = the current epoch, which covers every
//     relaxed ack this connection has received). Replies the reached
//     frontier; a native-protocol timeout is an error, a RESP timeout
//     returns the frontier anyway (RESP WAIT has no error form).
//   - replication barrier (WaitRepl true): block until KV[0] followers
//     have acknowledged the replication log position captured now.
//     Replies the achieved count. Relaxed writes replicate at epoch
//     close, so a relaxed writer that needs follower coverage should
//     issue an epoch wait first.
func (s *Server) serveWait(cs *connState, req *proto.Request) proto.Reply {
	start := time.Now()
	tel := s.shards[0].tel
	tel.Server.Waits.Inc()
	defer func() {
		tel.CmdLatency.ObserveProto(cs.ptel, telemetry.CmdWait, time.Since(start), 1)
	}()
	timeout := time.Duration(req.KV[1]) * time.Millisecond

	if req.WaitRepl {
		need := int(req.KV[0])
		if s.replPrimary == nil {
			if cs.ptel == telemetry.ProtoRESP {
				return proto.Reply{Kind: proto.KInt, Val: 0}
			}
			return proto.Reply{Kind: proto.KErrClient, Msg: "not a replication primary"}
		}
		gen, seq := s.replLog.Position()
		got, met := s.waitRepl(gen, seq, need, timeout)
		if !met && cs.ptel != telemetry.ProtoRESP {
			return proto.Reply{Kind: proto.KErrServer, Msg: "wait timeout"}
		}
		return proto.Reply{Kind: proto.KInt, Val: uint64(got)}
	}

	if !s.epochEnabled() {
		// Tiers off: nothing is ever buffered, so every ack was durable
		// and the barrier is trivially met.
		return proto.Reply{Kind: proto.KInt, Val: s.perEpoch.Load()}
	}
	target := req.KV[0]
	cur := s.curEpoch.Load()
	if target == 0 {
		target = cur
	} else if target > cur {
		// Epochs are only ever learned from acks, which never exceed the
		// current epoch — a future target is a confused client, and with
		// no timeout it would park the connection until the clock crawled
		// there. Reject instead of blocking unboundedly.
		return proto.Reply{Kind: proto.KErrClient, Msg: "wait epoch beyond current"}
	}
	if !s.waitEpoch(target, timeout) && cs.ptel != telemetry.ProtoRESP {
		return proto.Reply{Kind: proto.KErrServer, Msg: "wait timeout"}
	}
	return proto.Reply{Kind: proto.KInt, Val: s.perEpoch.Load()}
}

// serveRelaxed executes one relaxed- or fire-tier mutation: buffer the
// effects in the target shards' overlays and ack immediately with the
// current epoch stamp. Called from serveBatch as a sequence point (the
// pending durable group flushed first), so tiers interleave in program
// order on a connection.
//
// A seq-tagged request (routed here by planSessioned, single-key by
// then) buffers its dedup record beside the value — in the overlay
// entry and the volatile mirror — and both persist in the same section
// when the epoch closes (or a durable fold takes the entry). A crash
// before that section loses value and record together — the relaxed
// tier's loss contract extended to detectability: the retry re-applies
// precisely because nothing of the first attempt survived.
func (s *Server) serveRelaxed(cs *connState, req *proto.Request) proto.Reply {
	start := time.Now()
	fire := req.Dur == proto.DurFire
	key := req.KV[0]
	sh0 := s.shardOf(key)
	if fire {
		sh0.tel.Server.FireOps.Inc()
	} else {
		sh0.tel.Server.RelaxedOps.Inc()
	}
	var sess, seq, pay uint64
	if req.HasSeq {
		sess, seq = cs.sess, req.Seq
	}
	sp := req.Cmd.Spec()
	list := sp.Space == proto.SpaceOrdered
	rep := proto.Reply{Kind: sp.Reply}
	switch sp.Verb {
	case proto.VerbSet:
		// One pair, or an mset's several (never seq-tagged here: a
		// sessioned mset escalates to durable in planSessioned).
		for i := 0; i+1 < len(req.KV); i += 2 {
			s.shardOf(req.KV[i]).ovl.put(req.KV[i], list, false, req.KV[i+1], sess, seq, 0)
		}
		if rep.Kind == proto.KStoredN {
			rep.N = len(req.KV) / 2
		}
	case proto.VerbIncr:
		nv, _, err := sh0.relaxedRMW(key, list, false, req.KV[1], sess, seq)
		if err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: err.Error()}
		}
		pay = nv
		rep.Val = nv
	default: // VerbDelete
		items := cs.items[:0]
		for _, k := range req.KV {
			sh := s.shardOf(k)
			found := true
			if fire {
				// The fire tier acks without consulting state; relaxed
				// reports presence as of the ack.
				sh.ovl.put(k, list, true, 0, sess, seq, 1)
			} else {
				var err error
				if _, found, err = sh.relaxedRMW(k, list, true, 0, sess, seq); err != nil {
					return proto.Reply{Kind: proto.KErrServer, Msg: err.Error()}
				}
			}
			if found {
				pay = 1
			}
			items = append(items, proto.Item{Key: k, Found: found})
		}
		cs.items = items
		rep.Items = items
	}
	// The stamp is read after the overlay insert (see closeEpoch).
	rep.Epoch = s.curEpoch.Load()
	if sess != 0 {
		sh0.sessBuffer(sess, seq, pay, key)
	}
	sh0.tel.CmdLatency.ObserveProto(cs.ptel, sp.Tel, time.Since(start), 1)
	return rep
}

// relaxedRMW is the relaxed tier's read-modify-write: read the key's
// logical value and buffer the write derived from it — base+delta, or
// a tombstone when del — as one step under the shard's drain lock.
// Durable groups fold overlay entries inside sections that hold the
// same lock, and every other relaxed read-modify-write brackets itself
// the same way, so no acked increment can be computed from a value
// another writer is concurrently replacing. Returns the buffered value
// (incr) and whether the key was present (delete); a sessioned write's
// record payload is that same result.
func (sh *shard) relaxedRMW(key uint64, list, del bool, delta, sess, seq uint64) (uint64, bool, error) {
	sh.combineMu.Lock()
	defer sh.combineMu.Unlock()
	base, found, err := sh.peekLocked(key, list)
	if err != nil {
		return 0, false, err
	}
	if del {
		pay := uint64(0)
		if found {
			pay = 1
		}
		sh.ovl.put(key, list, true, 0, sess, seq, pay)
		return 0, found, nil
	}
	nv := base + delta
	sh.ovl.put(key, list, false, nv, sess, seq, nv)
	return nv, found, nil
}

// peekLocked reads a key's current logical value for relaxedRMW: the
// pending overlay entry if one exists, else the underlying engine —
// lock-free for both (the skip list always; the map on its optimistic
// path, which with the drain lock held has no writer to collide with
// and fails only on an over-long chain), falling back to an opGet
// group run through the executor. A missing key reads as (0, false,
// nil) — the base an incr on an absent key starts from. Caller holds
// combineMu.
func (sh *shard) peekLocked(key uint64, list bool) (uint64, bool, error) {
	if e, ok := sh.ovl.get(key, list); ok {
		return e.val, !e.del, nil
	}
	if list {
		sh.mu.RLock()
		v, ok := sh.stk.List.Get(key)
		sh.mu.RUnlock()
		return v, ok, nil
	}
	sh.mu.RLock()
	v, ok, valid := sh.stk.Map.GetOptimistic(key)
	sh.mu.RUnlock()
	if valid {
		return v, ok, nil
	}
	g := batchReq{ops: []batchOp{{kind: opGet, key: key}}}
	sh.runOne(&g)
	return g.ops[0].val, g.ops[0].ok, g.ops[0].err
}
