package cacheserver

import (
	"sync"
	"sync/atomic"
	"time"

	"tsp/internal/proto"
	"tsp/internal/repl"
	"tsp/internal/telemetry"
)

// Per-operation durability tiers on an epoch clock — the paper's
// "timeliness requirement" made a per-command knob. The TSP planner's
// verdict for a power failure is that persistence need only be TIMELY:
// data must be durable by the time the failure's consequences are
// observable, not at every store. The durable tier keeps today's
// contract (the command's effects are committed to fortified state
// before the ack). The relaxed tier procrastinates harder: a hash-map
// write lands in a volatile per-shard overlay — plain Go memory, no
// Atlas machinery, no device stores — and is acknowledged once it is
// buffered, stamped with the current epoch. A connection's run of blind
// writes (set, mset, a fire delete; see serveBatch) inserts every entry,
// one overlay lock per shard, before it reads the epoch once for all of
// its acks. One goroutine closes an epoch every
// epochInterval — at once when a `wait` demands it. It drains each
// shard's overlay in two steps under the shard's drain lock: a commit
// writes the snapshot out of place as the shard's persistent payload and
// stores its commit word (see stack.DrainPayload), and an apply runs it
// through the map in ordinary sections afterwards. Between the two the
// close advances a persistent frontier word on each heap and answers the
// waiters. A crash therefore loses at most one epoch interval of relaxed writes
// — a bounded, configured, and *purchasable* loss window, which is
// exactly the paper's Figure-1 argument that the cost of persistence
// should be priced per requirement, not paid maximally everywhere.
// The fire tier acks without even consulting current state.
//
// A tier prices the hash map's persistence only. A skip-list write is
// durable at its CAS (the paper's Section 4.1): a durable zadd costs
// what a buffered one would, so an ordered-keyspace write joins the
// commit plan on every tier and answers the durable ack. Buffering it
// would buy nothing but a window in which a crash loses it.
//
// Epoch stamps are crash-scoped receipts. An ack `STORED @e` promises:
// if the server has not crashed since, the write is durable once the
// persistent frontier reaches e (observable via `wait`). A crash reply
// carries the recovered frontier (`OK RECOVERED EPOCH <p>`); acks with
// epoch <= p survived, acks above it may be gone. The frontier never
// advances past an epoch whose drain a crash touched (see closeEpoch).
// The commit word is the drain's persist point: a crash after it
// recovers the whole snapshot (stack.Reattach replays it), a crash
// before it none of it — per shard, a consistent cut of its relaxed
// writes; a cut across shards is not promised.
//
// Read-your-writes holds across tiers without waiting: both hash-map
// read paths — batched gets and optimistic seqlock gets — consult the
// overlay first, and a durable write to a key with a pending relaxed
// entry folds that entry into its critical section before applying (so
// a relaxed set followed by a durable incr increments the relaxed
// value, then commits durably). The reverse direction is serialized the
// same way: a relaxed read-modify-write (incr, a delete that reports
// presence) is a plan op that the shard's executor reads and buffers
// under the drain lock (see shard.execOp), so it cannot interleave with
// a durable group folding the same entry or with another relaxed
// read-modify-write. Blind relaxed writes never touch that lock; they
// take only the overlay's.
//
// The overlay buffers values only. A seq-tagged write is durable on
// every tier (see session.go), so no dedup record ever waits here.

// ovEntry is one acked-but-unflushed relaxed write. seq orders entries
// per overlay so an epoch drain clears an entry only if it is still
// the one it snapshotted (a relaxed write landing mid-drain stays
// pending); del marks a buffered delete (a tombstone reads must honor).
type ovEntry struct {
	val uint64
	seq uint64
	del bool
}

// overlay is a shard's volatile relaxed-write buffer, keyed by hash-map
// key. It is exactly the state a crash is allowed to lose:
// crashAndRecover discards it wholesale. size mirrors len(m) atomically
// so the hot read and durable-write paths can skip the mutex when no
// relaxed write is pending — the common case on an all-durable
// workload, which must not pay for a feature it does not use.
type overlay struct {
	mu   sync.Mutex
	m    map[uint64]ovEntry
	size atomic.Int64
	seq  uint64
}

// put buffers ops (opSet or opDelete writes) in order under one hold of
// the mutex, each entry stamped with the next sequence number, and marks
// them applied.
func (o *overlay) put(ops []batchOp) {
	o.mu.Lock()
	if o.m == nil {
		o.m = make(map[uint64]ovEntry)
	}
	for i := range ops {
		if _, ok := o.m[ops[i].key]; !ok {
			o.size.Add(1)
		}
		o.seq++
		o.m[ops[i].key] = ovEntry{val: ops[i].arg, seq: o.seq, del: ops[i].kind == opDelete}
		ops[i].ok = true
	}
	o.mu.Unlock()
}

// get returns key's pending entry, if any. Callers on hot paths should
// gate on size.Load() != 0 first.
func (o *overlay) get(key uint64) (ovEntry, bool) {
	if o.size.Load() == 0 {
		return ovEntry{}, false
	}
	o.mu.Lock()
	e, ok := o.m[key]
	o.mu.Unlock()
	return e, ok
}

// clearIfSeq removes key's entry if it still carries seq.
func (o *overlay) clearIfSeq(key, seq uint64) {
	o.mu.Lock()
	if e, ok := o.m[key]; ok && e.seq == seq {
		delete(o.m, key)
		o.size.Add(-1)
	}
	o.mu.Unlock()
}

// take pops and returns key's pending entry — the durable-write fold: a
// durable op on the key supersedes (and must account for) the buffered
// relaxed state. The size fast path keeps an all-durable workload at
// one atomic load per op; a relaxed put racing past it serializes after
// the durable op, a legal order for concurrent commands.
func (o *overlay) take(key uint64) (ovEntry, bool) {
	if o.size.Load() == 0 {
		return ovEntry{}, false
	}
	o.mu.Lock()
	e, ok := o.m[key]
	if ok {
		delete(o.m, key)
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
		o.m = make(map[uint64]ovEntry)
		o.size.Add(-n)
	}
	o.mu.Unlock()
}

// pendingOps snapshots every pending entry as an epoch-drain op: the
// write the entry buffered, carrying the entry's seq (so execOp clears
// exactly the entry it applied).
func (o *overlay) pendingOps(out []batchOp) []batchOp {
	if o.size.Load() == 0 {
		return out
	}
	o.mu.Lock()
	for k, e := range o.m {
		op := batchOp{kind: opSet, key: k, arg: e.val, seq: e.seq}
		if e.del {
			op.kind = opDelete
		}
		out = append(out, op)
	}
	o.mu.Unlock()
	return out
}

// broadcastWake publishes a wakeup to every waiter parked on p by
// swapping in a fresh channel and closing the old one — a one-shot
// broadcast with no waiter registry and no lock.
func broadcastWake(p *atomic.Pointer[chan struct{}]) {
	next := make(chan struct{})
	old := p.Swap(&next)
	close(*old)
}

// startEpochClock initializes the epoch state and starts the clock
// goroutine. Epochs start at 1 so an epoch stamp of 0 can mean "absent"
// on the wire.
func (s *Server) startEpochClock() {
	s.curEpoch.Store(1)
	ch1 := make(chan struct{})
	s.epochWake.Store(&ch1)
	ch2 := make(chan struct{})
	s.ackWake.Store(&ch2)
	s.epochKick = make(chan struct{}, 1)
	s.epochStop = make(chan struct{})
	s.epochDone = make(chan struct{})
	go s.epochLoop()
}

// stopEpochClock runs one final epoch close (draining every overlay —
// relaxed writes acked before a clean shutdown are NOT allowed to be
// lost by it; only crashes get that license) and stops the clock.
func (s *Server) stopEpochClock() {
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

// closeEpoch closes the current epoch e: open e+1, commit every
// shard's overlay snapshot as its drain payload, and — if no shard
// crashed meanwhile — persist e as every shard's durable frontier,
// advance the volatile frontier waiters watch and wake them. Only then
// do the shards apply their payloads to the map, one after another on
// this goroutine: a waiter is answered at the persist point, not after
// the apply.
//
// Ordering is what makes the ack sound: curEpoch moves to e+1 BEFORE
// the overlays are snapshotted, and a relaxed writer inserts its
// overlay entries (a run's or a plan's, all of them) BEFORE reading
// curEpoch for its ack stamp (both sides ordered by the overlay mutex).
// So any entry the snapshot misses was inserted after the snapshot, and
// its writer must have read e+1 — every write acked with stamp <= e is
// in this (or an earlier) drain.
//
// Each shard's drain lock is held from its snapshot to the end of its
// apply, so no durable write, relaxed read-modify-write or replication
// copy lands between a committed payload and its apply: a replay could
// otherwise overwrite a newer acked value with the snapshot's.
//
// A commit that failed (a crashed device) or a shard generation that
// changed across the close (read before curEpoch moves, re-checked after
// every commit) means a crash landed in it, possibly before a snapshot,
// so the frontier must NOT advance to e: its receipts would overpromise.
// A committed payload needs no re-drain (recovery replays it); the lost
// entries were acked above the frontier and are legal losses. The next
// close (at once, if a waiter is unmet) tries epoch e+1.
func (s *Server) closeEpoch() {
	for _, sh := range s.shards {
		sh.drainGen = sh.gen.Load()
	}
	e := s.curEpoch.Load()
	s.curEpoch.Store(e + 1)

	held, stable := s.drainHeld[:0], true
	for _, sh := range s.shards {
		if sh.ovl.size.Load() == 0 {
			continue
		}
		sh.combineMu.Lock()
		stable = sh.commitDrain(e) == nil && stable
		if len(sh.drainOps) > 0 {
			held = append(held, sh)
		} else {
			sh.combineMu.Unlock()
		}
	}
	s.drainHeld = held
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
	for _, sh := range held {
		sh.applyDrain()
		sh.combineMu.Unlock()
	}
}

// commitDrain is a drain's commit: snapshot the overlay into drainOps,
// write it as the shard's payload up to its commit word, and append it
// to the replication log as one group stamped epoch — the log order is
// the commit order, and a follower applies a drain whole. A commit on a
// crashed device fails like an unwritable payload (its close answers no
// waiter) and, like an empty overlay, leaves drainOps empty; the entries
// stay pending. Caller holds combineMu, and keeps it until applyDrain
// returns.
func (sh *shard) commitDrain(epoch uint64) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ops := sh.ovl.pendingOps(sh.drainOps[:0])
	if sh.drainOps = ops; len(ops) == 0 {
		return nil
	}
	start := time.Now()
	w, err := sh.stk.BeginDrain(len(ops))
	if err != nil {
		sh.drainOps = ops[:0]
		return err
	}
	for i := range ops {
		if ops[i].kind == opDelete {
			w.Delete(ops[i].key)
		} else {
			w.Set(ops[i].key, ops[i].arg)
		}
	}
	w.Commit()
	if sh.stk.Dev.Crashed() {
		sh.drainOps = ops[:0]
		return errCrashed
	}
	if sh.replLog != nil {
		rops := make([]repl.Op, len(ops))
		for i := range ops {
			rops[i] = repl.Op{Del: ops[i].kind == opDelete, Key: ops[i].key, Val: ops[i].arg}
		}
		sh.replLog.Append(rops, epoch, nil)
	}
	sh.tel.EpochCommitLatency.Observe(time.Since(start))
	return nil
}

// applyDrain is a drain's apply: the committed snapshot runs through the
// write path in batchMax-sized sections, the last of which marks the
// payload applied. Caller holds combineMu.
func (sh *shard) applyDrain() {
	if len(sh.drainOps) == 0 {
		return
	}
	start := time.Now()
	sh.drainReq = batchReq{ops: sh.drainOps, markApplied: true}
	sh.runWide(&sh.drainReq)
	sh.tel.EpochFlushLatency.Observe(time.Since(start))
}

// flushOverlay drains this shard's pending relaxed writes — commit and
// apply, stamping the open epoch's predecessor on the replicated group —
// without touching the frontier: a migration flip's flush. On return
// every write pending at the call is in the replication log, and so is
// any drain that held the lock when it was called.
func (sh *shard) flushOverlay(s *Server) {
	sh.combineMu.Lock()
	defer sh.combineMu.Unlock()
	_ = sh.commitDrain(s.curEpoch.Load() - 1) // a failed commit leaves nothing to apply
	sh.applyDrain()
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
//     Replies the achieved count. Relaxed hash-map writes replicate at
//     epoch close, so a relaxed writer that needs follower coverage
//     should issue an epoch wait first.
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

// bufferRun buffers a connection's run of blind relaxed/fire writes
// (see serveBatch) in its shards' overlays, one mutex hold per shard.
// flushPlan reads every ack's stamp once, after the last insert, so no
// stamp is earlier than a one-at-a-time insert would have read (see
// closeEpoch).
func (s *Server) bufferRun(p *plan) {
	for _, li := range p.used {
		s.shards[li].ovl.put(p.legs[li].ops)
	}
}

// tierOps is the counter of mutations acked at tier d.
func tierOps(st *telemetry.ServerStats, d proto.Durability) *telemetry.Counter {
	return [...]*telemetry.Counter{&st.DurableOps, &st.RelaxedOps, &st.FireOps}[d]
}
