package cacheserver

import (
	"sort"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/proto"
	"tsp/internal/repl"
)

// The write path. Every engine mutation — a client command's ops, a
// sessioned request with its dedup record, an epoch drain's flush, a
// follower applying its primary's groups — is one commit group (a
// batchReq) executed by one function, shard.runBatch, inside ONE Atlas
// outermost critical section over the union of the group's stripe
// mutexes, under the shard's drain lock. That is the paper's promise
// kept literally: each group is one OCS and is therefore applied or
// rolled back as a unit, and because no mutation runs outside the drain
// lock, per shard the commit order, the replication-log order and the
// order in which tiers observe each other are the same order.
//
// How a group reaches the executor is a scheduling choice made in one
// place, shard.submit, with three arms:
//
//   - Own goroutine: the submitter tries the drain lock without waiting
//     and, if it wins, runs its group there and then — together with
//     whatever other groups are already queued, up to BatchMax ops — with
//     no queue hop, no channel and no goroutine handoff. A lone command
//     on an idle shard costs one section and nothing else.
//   - Queue: a submitter that loses the lock enqueues its group, rings
//     the shard's doorbell and waits. Whoever holds the drain lock next
//     (another submitter, or the worker goroutine the doorbell wakes)
//     drains every queued group into one shared section: the paper's
//     procrastination argument applied to the request path — the
//     acquire/release log records, the undo logging and the OCS commit
//     are paid once per DRAINED BATCH, so the per-op cost shrinks as
//     load (and therefore batch size) grows.
//   - Blocked: when the queue is full the submitter waits for the drain
//     lock itself and runs its group when it gets it. Backpressure
//     surfaces as the server_batch_fallbacks counter.
//
// A group deeper than BatchMax (a deeply pipelined burst, a wide mset,
// an epoch drain) is chunked by submit into BatchMax-sized sections run
// back to back under one hold of the drain lock; the bound is what
// sizes the undo-log ring. A group's session record, follower marks and
// floor ride its last chunk.
//
// Crash safety is inherited rather than re-proven: every batch executes
// under the shard read lock, and the administrative crash command tears
// the stack down under the shard WRITE lock, so a simulated power
// failure always lands between batches, never inside one. Requests
// still in the queue live in volatile Go memory the simulated crash
// does not touch; they simply execute against the recovered stack, the
// drain re-registering its Atlas thread under the new runtime
// generation.

// opKind selects the engine operation a batchOp performs.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opIncr
	opDelete
	// The opZ* kinds write the ordered keyspace (the shard's skip
	// list). They ride the same batches as map ops — the drain lock
	// serializes them into commit order, which is what replication
	// needs — but the skip list itself takes no Atlas measures: its
	// bottom-level CAS is both linearization and durability point.
	opZSet
	opZIncr
	opZDelete
)

// batchOp is one key operation plus its result slots. Ops travel by
// slice; the executor writes results in place.
type batchOp struct {
	kind opKind
	key  uint64
	arg  uint64 // value for set, delta for incr

	// seq is non-zero only on the epoch drain's writes (see epoch.go):
	// the overlay sequence of the entry being flushed. Such an op
	// applies only while its key still has a pending entry — a durable
	// fold between snapshot and apply leaves nothing to flush — and on
	// success clears the entry if it still carries seq.
	seq uint64

	// The sess* fields ride only on epoch-drain ops whose overlay entry
	// was a sessioned relaxed write: on a successful apply the entry's
	// dedup record persists inside the same section (see sessPersist).
	sess uint64
	sseq uint64
	spay uint64

	val uint64
	ok  bool
	err error
}

// batchReq is one commit group: the ops one submitter contributes to
// one shard, applied inside one section (see the chunking note above).
// epoch is non-zero only on epoch-drain groups; it stamps the
// replication log group so followers learn how far the relaxed
// frontier has propagated.
//
// A request with sess != 0 is a sessioned group (see session.go): the
// executor re-checks the dedup window, applies the ops, and commits the
// session record inside the one section — sessDup/sessOld/sessPay
// carry the verdict back. marks and floor ride only on follower-apply
// groups: replicated session records (and the primary's eviction
// floor) that must commit atomically with the group's ops.
//
// done is nil while the group runs in its submitter's goroutine; submit
// allocates it only when the group is queued, and the drain closes it
// after every op's result is filled in.
type batchReq struct {
	ops   []batchOp
	epoch uint64

	sess    uint64
	sseq    uint64
	wkey    uint64
	sessCmd proto.Cmd
	sessDup bool
	sessOld bool
	sessPay uint64

	marks []repl.SessRec
	floor uint64

	done chan struct{}
}

// submit schedules one commit group on the shard — the only way a
// mutation reaches the engines. On return the group has either already
// committed in this goroutine or is queued; g.wait() covers both, so a
// multi-shard command submits to every owner shard before waiting on
// any.
func (sh *shard) submit(g *batchReq) {
	max := sh.cfg.batchMax
	if !sh.combineMu.TryLock() {
		if len(g.ops) <= max {
			g.done = make(chan struct{})
			select {
			case sh.queue <- g:
				sh.ringDoorbell()
				return
			default:
				// Counted before blocking, so backpressure is visible
				// while it is happening.
				g.done = nil
				sh.tel.Server.BatchFallbacks.Inc()
			}
		}
		sh.combineMu.Lock()
	}
	defer sh.combineMu.Unlock()
	if len(g.ops) <= max {
		sh.runBatch(sh.drainLocked(g))
		return
	}
	// Oversized: the head runs as plain chunks — for a sessioned mset
	// they are absolute sets, idempotent under the retry a crash before
	// the record would provoke — and g itself, narrowed to the tail,
	// carries record, marks and floor into the last section.
	all := g.ops
	head := batchReq{epoch: g.epoch}
	for len(g.ops) > max {
		head.ops, g.ops = g.ops[:max], g.ops[max:]
		sh.runOne(&head)
	}
	sh.runOne(g)
	g.ops = all
}

// runOne executes g alone as one batch. Caller holds combineMu.
func (sh *shard) runOne(g *batchReq) {
	sh.pendingScratch = append(sh.pendingScratch[:0], g)
	sh.runBatch(sh.pendingScratch, len(g.ops))
}

// wait blocks until a submitted group has committed.
func (g *batchReq) wait() {
	if g.done != nil {
		<-g.done
	}
}

// workerThread returns the drain's Atlas thread on the current stack
// incarnation, re-registering after a crash replaced the runtime. It is
// the shard's only Atlas thread: only the drain-lock holder touches
// wth/wgen, and the caller holds the shard read lock, which keeps gen
// stable.
func (sh *shard) workerThread() (*atlas.Thread, error) {
	if sh.wth != nil && sh.wgen == sh.gen.Load() {
		return sh.wth, nil
	}
	th, err := sh.stk.RT.NewThread()
	if err != nil {
		return nil, err
	}
	sh.wth = th
	sh.wgen = sh.gen.Load()
	return th, nil
}

// worker is the queue's liveness backstop. Nobody blocks receiving on
// the queue: a submitter that wins the drain lock takes the queued
// groups into its own batch (see submit). Only a submitter that lost
// the lock rings the doorbell, and the worker wakes, waits its turn on
// the drain lock, and flushes whatever is still queued. The doorbell
// has capacity one: rings coalesce, and a wake that finds the queue
// already drained costs one empty drainAll.
func (sh *shard) worker() {
	defer close(sh.workerDone)
	for {
		_, ok := <-sh.doorbell
		sh.drainAll()
		if !ok {
			return
		}
	}
}

// ringDoorbell wakes the worker if it is not already pending a wake.
// Must not be called after closePipeline (the server only closes once
// every connection handler has exited).
func (sh *shard) ringDoorbell() {
	select {
	case sh.doorbell <- struct{}{}:
	default:
	}
}

// drainLocked assembles the next batch — first (the caller's own
// group, when it has one), then the carry slot and the queue — holding
// at most batchMax ops and never splitting a group. Caller holds
// combineMu. A queued group that would overflow this batch parks in
// sh.carry for the next call, keeping its one-OCS atomicity and its
// place in line intact.
func (sh *shard) drainLocked(first *batchReq) ([]*batchReq, int) {
	max := sh.cfg.batchMax
	pending := sh.pendingScratch[:0]
	nops := 0
	if first != nil {
		pending = append(pending, first)
		nops = len(first.ops)
	}
	if c := sh.carry; c != nil && nops+len(c.ops) <= max {
		pending = append(pending, c)
		nops += len(c.ops)
		sh.carry = nil
	}
	// Only the drain-lock holder receives, so a non-empty queue cannot
	// empty under this loop and the receive never blocks.
	for sh.carry == nil && nops < max && len(sh.queue) > 0 {
		r := <-sh.queue
		if nops+len(r.ops) > max {
			sh.carry = r
			break
		}
		pending = append(pending, r)
		nops += len(r.ops)
	}
	sh.pendingScratch = pending
	return pending, nops
}

// drainAll flushes the queue to empty (in batchMax-bounded sections),
// blocking for the drain lock. The worker's path.
func (sh *shard) drainAll() {
	sh.combineMu.Lock()
	for {
		reqs, nops := sh.drainLocked(nil)
		if len(reqs) == 0 {
			break
		}
		sh.runBatch(reqs, nops)
	}
	sh.combineMu.Unlock()
}

// runBatch executes one batch of commit groups inside a single
// outermost critical section over the union of their stripe mutexes,
// then completes every queued group. The caller holds combineMu, so at
// most one batch is in flight per shard and the scratch buffers and
// drain thread are single-owner. Stripes are deduplicated and acquired
// in ascending order; the drain-lock holder is the only stripe acquirer
// on this shard, so the acquisition cannot deadlock.
func (sh *shard) runBatch(reqs []*batchReq, nops int) {
	sh.mu.RLock()
	th, err := sh.workerThread()
	if err != nil {
		sh.mu.RUnlock()
		for _, r := range reqs {
			for i := range r.ops {
				r.ops[i].err = err
			}
			r.complete()
		}
		return
	}
	m := sh.stk.Map
	stripes := sh.stripeScratch[:0]
	hasMut := false
	for _, r := range reqs {
		for i := range r.ops {
			if isZ(r.ops[i].kind) {
				// Skip-list ops need no stripe mutex: the structure is
				// lock-free. They still execute inside the section so
				// the batch stays one commit-ordered unit.
				continue
			}
			if r.ops[i].kind != opGet {
				hasMut = true
			}
			stripes = append(stripes, m.StripeOf(r.ops[i].key))
		}
	}
	sort.Ints(stripes)
	mus := sh.mutexScratch[:0]
	last := -1
	n := 0
	for _, st := range stripes {
		if st != last {
			mus = append(mus, m.StripeMutex(st))
			stripes[n] = st
			n++
			last = st
		}
	}
	uniq := stripes[:n]

	start := time.Now()
	_ = th.Section(mus, func() error {
		// Section-wide seqlock bracket: hold every involved stripe odd
		// for the whole group so optimistic readers can never validate a
		// half-applied batch. The *Locked map variants do not bump on
		// their own (see hashmap.BeginStripeWrites) — per-mutation
		// brackets would leave validatable quiet windows between a
		// group's mutations, tearing cross-key mget snapshots.
		if hasMut {
			for _, st := range uniq {
				m.BeginStripeWrites(st)
			}
			defer func() {
				for _, st := range uniq {
					m.EndStripeWrites(st)
				}
			}()
		}
		for _, r := range reqs {
			if r.sess != 0 {
				// Sessioned group: window check, effects, and dedup
				// record in this one section (see session.go).
				sh.runSessReq(th, r)
				continue
			}
			for i := range r.ops {
				sh.execOp(th, &r.ops[i])
			}
			// Follower-apply groups carry the primary's session records
			// (and floor), committed with the ops they witnessed.
			for _, mk := range r.marks {
				sh.sessPersist(th, mk.Sess, mk.Seq, mk.Payload, mk.Key)
			}
			if r.floor > 0 {
				sh.sessRaiseFloor(th, r.floor)
			}
		}
		return nil
	})
	// One latency observation and one size observation per batch — the
	// amortization the stats should make visible.
	sh.tel.OpLatency.Observe(time.Since(start))
	sh.tel.BatchSize.ObserveValue(uint64(nops))
	sh.tel.Server.Batches.Inc()
	sh.tel.Server.BatchedOps.Add(uint64(nops))
	// Replication tail: the batch just committed as one OCS becomes one
	// replication log group. Still under the read lock, so a crash (and
	// its generation bump) cannot land between commit and append.
	if sh.replLog != nil {
		sh.appendRepl(reqs)
	}
	sh.stripeScratch, sh.mutexScratch = stripes[:0], mus[:0]
	sh.mu.RUnlock()
	for _, r := range reqs {
		r.complete()
	}
}

// complete publishes a queued group's results to its waiting
// submitter. The channel is read once: after the close the submitter
// owns the group again and may reuse it.
func (g *batchReq) complete() {
	if done := g.done; done != nil {
		close(done)
	}
}

// execOp runs one op against the shard's engines with th, inside the
// batch's open section (which already holds every stripe mutex the
// batch needs), recording the protocol counters.
//
// Tier interleaving happens here: reads consult the shard's relaxed
// overlay first (read-your-writes across tiers), and a durable write
// to a key with a pending relaxed entry pops that entry — folding it
// into this critical section, so the durable op's result accounts for
// the buffered state it supersedes. All overlay touches are gated on
// the atomic size, so an all-durable workload pays one atomic load.
//
// An epoch-drain op (seq != 0) is the same write with a guard on each
// side: it runs only while its key still has a pending overlay entry,
// and on success it clears that entry and persists the dedup record a
// sessioned relaxed write buffered beside the value — value and record
// become durable in one section, completing the relaxed tier's
// exactly-once story (see session.go).
func (sh *shard) execOp(th *atlas.Thread, op *batchOp) {
	m := sh.stk.Map
	list := isZ(op.kind)
	if op.seq != 0 {
		e, pending := sh.ovl.get(op.key, list)
		if !pending {
			return // a durable fold already settled the entry
		}
		if e.seq != op.seq {
			// A newer relaxed write replaced the snapshotted entry. The
			// drain still owes the key a value at least as new as the one
			// it snapshotted — that one was acked inside the closing epoch
			// — so it flushes the replacement instead of skipping.
			*op = flushOp(ovKey{key: op.key, list: list}, e)
		}
	}
	switch op.kind {
	case opGet:
		sh.tel.Server.Gets.Inc()
		if e, hit := sh.ovl.get(op.key, false); hit {
			op.val, op.ok = e.val, !e.del
		} else {
			op.val, op.ok, op.err = m.GetLocked(th, op.key)
		}
		if op.ok {
			sh.tel.Server.Hits.Inc()
		}
	case opSet:
		sh.takeFold(th, op, list)
		op.err = m.PutLocked(th, op.key, op.arg)
		if op.err == nil {
			op.ok = true
			sh.tel.Server.Sets.Inc()
		}
	case opIncr:
		if op.err = sh.foldOverlay(th, op, list); op.err != nil {
			return
		}
		op.val, op.err = m.IncLocked(th, op.key, op.arg)
		if op.err == nil {
			op.ok = true
			sh.tel.Server.Sets.Inc()
		}
	case opDelete:
		oe, hadOv := sh.takeFold(th, op, list)
		op.ok, op.err = m.DeleteLocked(th, op.key)
		if op.err == nil {
			if hadOv {
				// The overlay held the key's logical state: present unless
				// the pending entry was itself a delete.
				op.ok = !oe.del
			}
			sh.tel.Server.Deletes.Inc()
		}
	case opZSet:
		sh.takeFold(th, op, list)
		_, op.err = sh.stk.List.Put(op.key, op.arg)
		if op.err == nil {
			op.ok = true
			op.val = op.arg
			sh.tel.Server.ZSets.Inc()
		}
	case opZIncr:
		if op.err = sh.foldOverlay(th, op, list); op.err != nil {
			return
		}
		op.val, op.err = sh.stk.List.Inc(op.key, op.arg)
		if op.err == nil {
			op.ok = true
			sh.tel.Server.ZSets.Inc()
		}
	case opZDelete:
		oe, hadOv := sh.takeFold(th, op, list)
		op.ok, op.err = sh.stk.List.Delete(op.key)
		if op.err == nil {
			if hadOv {
				op.ok = !oe.del
			}
			sh.tel.Server.ZDeletes.Inc()
		}
	}
	if op.seq != 0 && op.err == nil {
		// An applied flush always counts (and replicates), whether or
		// not a flushed delete found the key in the engine.
		op.ok = true
		sh.ovl.clearIfSeq(op.key, list, op.seq)
		if op.sess != 0 {
			sh.sessPersist(th, op.sess, op.sseq, op.spay, op.key)
		}
	}
}

// takeFold pops the pending overlay entry of op's key — the
// durable-write fold — and, when the entry was a sessioned relaxed
// write, persists its dedup record inside the open section: the fold is
// making the buffered value durable, so its record must become durable
// with it or a crash between the two would let the session's retry
// apply a second time. An epoch-drain op folds nothing: the entry it
// is flushing IS the pending state, cleared only once the write landed.
func (sh *shard) takeFold(th *atlas.Thread, op *batchOp, list bool) (ovEntry, bool) {
	if op.seq != 0 {
		return ovEntry{}, false
	}
	e, ok := sh.ovl.take(op.key, list)
	if ok && e.sess != 0 {
		sh.sessPersist(th, e.sess, e.sseq, e.spay, op.key)
	}
	return e, ok
}

// foldOverlay materializes a key's pending relaxed entry into the
// engine — a put of the buffered value, or a delete for a buffered
// tombstone — so an arithmetic durable op (incr/zincr) starts from the
// logical state its connection has already been acked.
func (sh *shard) foldOverlay(th *atlas.Thread, op *batchOp, list bool) error {
	e, ok := sh.takeFold(th, op, list)
	if !ok {
		return nil
	}
	var err error
	switch {
	case list && e.del:
		_, err = sh.stk.List.Delete(op.key)
	case list:
		_, err = sh.stk.List.Put(op.key, e.val)
	case e.del:
		_, err = sh.stk.Map.DeleteLocked(th, op.key)
	default:
		err = sh.stk.Map.PutLocked(th, op.key, e.val)
	}
	return err
}

// isZ reports whether an op kind targets the ordered keyspace.
func isZ(k opKind) bool {
	return k == opZSet || k == opZIncr || k == opZDelete
}

// closePipeline stops the worker after the last submitter is gone: the
// doorbell is closed, the worker performs one final drain (every
// queued group is executed, never dropped), and the call returns when
// it has exited.
func (sh *shard) closePipeline() {
	close(sh.doorbell)
	<-sh.workerDone
}
