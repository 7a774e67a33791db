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
// A submitter hands a shard an ordered LIST of groups (chained through
// batchReq.next): everything one pipelined burst — or one replicated
// group, or one epoch drain — owes this shard, in program order (see
// plan.go). How a list reaches the executor is a scheduling choice made
// in one place, shard.submit, with three arms:
//
//   - Own goroutine: the submitter tries the drain lock without waiting
//     and, if it wins, runs its list there and then in as few sections
//     as BatchMax allows, the last filled up with whatever others have
//     queued — no queue hop, no channel, no goroutine handoff. A lone
//     command on an idle shard costs one section and nothing else.
//   - Queue: a submitter that loses the lock enqueues its list behind
//     ONE completion channel, rings the shard's doorbell and moves on.
//     Whoever holds the drain lock next (another submitter, or the
//     worker goroutine the doorbell wakes) drains the queued lists into
//     shared sections: the paper's procrastination argument applied to
//     the request path — the acquire/release log records, the undo
//     logging and the OCS commit are paid once per DRAINED BATCH, so
//     the per-op cost shrinks as load (and batch size) grows.
//   - Blocked: when the queue is full the submitter waits for the drain
//     lock itself and runs its list when it gets it. Backpressure
//     surfaces as the server_batch_fallbacks counter.
//
// A section never splits a group, and the plan compiler cuts groups at
// command boundaries. The one exception is a single group wider than
// BatchMax (a wide mset, an epoch drain), which runs alone as
// BatchMax-sized sections back to back — the bound is what sizes the
// undo-log ring — its session record, follower marks and floor riding
// the last chunk.
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

// batchReq is one commit group: ops one submitter contributes to one
// shard that apply inside one section (but see the wide-group note
// above). epoch is non-zero only on epoch-drain groups; it stamps the
// replication log group so followers learn how far the relaxed
// frontier has propagated.
//
// A request with sess != 0 is a sessioned group (see session.go): the
// executor re-checks the dedup window, applies the ops, and commits the
// session record inside the one section — verdict and sessPay carry
// the outcome back. marks and floor ride only on follower-apply
// groups: replicated session records (and the primary's eviction
// floor) that must commit atomically with the group's ops.
//
// next chains the submitter's following group on this shard; the drain
// commits a list in chain order. done is nil while the list runs in its
// submitter's goroutine; submit allocates it — on the list's LAST group
// only — when the list is queued, and the drain closes it after every
// op's result in the whole list is filled in.
type batchReq struct {
	ops   []batchOp
	epoch uint64

	sess    uint64
	sseq    uint64
	wkey    uint64
	sessCmd proto.Cmd
	verdict sessVerdict
	sessPay uint64

	marks []repl.SessRec
	floor uint64

	next *batchReq
	done chan struct{}
}

// submit schedules one list of commit groups on the shard — the only
// way a mutation reaches the engines. On return the list has either
// already committed in this goroutine or is queued; wait() on its last
// group covers both, so a multi-shard plan submits to every owner shard
// before waiting on any. A list whose first group is wider than a
// section (an epoch drain, a snapshot wipe) is never queued: its chunks
// run on the goroutine that brought them, not on a client's.
func (sh *shard) submit(g *batchReq) {
	if !sh.combineMu.TryLock() {
		if len(g.ops) <= sh.cfg.batchMax {
			last := g
			for last.next != nil {
				last = last.next
			}
			last.done = make(chan struct{})
			select {
			case sh.queue <- g:
				sh.ringDoorbell()
				return
			default:
				// Counted before blocking, so backpressure is visible
				// while it is happening.
				last.done = nil
				sh.tel.Server.BatchFallbacks.Inc()
			}
		}
		sh.combineMu.Lock()
	}
	sh.drain(g)
	sh.combineMu.Unlock()
}

// wait blocks until the list ending in g has committed.
func (g *batchReq) wait() {
	if g.done != nil {
		<-g.done
	}
}

// complete publishes a queued list's results to its waiting submitter
// once its last group has committed. The channel is read once: after
// the close the submitter owns the list again and may reuse it.
func (g *batchReq) complete() {
	if done := g.done; done != nil {
		close(done)
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
// the queue: a submitter that wins the drain lock takes queued lists
// into its own sections (see drain). Only a submitter that lost the
// lock rings the doorbell, and the worker wakes, waits its turn on the
// drain lock, and flushes whatever is still queued. The doorbell has
// capacity one: rings coalesce, and a wake that finds the queue already
// drained costs one empty drain.
func (sh *shard) worker() {
	defer close(sh.workerDone)
	for {
		_, ok := <-sh.doorbell
		sh.combineMu.Lock()
		sh.drain(nil)
		sh.combineMu.Unlock()
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

// head returns the slot holding the next group in line without taking
// it: the caller's own list first, then the list a previous drain left
// half-taken (sh.carry), then the queue. Only the drain-lock holder
// receives, so a non-empty queue cannot empty under it and the receive
// never blocks.
func (sh *shard) head(own **batchReq) **batchReq {
	if *own != nil {
		return own
	}
	if sh.carry == nil && len(sh.queue) > 0 {
		sh.carry = <-sh.queue
	}
	return &sh.carry
}

// drain runs sections of at most batchMax ops, never splitting a group,
// until the caller's own list has committed — its last section taking
// along whatever is queued while there is room — or, for the worker
// (own == nil), until nothing is queued. Caller holds combineMu. A
// queued list cut off by a full section stays in sh.carry, keeping its
// groups' one-OCS atomicity and its place in line; whoever queued it
// rang the doorbell afterwards, so a worker drain is still to come.
func (sh *shard) drain(own *batchReq) {
	max, worker := sh.cfg.batchMax, own == nil
	for worker || own != nil {
		pending, nops := sh.pendingScratch[:0], 0
		slot := sh.head(&own)
		for g := *slot; g != nil && nops+len(g.ops) <= max; g = *slot {
			pending = append(pending, g)
			nops += len(g.ops)
			*slot = g.next
			slot = sh.head(&own)
		}
		sh.pendingScratch = pending
		g := *slot
		switch {
		case len(pending) > 0:
			sh.runBatch(pending, nops)
			for _, r := range pending {
				r.complete()
			}
		case g == nil:
			return
		default:
			// Wider than a section on its own: the head runs as plain
			// chunks — for a sessioned mset they are absolute sets,
			// idempotent under the retry a crash before the record would
			// provoke — and g itself, narrowed to the tail, carries record,
			// marks and floor into the last section.
			*slot = g.next
			all := g.ops
			chunk := batchReq{epoch: g.epoch}
			for len(g.ops) > max {
				chunk.ops, g.ops = g.ops[:max], g.ops[max:]
				sh.runOne(&chunk)
			}
			sh.runOne(g)
			g.ops = all
			g.complete()
		}
	}
}

// runOne executes g alone as one batch. Caller holds combineMu.
func (sh *shard) runOne(g *batchReq) {
	sh.pendingScratch = append(sh.pendingScratch[:0], g)
	sh.runBatch(sh.pendingScratch, len(g.ops))
}

// runBatch executes one batch of commit groups inside a single
// outermost critical section over the union of their stripe mutexes;
// completing queued lists is the caller's job. The caller holds combineMu, so at
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
