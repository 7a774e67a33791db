package cacheserver

import (
	"errors"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/proto"
	"tsp/internal/repl"
	"tsp/internal/telemetry"
)

// The write path. Every engine mutation — a client command's ops, a
// sessioned request with its dedup record, an epoch drain's apply, a
// follower applying its primary's groups — is one commit group (a
// batchReq) executed by one function, shard.runBatch, inside ONE Atlas
// outermost critical section under the shard's drain lock. That is the
// paper's promise kept literally: each group is one OCS and is
// therefore applied or rolled back as a unit, and because no mutation
// runs outside the drain lock, per shard the commit order, the
// replication-log order and the order in which tiers observe each other
// are the same order. Session records are written in two places, both
// in runBatch's section: a sessioned group's own record (runSessReq) and
// a follower group's replicated marks. An epoch drain applies values
// only; no record is ever buffered beside one.
//
// The section takes ONE Atlas mutex, the shard's commit lock: a shard's
// sections all run on its one Atlas thread under the drain lock, so
// per-stripe mutexes would only log program order (DESIGN.md §7). The
// stripes stay as the seqlock bracket of the stripes a section mutates.
//
// A submitter hands a shard an ordered LIST of groups (chained through
// batchReq.next): everything one pipelined burst — or one replicated
// group — owes this shard, in program order (see plan.go). An epoch
// drain is the one mutation that does not come through submit: it takes
// the drain lock itself, commits its payload and applies it in sections
// of its own (see epoch.go). How a list reaches the executor is a
// scheduling choice made in one place, shard.submit, with three arms:
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
// BatchMax (a wide mset, a follower's copy of a primary's epoch drain),
// which runs alone as BatchMax-sized sections back to back — the bound is
// what sizes the undo-log ring — its session record, follower marks and
// floor riding the last chunk.
//
// A crash may land at any device store. A section or drain commit that
// ran on a crashed device answers nothing — every op fails with
// errCrashed — so no reply acks what recovery may roll back.
var errCrashed = errors.New("device crashed")

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
	// the overlay sequence of the snapshotted entry, which the apply
	// clears once the write landed if the entry still carries seq.
	seq uint64

	val uint64
	ok  bool
	err error
}

// batchReq is one commit group: ops one submitter contributes to one
// shard that apply inside one section (but see the wide-group note
// above). markApplied is set only on the last group of an epoch drain's
// apply: its section also marks the shard's drain payload applied.
//
// A request with sess != 0 is a sessioned group (see session.go): the
// executor checks the dedup window (the command's one verdict), applies
// the ops, and commits the session record inside the one section;
// verdict and sessPay carry the outcome back. marks and floor ride only
// on follower-apply groups: replicated session records (and the
// primary's eviction floor) that must commit atomically with the
// group's ops.
//
// next chains the submitter's following group on this shard; the drain
// commits a list in chain order. done is nil while the list runs in its
// submitter's goroutine; submit allocates it — on the list's LAST group
// only — when the list is queued, and the drain closes it after every
// op's result in the whole list is filled in.
type batchReq struct {
	ops         []batchOp
	markApplied bool

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
// section (a wide mset, a replicated drain, a snapshot wipe) is never
// queued: its chunks run on the goroutine that brought them, not on a
// client's.
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
// incarnation, and the commit lock made beside it, re-registering after
// a crash replaced the runtime. It is the shard's only Atlas thread:
// only the drain-lock holder touches wth/wmu/wgen, and the caller holds
// the shard read lock, which keeps gen stable.
func (sh *shard) workerThread() (*atlas.Thread, error) {
	if sh.wth != nil && sh.wgen == sh.gen.Load() {
		return sh.wth, nil
	}
	th, err := sh.stk.NewThread()
	if err != nil {
		return nil, err
	}
	sh.wth, sh.wmu = th, []*atlas.Mutex{sh.stk.RT.NewMutex()}
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
			// Wider than a section on its own.
			*slot = g.next
			sh.runWide(g)
			g.complete()
		}
	}
}

// runWide executes g alone, in as many sections as batchMax requires:
// the head runs as plain chunks through the shard's chunk group — for a
// sessioned mset they are absolute sets, idempotent under the retry a
// crash before the record would provoke — and g itself, narrowed to the
// tail, carries record, marks, floor and markApplied into the last
// section. Caller holds combineMu.
func (sh *shard) runWide(g *batchReq) {
	all, max := g.ops, sh.cfg.batchMax
	for len(g.ops) > max {
		sh.chunk.ops, g.ops = g.ops[:max], g.ops[max:]
		sh.runOne(&sh.chunk)
	}
	sh.chunk.ops = nil
	sh.runOne(g)
	g.ops = all
}

// runOne executes g alone as one batch. Caller holds combineMu.
func (sh *shard) runOne(g *batchReq) {
	sh.pendingScratch = append(sh.pendingScratch[:0], g)
	sh.runBatch(sh.pendingScratch, len(g.ops))
}

// runBatch executes one batch of commit groups inside a single
// outermost critical section under the shard's commit lock; completing
// queued lists is the caller's job. The caller holds combineMu, so at
// most one batch is in flight per shard and the scratch buffers and
// drain thread are single-owner. A batch of skip-list ops alone takes
// no lock and so opens no section.
func (sh *shard) runBatch(reqs []*batchReq, nops int) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	th, err := sh.workerThread()
	if err != nil {
		sh.fail(reqs, err)
		return
	}
	m := sh.stk.Map
	var mus []*atlas.Mutex
	for _, r := range reqs {
		for i := range r.ops {
			// Skip-list ops need no lock: the structure is lock-free.
			// They still execute inside the section so the batch stays
			// one commit-ordered unit.
			if op := &r.ops[i]; !isZ(op.kind) {
				mus = sh.wmu
				sh.walk = append(sh.walk, op.key)
				if op.kind != opGet {
					sh.stripes.Add(m.StripeOf(op.key))
				}
			}
		}
	}
	stripes := sh.stripes.Sorted()
	if len(sh.walk) > 1 {
		// Overlap the chains' misses; a lone op would walk its chain twice.
		m.WalkChains(sh.walk)
	}
	sh.walk = sh.walk[:0]

	start := time.Now()
	_ = th.Section(mus, func() error {
		// Section-wide seqlock bracket: every mutated stripe stays odd for
		// the whole group, so no optimistic reader validates a half-applied
		// batch (see hashmap.BeginStripeWrites).
		m.BeginStripes(stripes)
		defer m.EndStripes(stripes)
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
			if r.markApplied {
				sh.stk.MarkDrainApplied(th)
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
	// One latency and one size observation per batch — the amortization
	// the stats should make visible — and the ops' counts, all published
	// before any op is answered.
	sh.tel.OpLatency.Observe(time.Since(start))
	sh.tel.BatchSize.ObserveValue(uint64(nops))
	sh.tel.Server.Batches.Inc()
	sh.tel.Server.BatchedOps.Add(uint64(nops))
	sh.counts.publish(sh.tel.Server)
	// Still under the read lock, which keeps the stack pointer stable: a
	// batch that ran on a crashed device fails, and one that committed as
	// one OCS becomes one replication log group, no rebuild in between.
	if sh.stk.Dev.Crashed() {
		sh.fail(reqs, errCrashed)
		return
	}
	if sh.replLog != nil {
		sh.appendRepl(reqs)
	}
}

// fail answers a batch with err, nothing else: every op reports it, and
// a sessioned group's verdict goes with the record the section may lose.
func (sh *shard) fail(reqs []*batchReq, err error) {
	sh.markScratch = sh.markScratch[:0]
	for _, r := range reqs {
		r.verdict = sessFresh
		for i := range r.ops {
			r.ops[i].err = err
		}
	}
}

// execOp runs one op against the shard's engines with th, inside the
// batch's open section, counting it in sh.counts.
//
// Tier interleaving happens here, on the hash map only: gets consult
// the shard's relaxed overlay first (read-your-writes across tiers),
// and a durable write to a key with a pending relaxed entry pops that
// entry — folding it into this critical section, so the durable op's
// result accounts for the buffered state it supersedes. All overlay
// touches are gated on the atomic size, so an all-durable workload pays
// one atomic load. The opZ* arms never touch the overlay: a skip-list
// write is durable at its CAS on every tier, so nothing is buffered.
//
// An epoch-drain op (seq != 0) applies its snapshot's own value — the
// payload committed exactly that — and folds nothing. On success it
// clears its entry if the entry still carries seq; a relaxed write that
// replaced it since the snapshot was stamped with the next epoch and
// stays pending for the next drain. No durable fold can have settled the
// entry first: the drain holds the drain lock from its snapshot on.
func (sh *shard) execOp(th *atlas.Thread, op *batchOp) {
	m := sh.stk.Map
	switch op.kind {
	case opGet:
		if e, hit := sh.ovl.get(op.key); hit {
			op.val, op.ok = e.val, !e.del
		} else {
			op.val, op.ok, op.err = m.GetLocked(th, op.key)
		}
		if op.ok {
			sh.counts.hits++
		}
	case opSet:
		sh.takeFold(op)
		op.err = m.PutLocked(th, op.key, op.arg)
		op.ok = op.err == nil
	case opIncr:
		if op.err = sh.foldOverlay(th, op); op.err != nil {
			return
		}
		op.val, op.err = m.IncLocked(th, op.key, op.arg)
		op.ok = op.err == nil
	case opDelete:
		oe, hadOv := sh.takeFold(op)
		op.ok, op.err = m.DeleteLocked(th, op.key)
		if op.err == nil && hadOv {
			// The overlay held the key's logical state: present unless
			// the pending entry was itself a delete.
			op.ok = !oe.del
		}
	case opZSet:
		_, op.err = sh.stk.List.Put(op.key, op.arg)
		op.ok, op.val = op.err == nil, op.arg
	case opZIncr:
		op.val, op.err = sh.stk.List.Inc(op.key, op.arg)
		op.ok = op.err == nil
	case opZDelete:
		op.ok, op.err = sh.stk.List.Delete(op.key)
	}
	if op.err != nil {
		return
	}
	sh.counts.ops[op.kind]++
	if op.seq != 0 {
		sh.counts.flushed++
		sh.ovl.clearIfSeq(op.key, op.seq)
	}
}

// takeFold pops the pending overlay entry of op's key — the
// durable-write fold. An epoch-drain op folds nothing: the entry it is
// applying IS the pending state, cleared only once the write landed.
func (sh *shard) takeFold(op *batchOp) (ovEntry, bool) {
	if op.seq != 0 {
		return ovEntry{}, false
	}
	return sh.ovl.take(op.key)
}

// foldOverlay materializes a key's pending relaxed entry into the map —
// a put of the buffered value, or a delete for a buffered tombstone —
// so a durable incr starts from the logical state its connection has
// already been acked.
func (sh *shard) foldOverlay(th *atlas.Thread, op *batchOp) error {
	e, ok := sh.takeFold(op)
	switch {
	case !ok:
		return nil
	case e.del:
		_, err := sh.stk.Map.DeleteLocked(th, op.key)
		return err
	default:
		return sh.stk.Map.PutLocked(th, op.key, e.val)
	}
}

// execCounts is what execOp counted in the open section — applied ops per
// kind, hits, applied epoch-drain writes — until runBatch publishes it.
type execCounts struct {
	ops           [opZDelete + 1]uint64
	hits, flushed uint64
}

func (c *execCounts) publish(s *telemetry.ServerStats) {
	s.Gets.Add(c.ops[opGet])
	s.Hits.Add(c.hits)
	s.Sets.Add(c.ops[opSet] + c.ops[opIncr])
	s.Deletes.Add(c.ops[opDelete])
	s.ZSets.Add(c.ops[opZSet] + c.ops[opZIncr])
	s.ZDeletes.Add(c.ops[opZDelete])
	s.EpochFlushed.Add(c.flushed)
	*c = execCounts{}
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
