package cacheserver

import (
	"fmt"
	"sync"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/proto"
	"tsp/internal/repl"
	"tsp/internal/stack"
)

// Exactly-once retries via detectable operations. A client that loses
// a connection mid-command cannot tell whether its mutation applied —
// the classic at-most-once/at-least-once dilemma every retry loop
// faces. The TSP planner's answer is the same as for every other
// failure class: make the operation DETECTABLE with the minimum
// persistence that is still timely. Each shard keeps a bounded
// persistent dedup window — one record per client session holding
// {session id, highest applied seq, reply payload, witness key} — in
// the heap beside the epoch frontier, and commits the record INSIDE
// the same Atlas critical section as the mutation it witnesses. The
// record and the effect are therefore atomic under power failure: a
// recovered (or promoted) server either has both — the retry is
// recognized and answered from the recorded payload without
// re-applying — or neither, and the retry applies as a fresh request.
// No command pays an extra flush for this: the record's stores ride
// the section the mutation already commits.
//
// The wire contract (docs/PROTOCOL.md): a client binds its connection
// with `session <id>` and tags each mutation with a monotonically
// increasing `seq=<n>`. A seq equal to the session's record replays
// the recorded reply; a seq below it (or at/below the shard's eviction
// floor) answers `seq too old` — the bounded window's honesty about
// what it can no longer dedup; a higher seq applies and advances the
// record. Clients retry only their most recent request, so one record
// per session suffices.
//
// Scope: seq is honored on set, incr, mset, zadd, zincr, zdel, and
// single-key delete. A seq tag makes the write durable on every tier:
// a sessioned request is one durable commit group whose record the
// executor checks and commits in whatever section carries the group
// (see runSessReq), so seq-tagged writes batch with the plain commands
// around them, the in-section check is the one verdict, and the ack —
// first send and replay alike — is the durable ack. No record is ever
// volatile: a session record is present iff its effect is. A sessioned
// mset that spans shards executes its non-witness shards first
// (absolute sets — idempotent under replay) and its witness shard (the
// shard of the first key) last, with the record committed in that final
// section: the record's presence therefore implies every other shard
// applied. On a replicating primary every persisted record also rides
// the replication stream as a group mark, so a promoted follower
// inherits the window and keeps suppressing the same retries
// (DESIGN.md §9).

// Error texts of the session contract.
const (
	noSessionMsg = "seq requires a session (send: session <id> first)"
	seqScopeMsg  = "seq requires a mutating command"
	seqDeleteMsg = "seq requires a single-key delete"
	seqTooOldMsg = "seq too old (behind the session's dedup window)"
)

// sessVerdict classifies one sessioned request against the window.
type sessVerdict uint8

const (
	// sessFresh means the seq is new: apply and record.
	sessFresh sessVerdict = iota
	// sessDup means the seq equals the record: replay the payload.
	sessDup
	// sessOld means the seq is below the record or the eviction floor.
	sessOld
)

// sessRec is the volatile mirror of one session's dedup record: the
// newest applied request's seq, reply payload and witness key, and the
// record's slot in the shard's persistent table.
type sessRec struct {
	seq  uint64
	pay  uint64
	wkey uint64
	slot int
}

// sessTable is a shard's session dedup window: the volatile mirror of
// the persistent table (rebuilt from the heap on every recovery), the
// slot-occupancy index, and the eviction floor. The mirror holds
// exactly what the heap holds — every record is written in-section —
// and exists so a check reads a map instead of the device.
type sessTable struct {
	mu    sync.Mutex
	m     map[uint64]sessRec
	slots []uint64 // slot index -> occupying session id (0 = free)
	floor uint64   // highest evicted seq; seqs at/below it are undecidable
	cur   int      // round-robin eviction cursor
}

// sessRebuild (re)builds the volatile mirror from the shard's
// persistent session table. Called at shard construction and after
// every crash-reattach, under the shard write lock (or before the
// shard serves), so no reader races it.
func (sh *shard) sessRebuild() {
	t := &sh.sess
	t.mu.Lock()
	defer t.mu.Unlock()
	_, slots := sh.stk.SessTable()
	t.m = make(map[uint64]sessRec)
	t.slots = make([]uint64, slots)
	t.cur = 0
	t.floor = sh.sessSlots(func(i int, r repl.SessRec) {
		t.m[r.Sess] = sessRec{seq: r.Seq, pay: r.Payload, wkey: r.Key, slot: i}
		t.slots[i] = r.Sess
	})
}

// sessSlots calls fn for every occupied slot of the shard's PERSISTENT
// session table — the heap words, not the volatile mirror — and
// returns the persistent eviction floor.
func (sh *shard) sessSlots(fn func(slot int, r repl.SessRec)) (floor uint64) {
	p, slots := sh.stk.SessTable()
	if p.IsNil() || slots == 0 {
		return 0
	}
	h := sh.stk.Heap
	for i := 0; i < slots; i++ {
		base := stack.SessHdrWords + stack.SessRecWords*i
		if sess := h.Load(p, base+stack.SessRecSess); sess != 0 {
			fn(i, repl.SessRec{
				Sess:    sess,
				Seq:     h.Load(p, base+stack.SessRecSeq),
				Payload: h.Load(p, base+stack.SessRecPayload),
				Key:     h.Load(p, base+stack.SessRecKey),
			})
		}
	}
	return h.Load(p, stack.SessFloorWord)
}

// sessCheck classifies (sess, seq) against the window. The payload is
// meaningful only on sessDup.
func (sh *shard) sessCheck(sess, seq uint64) (sessVerdict, uint64) {
	t := &sh.sess
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec, ok := t.m[sess]; ok {
		switch {
		case seq == rec.seq:
			return sessDup, rec.pay
		case seq < rec.seq:
			return sessOld, 0
		}
		return sessFresh, 0
	}
	if seq <= t.floor {
		return sessOld, 0
	}
	return sessFresh, 0
}

// sessAddr returns the word address off words into the shard's session
// table block.
func sessAddr(p pheap.Ptr, off int) nvm.Addr {
	return p.Addr() + nvm.Addr(off)
}

// sessPersist commits (sess, seq, pay, wkey) into the shard's
// persistent session table. MUST be called inside an open Atlas
// section on th (the executor's section), holding the shard read
// lock: the record's stores are undo-logged with the mutation they
// witness, which is the whole point — record and effect commit or
// roll back together. Persists are seq-guarded (a slot never moves
// backwards), so a follower replaying a log suffix its state transfer
// already covers keeps the newer record. When the table is full the
// round-robin victim's record is evicted and the floor raised to its
// seq — in the same section, so the window's honesty survives the
// crash too. On a replicating primary the persisted record is queued as
// a group mark for appendRepl (the caller holds the drain lock, which
// makes markScratch single-writer).
func (sh *shard) sessPersist(th *atlas.Thread, sess, seq, pay, wkey uint64) {
	t := &sh.sess
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.m[sess]
	if ok && rec.seq >= seq {
		return
	}
	p, _ := sh.stk.SessTable()
	if p.IsNil() || len(t.slots) == 0 {
		return
	}
	if !ok {
		rec.slot = t.freeSlotLocked(sh, th, p)
	}
	base := stack.SessHdrWords + stack.SessRecWords*rec.slot
	th.Store(sessAddr(p, base+stack.SessRecSess), sess)
	th.Store(sessAddr(p, base+stack.SessRecSeq), seq)
	th.Store(sessAddr(p, base+stack.SessRecPayload), pay)
	th.Store(sessAddr(p, base+stack.SessRecKey), wkey)
	t.m[sess] = sessRec{seq: seq, pay: pay, wkey: wkey, slot: rec.slot}
	t.slots[rec.slot] = sess
	if sh.replLog != nil {
		sh.markScratch = append(sh.markScratch,
			repl.SessRec{Sess: sess, Seq: seq, Payload: pay, Key: wkey})
	}
}

// freeSlotLocked returns a free slot in the persistent table, evicting
// the round-robin victim (and raising the persistent floor to its seq,
// in-section) when the table is full. Caller holds t.mu and an open
// section on th.
func (t *sessTable) freeSlotLocked(sh *shard, th *atlas.Thread, p pheap.Ptr) int {
	for i := range t.slots {
		if t.slots[i] == 0 {
			return i
		}
	}
	v := t.cur
	t.cur = (t.cur + 1) % len(t.slots)
	victim := t.slots[v]
	if vrec, ok := t.m[victim]; ok {
		if vrec.seq > t.floor {
			t.floor = vrec.seq
			th.Store(sessAddr(p, stack.SessFloorWord), t.floor)
		}
		delete(t.m, victim)
	}
	t.slots[v] = 0
	sh.tel.Server.SessionEvicted.Inc()
	return v
}

// sessRaiseFloor raises the shard's eviction floor to at least floor —
// the follower-side merge of the primary's floor. Caller requirements
// match sessPersist.
func (sh *shard) sessRaiseFloor(th *atlas.Thread, floor uint64) {
	t := &sh.sess
	t.mu.Lock()
	defer t.mu.Unlock()
	if floor <= t.floor {
		return
	}
	p, _ := sh.stk.SessTable()
	if p.IsNil() {
		return
	}
	t.floor = floor
	th.Store(sessAddr(p, stack.SessFloorWord), floor)
}

// sessPayload derives the recorded reply payload from a sessioned
// request's resolved ops: the new value for arithmetic commands, the
// found bit for deletes, 0 for sets (whose replies need no state).
func sessPayload(cmd proto.Cmd, ops []batchOp) uint64 {
	switch cmd.Spec().Verb {
	case proto.VerbIncr:
		return ops[0].val
	case proto.VerbDelete:
		if ops[0].ok {
			return 1
		}
	}
	return 0
}

// runSessReq executes one sessioned group inside the batch's open
// section: check the window (the one verdict: it runs under the drain
// lock, in program order with every earlier group of the shard), apply
// the ops, and commit the dedup record — all in one OCS. An op
// error skips the record so the client's retry re-runs rather than
// being suppressed with a failure it can't see.
func (sh *shard) runSessReq(th *atlas.Thread, r *batchReq) {
	if r.verdict, r.sessPay = sh.sessCheck(r.sess, r.sseq); r.verdict != sessFresh {
		return
	}
	for i := range r.ops {
		sh.execOp(th, &r.ops[i])
	}
	for i := range r.ops {
		if r.ops[i].err != nil {
			return
		}
	}
	r.sessPay = sessPayload(r.sessCmd, r.ops)
	sh.sessPersist(th, r.sess, r.sseq, r.sessPay, r.wkey)
}

// sessReplay shapes the reply a duplicate retry is answered with, from
// the recorded payload and the (retried) request's own shape: the
// durable ack its first send was answered with, on every tier.
func sessReplay(cs *connState, req *proto.Request, pay uint64) proto.Reply {
	rep := proto.Reply{Kind: req.Cmd.Spec().Reply}
	switch rep.Kind {
	case proto.KInt:
		rep.Val = pay
	case proto.KDelete:
		rep.Items = append(cs.items[:0], proto.Item{Key: req.KV[0], Found: pay != 0})
		cs.items = rep.Items
	case proto.KStoredN:
		rep.N = len(req.KV) / 2
	}
	return rep
}

// sessGuard refuses a seq-tagged request the exactly-once contract has
// no answer for: no bound session, nothing to dedup (a read), or no
// single witness key (a multi-key delete).
func sessGuard(cs *connState, req *proto.Request) (proto.Reply, bool) {
	switch {
	case cs.sess == 0:
		return proto.Reply{Kind: proto.KErrClient, Msg: noSessionMsg}, true
	case !req.Cmd.Spec().Mutates():
		return proto.Reply{Kind: proto.KErrClient, Msg: seqScopeMsg}, true
	case req.Cmd == proto.CmdDelete && len(req.KV) != 1:
		return proto.Reply{Kind: proto.KErrClient, Msg: seqDeleteMsg}, true
	}
	return proto.Reply{}, false
}

// planSessioned compiles one seq-tagged mutation — durable on every
// tier — into the connection's plan. A command whose keys live on one
// shard joins it as a sessioned group, in program order with the plain
// commands around it, and its executor's in-section check is its
// verdict. Two shapes stay sequence points (the pending plan flushes
// first): an mset spanning shards, whose witness shard must commit after
// every other leg has; and an mset wider than one section, whose head
// chunks run before its record's section (see shard.drain). With the
// plan flushed, the window as committed is the window the executor
// would see, so these two alone are checked up front: a duplicate or
// stale seq must not reach their non-witness shards or head chunks.
func (s *Server) planSessioned(cs *connState, enc *proto.Encoder, req *proto.Request) {
	if rep, bad := sessGuard(cs, req); bad {
		s.flushPlan(cs, enc)
		cs.stage(enc, rep)
		return
	}
	wkey := req.KV[0]
	wsh := s.shardOf(wkey)
	wsh.tel.Server.SessionOps.Inc()
	p := &cs.plan
	sp := req.Cmd.Spec()
	cs.ops = appendOps(cs.ops[:0], req, opKinds[sp.Space][sp.Verb])
	spans := len(cs.ops) > s.cfg.batchMax
	for i := 1; i < len(cs.ops) && !spans; i++ {
		spans = s.shardOf(cs.ops[i].key) != wsh
	}
	tag := cmdTag{req: req, sh: wsh}
	if spans {
		s.flushPlan(cs, enc)
		if v, pay := wsh.sessCheck(cs.sess, req.Seq); v != sessFresh {
			tag.verdict, tag.pay = v, pay
			cs.tags = append(cs.tags, tag)
			return
		}
		// Witness last: the other shards' sets commit first. Their
		// results are not consulted.
		n := 0
		for i := range cs.ops {
			if sh := s.shardOf(cs.ops[i].key); sh != wsh {
				p.add(sh, cs.ops[i], false)
			} else {
				cs.ops[n] = cs.ops[i]
				n++
			}
		}
		cs.ops = cs.ops[:n]
		s.runPlan(p)
		p.reset()
	}
	tag.start = len(cs.refs)
	at, grp := p.addSess(wsh, cs.ops, batchReq{sess: cs.sess, sseq: req.Seq, wkey: wkey, sessCmd: req.Cmd})
	p.legs[wsh.idx].tiers[proto.DurDurable]++
	for i := range cs.ops {
		cs.refs = append(cs.refs, opRef{at.leg, at.at + int32(i)})
	}
	tag.n, tag.grp = len(cs.ops), grp+1
	cs.tags = append(cs.tags, tag)
	if spans {
		s.flushPlan(cs, enc)
	}
}

// sessSettled answers a seq-tagged command whose verdict — its
// sessioned group's executor's, or a sequence point's up-front check —
// is duplicate or too old. A fresh command is answered from its ops like
// any other: the ack its record would replay.
func (s *Server) sessSettled(cs *connState, tg *cmdTag) (proto.Reply, bool) {
	v, pay := tg.verdict, tg.pay
	if tg.grp > 0 {
		g := &cs.plan.legs[tg.sh.idx].groups[tg.grp-1]
		v, pay = g.verdict, g.sessPay
	}
	switch v {
	case sessDup:
		tg.sh.tel.Server.SessionDups.Inc()
		return sessReplay(cs, tg.req, pay), true
	case sessOld:
		// A client error: well-formed but undecidable, and only the client
		// knows whether the request was acked before.
		tg.sh.tel.Server.SessionTooOld.Inc()
		return proto.Reply{Kind: proto.KErrClient, Msg: seqTooOldMsg}, true
	}
	return proto.Reply{}, false
}

// serveSession binds the connection to a client session for subsequent
// seq-tagged mutations. Rebinding mid-connection is allowed (a proxy
// multiplexing several logical clients re-binds per request stream).
func (s *Server) serveSession(cs *connState, req *proto.Request) proto.Reply {
	cs.sess = req.KV[0]
	return proto.Reply{Kind: proto.KRaw, Msg: fmt.Sprintf("OK SESSION %d", req.KV[0])}
}
