package cacheserver

import (
	"fmt"
	"net"
	"time"

	"tsp/internal/proto"
	"tsp/internal/telemetry"
)

// The pipelined serving path. A connection's bytes flow through a
// proto.Decoder that surfaces every buffered request as ONE batch, the
// batch's data commands compile into ONE commit plan submitted once per
// owner shard (plan.go), and the replies stage in a proto.Encoder that
// answers the whole batch with ONE write. The protocol itself —
// framing, spellings, error texts — lives entirely behind the
// proto.Adapter seam, so this file never touches wire bytes.

// readOnlyMsg is the mutation-rejection text a replicating follower
// answers until promoted.
const readOnlyMsg = "read-only replica (promote to enable writes)"

// writeBufBytes bounds each connection's response buffer. Replies larger
// than the bound spill to the socket as they are produced, so a slow
// reader exerts backpressure on its own handler instead of growing
// server memory.
const writeBufBytes = 16 << 10

// protoLabel maps a wire adapter to its telemetry protocol label.
func protoLabel(a proto.Adapter) telemetry.Protocol {
	if a.Name() == "resp" {
		return telemetry.ProtoRESP
	}
	return telemetry.ProtoNative
}

// handle runs one connection's request loop: decode a batch, serve it,
// flush one write. The protocol is sniffed from the first byte
// (proto.Decoder.Sniff).
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	dec := proto.NewDecoder(conn, proto.Native{}, proto.DefaultMaxRequest)
	ad, err := dec.Sniff()
	if err != nil {
		return
	}
	enc := proto.NewEncoder(conn, ad, writeBufBytes)
	defer enc.Flush()

	cs := s.newConnState()
	cs.ptel = protoLabel(ad)

	for {
		batch, err := dec.Next()
		if len(batch) > 0 {
			s.tel.DecodedBatch[cs.ptel].ObserveValue(uint64(len(batch)))
			quit := s.serveBatch(cs, enc, batch)
			if ferr := enc.Flush(); ferr != nil || quit {
				if ferr == nil && cs.importSlot >= 0 {
					// acceptslot committed this connection to an inbound
					// migration; its OK reply is on the wire, so splice the
					// stream onto the frame reader (see cluster.go). A failed
					// import has nobody left to tell: it is counted, its slot
					// is unowned again, and the source sees the connection
					// close before its ack.
					_ = s.serveImport(conn, dec, cs.importSlot)
				}
				return
			}
		}
		if err != nil {
			// ErrDesync and I/O errors alike: any error reply explaining
			// the teardown was already staged and flushed above.
			return
		}
	}
}

// cmdTag maps one request to the ops that answer it: refs[start:start+n]
// locate them in the connection's plan. sh is the shard of the request's
// first key, where its latency is recorded. A seq-tagged request also
// has a session verdict: grp > 0 names (one-based) its sessioned group
// in sh's leg, whose executor decides; grp == 0 means a cross-shard or
// wide mset's up-front check settled it as verdict/pay and the tag holds
// no ops. stamp marks a relaxed or fire ack, which carries the epoch.
type cmdTag struct {
	req   *proto.Request
	sh    *shard
	start int
	n     int
	stamp bool

	grp     int
	verdict sessVerdict
	pay     uint64
}

// opKinds maps a data command's keyspace and verb to the batch op that
// executes it, once per key; rmwKinds does for a relaxed hash-map
// read-modify-write.
var (
	opKinds = [2][proto.NumVerbs]opKind{
		proto.SpaceHash:    {proto.VerbRead: opGet, proto.VerbSet: opSet, proto.VerbIncr: opIncr, proto.VerbDelete: opDelete},
		proto.SpaceOrdered: {proto.VerbSet: opZSet, proto.VerbIncr: opZIncr, proto.VerbDelete: opZDelete},
	}
	rmwKinds = [proto.NumVerbs]opKind{proto.VerbIncr: opRelaxedIncr, proto.VerbDelete: opRelaxedDelete}
)

// appendOps translates one decoded request into batch pipeline ops of
// kind: one per key for reads and deletes, one per key/value pair for
// writes.
func appendOps(ops []batchOp, req *proto.Request, kind opKind) []batchOp {
	stride := req.Cmd.Spec().Stride
	for i := 0; i+stride <= len(req.KV); i += stride {
		op := batchOp{kind: kind, key: req.KV[i]}
		if stride == 2 {
			op.arg = req.KV[i+1]
		}
		ops = append(ops, op)
	}
	return ops
}

// serveBatch executes one decoded batch and stages every reply, in
// request order. Consecutive data commands compile into one commit plan
// (see plan.go) — the decoded burst becomes, per shard, one ordered
// list of commit groups, so a pipelined burst pays one submission and
// (the drain lock willing) one Atlas critical section per shard rather
// than one per command, seq-tagged commands included. Admin commands
// (and malformed requests) are sequence points: the pending plan
// executes first, because a crash or stats must observe every earlier
// command's effects. Returns true when the client asked to quit;
// requests after the quit are not executed (the old per-line handler
// stopped at quit the same way).
func (s *Server) serveBatch(cs *connState, enc *proto.Encoder, batch []proto.Request) (quit bool) {
	// On a cluster node the whole batch runs under the slot gate's read
	// lock, so an ownership check and the execution it admitted cannot
	// straddle a migration flip (which takes the write lock). Parking
	// commands (wait) and admin sequence points (migrate itself) release
	// the gate around their work.
	cl := s.clusterSt
	if cl != nil {
		cl.gate.RLock()
		defer cl.gate.RUnlock()
	}
	flushData := func() { s.flushPlan(cs, enc) }

	for i := range batch {
		req := &batch[i]
		sp := req.Cmd.Spec()
		switch sp.Plan {
		case proto.PlanJoin:
			if s.readOnly.Load() && sp.Mutates() {
				flushData()
				cs.stage(enc, proto.Reply{Kind: proto.KErrServer, Msg: readOnlyMsg})
				continue
			}
			if cl != nil {
				if rep, moved := cl.checkReq(req); moved {
					flushData()
					cs.stage(enc, rep)
					continue
				}
			}
			// A relaxed/fire hash-map write is buffered in the overlay and
			// acked with its epoch receipt: a blind one (set, mset, a fire
			// delete) joins the connection's run, a read-modify-write
			// joins the plan, read and buffered by its shard's executor.
			// Whatever is pending of the other kind lands first, so tiers
			// interleave in program order. A seq-tagged or ordered write
			// is durable on every tier (the durable ack).
			dur := req.Dur
			if req.HasSeq || sp.Space == proto.SpaceOrdered || !sp.Mutates() {
				dur = proto.DurDurable
			}
			blind := dur != proto.DurDurable && (sp.Verb == proto.VerbSet || sp.Verb == proto.VerbDelete && dur == proto.DurFire)
			if blind != cs.plan.run {
				flushData()
				cs.plan.run = blind
			}
			if req.HasSeq {
				s.planSessioned(cs, enc, req)
				continue
			}
			kind := opKinds[sp.Space][sp.Verb]
			if dur != proto.DurDurable && !blind {
				kind = rmwKinds[sp.Verb]
			}
			sh := s.shardOf(req.KV[0])
			if sp.Mutates() {
				cs.plan.legs[sh.idx].tiers[dur]++
			}
			tag := cmdTag{req: req, sh: sh, start: len(cs.refs), stamp: dur != proto.DurDurable}
			cs.ops = appendOps(cs.ops[:0], req, kind)
			for i := range cs.ops {
				if i > 0 {
					sh = s.shardOf(cs.ops[i].key)
				}
				cs.refs = append(cs.refs, cs.plan.add(sh, cs.ops[i], i == 0))
			}
			tag.n = len(cs.ops)
			cs.tags = append(cs.tags, tag)
		case proto.PlanRead:
			flushData()
			if cl != nil {
				// zget is keyed; range reads pass (they answer from local
				// slots, the routing tier merges across nodes).
				if rep, moved := cl.checkReq(req); moved {
					cs.stage(enc, rep)
					continue
				}
			}
			cs.stage(enc, s.serveOrdered(cs, req))
		case proto.PlanClose:
			flushData()
			cs.stage(enc, proto.Reply{Kind: sp.Reply})
			return true
		default:
			// A sequence point served by serveAdmin. The session handshake
			// (a rebinding must not race writes pipelined under the old id)
			// and acceptslot keep the slot gate; the admin commands and the
			// wait barrier (which must cover every write pipelined before
			// it) release it: migrate takes its write side for the
			// ownership flip, and a flip would stall behind a long crash
			// or a parked barrier.
			flushData()
			release := cl != nil && sp.Plan == proto.PlanReleased
			if release {
				cl.gate.RUnlock()
			}
			rep := s.serveAdmin(cs, req)
			if release {
				cl.gate.RLock()
			}
			cs.stage(enc, rep)
			if cs.importSlot >= 0 {
				// acceptslot succeeded: the connection leaves the request
				// protocol and handle splices the byte stream onto the
				// frame reader. Requests pipelined after it are not served
				// (the source sends none until it reads the OK).
				return true
			}
		}
	}
	flushData()
	return false
}

// stage encodes rep from the connection's scratch: handed to the adapter
// through its interface from a local, every reply would be one heap
// allocation.
func (cs *connState) stage(enc *proto.Encoder, rep proto.Reply) {
	cs.rep = rep
	enc.Stage(&cs.rep)
}

// flushPlan runs the connection's pending plan (or buffers its run),
// stages one reply per tagged command in request order — a relaxed ack
// stamped with the epoch read after the plan's last overlay insert, so
// no stamp is earlier than its entry's (see closeEpoch) — and empties
// the plan: what every sequence point (and the end of the batch) does
// first. A plan of pure reads tries the lock-free seqlock path; if a
// key fails to validate, or the plan holds a mutation, the whole plan
// commits through the shards in arrival order (read-your-writes inside
// a burst). Every tag observes the plan's end-to-end time: replies
// flush together, so the plan's completion IS each command's service
// time — observed once per (shard, command) with a count, and the
// mutations counted once per shard and tier, before any reply is staged.
func (s *Server) flushPlan(cs *connState, enc *proto.Encoder) {
	if len(cs.tags) == 0 {
		return
	}
	start := time.Now()
	p := &cs.plan
	optimistic := p.muts == 0 && len(cs.refs) > 0 && s.readOptimistic(cs)
	switch {
	case p.run:
		s.bufferRun(p)
	case !optimistic:
		s.runPlan(p)
	}
	epoch := s.curEpoch.Load()
	el := time.Since(start)
	for _, tg := range cs.tags {
		p.leg(tg.sh).cmds[tg.req.Cmd.Spec().Tel]++
	}
	for _, li := range p.used {
		tel := s.shards[li].tel
		for d, n := range p.legs[li].tiers {
			tierOps(tel.Server, proto.Durability(d)).Add(n)
		}
		for cmd, n := range p.legs[li].cmds {
			tel.CmdLatency.ObserveProto(cs.ptel, telemetry.Command(cmd), el, n)
			if optimistic {
				tel.ReadLatency.ObserveN(el, n)
			}
		}
	}
	for ti := range cs.tags {
		rep := s.buildDataReply(cs, &cs.tags[ti])
		if cs.tags[ti].stamp {
			rep.Epoch = epoch
		}
		cs.stage(enc, rep)
	}
	cs.tags, cs.refs = cs.tags[:0], cs.refs[:0]
	p.reset()
}

// buildDataReply shapes one command's reply from its resolved ops (or,
// for a seq-tagged command settled as a duplicate or too old, from that
// verdict). Item slices alias the connection's scratch arena, valid
// until the next buildDataReply call — the caller stages (encodes) each
// reply before building the next.
func (s *Server) buildDataReply(cs *connState, tg *cmdTag) proto.Reply {
	if tg.req.HasSeq {
		if rep, settled := s.sessSettled(cs, tg); settled {
			return rep
		}
	}
	refs := cs.refs[tg.start : tg.start+tg.n]
	for _, r := range refs {
		// The first failed op answers: one error line, however many keys.
		if err := cs.plan.op(r).err; err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: err.Error()}
		}
	}
	op := cs.plan.op(refs[0])
	switch kind := tg.req.Cmd.Spec().Reply; kind {
	case proto.KValue:
		if !op.ok {
			return proto.Reply{Kind: proto.KNotFound}
		}
		return proto.Reply{Kind: kind, Key: op.key, Val: op.val}
	case proto.KInt:
		return proto.Reply{Kind: kind, Val: op.val}
	case proto.KDelete, proto.KMGet:
		items := cs.items[:0]
		for _, r := range refs {
			op := cs.plan.op(r)
			items = append(items, proto.Item{Key: op.key, Val: op.val, Found: op.ok})
		}
		cs.items = items
		return proto.Reply{Kind: kind, Items: items}
	case proto.KStoredN: // a seq-tagged mset's refs cover its witness shard only
		return proto.Reply{Kind: kind, N: len(tg.req.KV) / 2}
	default:
		return proto.Reply{Kind: kind}
	}
}

// serveAdmin executes one non-data request and returns its reply.
func (s *Server) serveAdmin(cs *connState, req *proto.Request) proto.Reply {
	switch req.Cmd {
	case proto.CmdBad:
		return proto.Reply{Kind: req.Bad, Msg: req.BadMsg}

	case proto.CmdWait:
		return s.serveWait(cs, req)

	case proto.CmdSession:
		return s.serveSession(cs, req)

	case proto.CmdAcceptSlot:
		rep, ok := s.beginImport(req)
		if ok {
			cs.importSlot = int(req.KV[0])
		}
		return rep

	case proto.CmdStats:
		return req.Stats.Reply(s.statsSources()...)

	case proto.CmdCrash:
		// Crash takes shard write locks itself; the pending data group
		// was flushed before we got here.
		if s.readOnly.Load() {
			return proto.Reply{Kind: proto.KErrServer, Msg: readOnlyMsg}
		}
		// The trailing EPOCH on the recovery reply is the crash receipt's
		// redemption value: relaxed acks stamped <= this frontier survived;
		// later ones may be gone (they are the bounded loss). The frontier
		// must be captured BEFORE the crash sheds the overlays — the epoch
		// clock keeps ticking through recovery, and once the volatile
		// entries are discarded every subsequent close advances the
		// frontier over writes it never persisted. Capturing early only
		// ever under-reports (a close completing in between made more
		// stamps durable), which is the safe direction for a receipt.
		frontier := s.perEpoch.Load()
		if req.HasShard {
			if req.Shard < 0 || req.Shard >= len(s.shards) {
				return proto.Reply{Kind: proto.KErrClient,
					Msg: fmt.Sprintf("shard index out of range [0,%d)", len(s.shards))}
			}
			if err := s.shards[req.Shard].crashAndRecover(); err != nil {
				return proto.Reply{Kind: proto.KErrServer, Msg: fmt.Sprintf("recovery failed: %v", err)}
			}
			return proto.Reply{Kind: proto.KRaw,
				Msg: fmt.Sprintf("OK RECOVERED SHARD %d EPOCH %d", req.Shard, frontier)}
		}
		if err := s.crashAll(); err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: fmt.Sprintf("recovery failed: %v", err)}
		}
		return proto.Reply{Kind: proto.KRaw,
			Msg: fmt.Sprintf("OK RECOVERED EPOCH %d", frontier)}

	case proto.CmdPromote:
		if s.replFollower == nil {
			return proto.Reply{Kind: proto.KErrClient, Msg: "not a replica"}
		}
		s.replFollower.Stop()
		s.readOnly.Store(false)
		return proto.Reply{Kind: proto.KRaw, Msg: "OK PROMOTED"}

	case proto.CmdCluster:
		return s.serveClusterInfo()

	case proto.CmdMigrate:
		if s.readOnly.Load() {
			return proto.Reply{Kind: proto.KErrServer, Msg: readOnlyMsg}
		}
		return s.serveMigrate(req)

	case proto.CmdInfo:
		return proto.Reply{Kind: proto.KRaw, Msg: s.infoText()}

	case proto.CmdPing, proto.CmdCommand: // the reply kind is the whole answer
		return proto.Reply{Kind: req.Cmd.Spec().Reply}

	default:
		return proto.Reply{Kind: proto.KErrProto, Msg: "unknown command"}
	}
}

// infoText renders the RESP INFO reply: a small redis-shaped section
// so redis-cli's `info` and monitoring probes get something useful.
func (s *Server) infoText() string {
	role := s.replRole()
	if role == "" {
		role = "master"
	}
	var items uint64
	for _, sh := range s.shards {
		items += sh.refreshGauges()
	}
	return fmt.Sprintf(
		"# Server\r\nserver:tspcached\r\nmode:%v\r\nshards:%d\r\n\r\n# Keyspace\r\nitems:%d\r\n\r\n# Replication\r\nrole:%s\r\n",
		s.cfg.mode, len(s.shards), items, role)
}
