package cacheserver

import (
	"errors"
	"fmt"
	"net"
	"time"

	"tsp/internal/proto"
	"tsp/internal/telemetry"
)

// The pipelined serving path. A connection's bytes flow through a
// proto.Decoder that surfaces every buffered request as ONE batch, the
// batch's data commands coalesce into ONE combined op group fed to the
// shard pipeline as a single enqueue, and the replies stage in a
// proto.Encoder that answers the whole batch with ONE write. The
// protocol itself — framing, spellings, error texts — lives entirely
// behind the proto.Adapter seam, so this file never touches wire
// bytes.

// readOnlyMsg is the mutation-rejection text a replicating follower
// answers until promoted.
const readOnlyMsg = "read-only replica (promote to enable writes)"

// protoLabel maps a wire adapter to its telemetry protocol label.
func protoLabel(a proto.Adapter) telemetry.Protocol {
	if a.Name() == "resp" {
		return telemetry.ProtoRESP
	}
	return telemetry.ProtoNative
}

// handle runs one connection's request loop: decode a batch, serve it,
// flush one write. The protocol is fixed per listener config or
// sniffed from the first byte — RESP framing always leads with '*',
// which no native command starts with.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	dec := proto.NewDecoder(conn, proto.Native{}, s.cfg.maxRequestBytes)
	var ad proto.Adapter
	switch s.cfg.proto {
	case protoNative:
		ad = proto.Native{}
	case protoRESP:
		ad = proto.RESP{}
	default: // protoAuto
		b, err := dec.Peek()
		if err != nil {
			return
		}
		if b == '*' {
			ad = proto.RESP{}
		} else {
			ad = proto.Native{}
		}
	}
	dec.Use(ad)
	enc := proto.NewEncoder(conn, ad, s.cfg.writeBuf)
	defer enc.Flush()

	cs := s.newConnState()
	cs.ptel = protoLabel(ad)

	for {
		batch, err := dec.Next()
		if len(batch) > 0 {
			s.decodedBatch[cs.ptel].ObserveValue(uint64(len(batch)))
			quit := s.serveBatch(cs, enc, batch)
			if ferr := enc.Flush(); ferr != nil || quit {
				if ferr == nil && cs.importSlot >= 0 {
					// acceptslot committed this connection to an inbound
					// migration; its OK reply is on the wire, so splice the
					// stream onto the frame reader (see cluster.go).
					s.serveImport(conn, dec, cs.importSlot)
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

// cmdTag maps one request's slice of the combined op group back to the
// reply that answers it: ops[start:start+n] belong to req.
type cmdTag struct {
	cmd   telemetry.Command
	req   *proto.Request
	start int
	n     int
}

// cmdTelemetry maps a data command to its latency-histogram key.
func cmdTelemetry(c proto.Cmd) telemetry.Command {
	switch c {
	case proto.CmdGet:
		return telemetry.CmdGet
	case proto.CmdSet:
		return telemetry.CmdSet
	case proto.CmdIncr:
		return telemetry.CmdIncr
	case proto.CmdDelete:
		return telemetry.CmdDelete
	case proto.CmdMGet:
		return telemetry.CmdMGet
	case proto.CmdZAdd:
		return telemetry.CmdZAdd
	case proto.CmdZGet:
		return telemetry.CmdZGet
	case proto.CmdZIncr:
		return telemetry.CmdZIncr
	case proto.CmdZDel:
		return telemetry.CmdZDel
	case proto.CmdZRange:
		return telemetry.CmdZRange
	case proto.CmdZCount:
		return telemetry.CmdZCount
	default:
		return telemetry.CmdMSet
	}
}

// mutates reports whether a data command writes.
func mutates(c proto.Cmd) bool {
	switch c {
	case proto.CmdGet, proto.CmdMGet, proto.CmdZGet, proto.CmdZRange, proto.CmdZCount:
		return false
	}
	return true
}

// appendOps translates one decoded request into batch pipeline ops.
func appendOps(ops []batchOp, req *proto.Request) []batchOp {
	switch req.Cmd {
	case proto.CmdGet:
		return append(ops, batchOp{kind: opGet, key: req.KV[0]})
	case proto.CmdSet:
		return append(ops, batchOp{kind: opSet, key: req.KV[0], arg: req.KV[1]})
	case proto.CmdIncr:
		return append(ops, batchOp{kind: opIncr, key: req.KV[0], arg: req.KV[1]})
	case proto.CmdDelete:
		for _, k := range req.KV {
			ops = append(ops, batchOp{kind: opDelete, key: k})
		}
		return ops
	case proto.CmdMGet:
		for _, k := range req.KV {
			ops = append(ops, batchOp{kind: opGet, key: k})
		}
		return ops
	case proto.CmdZAdd:
		return append(ops, batchOp{kind: opZSet, key: req.KV[0], arg: req.KV[1]})
	case proto.CmdZIncr:
		return append(ops, batchOp{kind: opZIncr, key: req.KV[0], arg: req.KV[1]})
	case proto.CmdZDel:
		return append(ops, batchOp{kind: opZDelete, key: req.KV[0]})
	default: // CmdMSet
		for i := 0; i+1 < len(req.KV); i += 2 {
			ops = append(ops, batchOp{kind: opSet, key: req.KV[i], arg: req.KV[i+1]})
		}
		return ops
	}
}

// serveBatch executes one decoded batch and stages every reply, in
// request order. Consecutive data commands coalesce into one combined
// op group — the decoded group becomes the batch pipeline's group, so
// a pipelined burst pays one enqueue and one Atlas critical section
// per shard rather than one per command. Admin commands (and malformed
// requests) are sequence points: the pending group executes first,
// because a crash or stats must observe every earlier command's
// effects. Returns true when the client asked to quit; requests after
// the quit are not executed (the old per-line handler stopped at quit
// the same way).
func (s *Server) serveBatch(cs *connState, enc *proto.Encoder, batch []proto.Request) (quit bool) {
	ops := cs.ops[:0]
	tags := cs.tags[:0]
	defer func() { cs.ops, cs.tags = ops, tags }()

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

	flushData := func() {
		if len(tags) == 0 {
			return
		}
		s.runDataGroup(cs, ops, tags)
		for ti := range tags {
			rep := s.buildDataReply(cs, &tags[ti], ops)
			enc.Stage(&rep)
		}
		ops, tags = ops[:0], tags[:0]
	}

	for i := range batch {
		req := &batch[i]
		switch req.Cmd {
		case proto.CmdGet, proto.CmdSet, proto.CmdIncr, proto.CmdDelete,
			proto.CmdMGet, proto.CmdMSet,
			proto.CmdZAdd, proto.CmdZIncr, proto.CmdZDel:
			if s.readOnly.Load() && mutates(req.Cmd) {
				flushData()
				rep := proto.Reply{Kind: proto.KErrServer, Msg: readOnlyMsg}
				enc.Stage(&rep)
				continue
			}
			if cl != nil {
				if rep, moved := cl.checkReq(req); moved {
					flushData()
					enc.Stage(&rep)
					continue
				}
			}
			if req.HasSeq {
				// A seq-tagged request is a detectable operation: it must
				// consult (and maybe replay from) the session window, so it
				// never coalesces into the combined group. Sequence point —
				// earlier pipelined writes land first, in program order.
				flushData()
				rep := s.serveSessioned(cs, req)
				enc.Stage(&rep)
				continue
			}
			if mutates(req.Cmd) {
				if req.Dur != proto.DurDurable && s.epochEnabled() {
					// Relaxed/fire tier: a sequence point — the pending
					// durable group lands first so tiers interleave in
					// program order on this connection — then the write is
					// buffered and acked with its epoch receipt.
					flushData()
					rep := s.serveRelaxed(cs, req)
					enc.Stage(&rep)
					continue
				}
				s.shardOf(req.KV[0]).tel.Server.DurableOps.Inc()
			}
			start := len(ops)
			ops = appendOps(ops, req)
			tags = append(tags, cmdTag{cmd: cmdTelemetry(req.Cmd), req: req, start: start, n: len(ops) - start})
		case proto.CmdZGet, proto.CmdZRange, proto.CmdZCount:
			// Ordered reads run lock-free off the skip list — no Atlas
			// section, no seqlock — but the pending write group must land
			// first so a pipelined zadd→zrange sees its own write.
			flushData()
			if cl != nil {
				// zget is keyed; range reads pass (they answer from local
				// slots, the routing tier merges across nodes).
				if rep, moved := cl.checkReq(req); moved {
					enc.Stage(&rep)
					continue
				}
			}
			rep := s.serveOrdered(cs, req)
			enc.Stage(&rep)
		case proto.CmdSession:
			// The handshake binds this connection to a session id; it is a
			// sequence point so a rebinding cannot race writes pipelined
			// under the old id.
			flushData()
			rep := s.serveSession(cs, req)
			enc.Stage(&rep)
		case proto.CmdWait:
			// The barrier must cover every write this connection
			// pipelined before it, so the pending group flushes first.
			// A parked barrier must not hold the slot gate shared — a
			// migration flip would wait behind it.
			flushData()
			if cl != nil {
				cl.gate.RUnlock()
			}
			rep := s.serveWait(cs, req)
			if cl != nil {
				cl.gate.RLock()
			}
			enc.Stage(&rep)
		case proto.CmdQuit:
			flushData()
			rep := proto.Reply{Kind: proto.KQuit}
			enc.Stage(&rep)
			return true
		case proto.CmdAcceptSlot:
			// Inbound migration handshake: on success the connection
			// leaves the request protocol — serveBatch returns and handle
			// splices the byte stream onto the frame reader. Requests
			// pipelined after acceptslot are not served (the source sends
			// none until it reads the OK).
			flushData()
			rep, ok := s.beginImport(req)
			enc.Stage(&rep)
			if ok {
				cs.importSlot = int(req.KV[0])
				return true
			}
		default:
			// Admin sequence points run without the slot gate: migrate
			// takes its write side for the ownership flip, and crash can
			// quiesce shards for long enough that holding the gate would
			// stall a concurrent flip.
			flushData()
			if cl != nil {
				cl.gate.RUnlock()
			}
			rep := s.serveAdmin(req)
			if cl != nil {
				cl.gate.RLock()
			}
			enc.Stage(&rep)
		}
	}
	flushData()
	return false
}

// runDataGroup executes one coalesced op group and attributes latency
// per command tag. A group of pure reads tries the lock-free seqlock
// path first (key by key; the contended minority re-runs as a commit
// group); any mutation in the group sends the whole group through
// execGroup in arrival order, which is what preserves read-your-writes
// inside a pipelined burst. Every tag observes the group's end-to-end
// time: replies flush together, so the group completion IS each
// command's service time.
func (s *Server) runDataGroup(cs *connState, ops []batchOp, tags []cmdTag) {
	start := time.Now()
	allGets := true
	for i := range ops {
		if ops[i].kind != opGet {
			allGets = false
			break
		}
	}
	if s.cfg.optimisticReads && allGets {
		pending := s.readOptimistic(ops)
		if pending == nil {
			el := time.Since(start)
			for ti := range tags {
				sh := s.shardOf(ops[tags[ti].start].key)
				sh.tel.ReadLatency.Observe(el)
				sh.tel.CmdLatency.ObserveProto(cs.ptel, tags[ti].cmd, el)
			}
			return
		}
		sub := make([]batchOp, len(pending))
		for j, i := range pending {
			sub[j] = ops[i]
		}
		s.execGroup(cs, sub)
		for j, i := range pending {
			ops[i] = sub[j]
		}
	} else {
		s.execGroup(cs, ops)
	}
	el := time.Since(start)
	for ti := range tags {
		sh := s.shardOf(ops[tags[ti].start].key)
		sh.tel.CmdLatency.ObserveProto(cs.ptel, tags[ti].cmd, el)
	}
}

// buildDataReply shapes one command's reply from its resolved op span.
// Item slices alias the connection's scratch arena, valid until the
// next buildDataReply call — the caller stages (encodes) each reply
// before building the next.
func (s *Server) buildDataReply(cs *connState, tg *cmdTag, ops []batchOp) proto.Reply {
	span := ops[tg.start : tg.start+tg.n]
	switch tg.req.Cmd {
	case proto.CmdGet:
		op := &span[0]
		switch {
		case op.err != nil:
			return proto.Reply{Kind: proto.KErrServer, Msg: op.err.Error()}
		case !op.ok:
			return proto.Reply{Kind: proto.KNotFound}
		}
		return proto.Reply{Kind: proto.KValue, Key: op.key, Val: op.val}
	case proto.CmdSet:
		if err := span[0].err; err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: err.Error()}
		}
		return proto.Reply{Kind: proto.KStored}
	case proto.CmdIncr:
		op := &span[0]
		if op.err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: op.err.Error()}
		}
		return proto.Reply{Kind: proto.KInt, Val: op.val}
	case proto.CmdDelete:
		if err := spanErr(span); err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: err.Error()}
		}
		items := cs.items[:0]
		for i := range span {
			items = append(items, proto.Item{Key: span[i].key, Found: span[i].ok})
		}
		cs.items = items
		return proto.Reply{Kind: proto.KDelete, Items: items}
	case proto.CmdZAdd:
		if err := span[0].err; err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: err.Error()}
		}
		return proto.Reply{Kind: proto.KStored}
	case proto.CmdZIncr:
		op := &span[0]
		if op.err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: op.err.Error()}
		}
		return proto.Reply{Kind: proto.KInt, Val: op.val}
	case proto.CmdZDel:
		op := &span[0]
		if op.err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: op.err.Error()}
		}
		items := append(cs.items[:0], proto.Item{Key: op.key, Found: op.ok})
		cs.items = items
		return proto.Reply{Kind: proto.KDelete, Items: items}
	case proto.CmdMGet:
		if err := spanErr(span); err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: err.Error()}
		}
		items := cs.items[:0]
		for i := range span {
			items = append(items, proto.Item{Key: span[i].key, Val: span[i].val, Found: span[i].ok})
		}
		cs.items = items
		return proto.Reply{Kind: proto.KMGet, Items: items}
	default: // CmdMSet
		if err := spanErr(span); err != nil {
			return proto.Reply{Kind: proto.KErrServer, Msg: err.Error()}
		}
		return proto.Reply{Kind: proto.KStoredN, N: tg.n}
	}
}

// spanErr joins a span's per-op errors (nil when every op succeeded).
func spanErr(span []batchOp) error {
	var errs []error
	for i := range span {
		if span[i].err != nil {
			errs = append(errs, span[i].err)
		}
	}
	return errors.Join(errs...)
}

// serveAdmin executes one non-data request and returns its reply.
func (s *Server) serveAdmin(req *proto.Request) proto.Reply {
	switch req.Cmd {
	case proto.CmdBad:
		return proto.Reply{Kind: req.Bad, Msg: req.BadMsg}

	case proto.CmdStats:
		switch req.Stats {
		case proto.StatsShards:
			return proto.Reply{Kind: proto.KRaw, Msg: s.statsShards()}
		case proto.StatsReset:
			return proto.Reply{Kind: proto.KRaw, Msg: s.statsReset()}
		default:
			return proto.Reply{Kind: proto.KRaw, Msg: s.statsAggregate()}
		}

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

	case proto.CmdPing:
		return proto.Reply{Kind: proto.KPong}

	case proto.CmdInfo:
		return proto.Reply{Kind: proto.KRaw, Msg: s.infoText()}

	case proto.CmdCommand:
		return proto.Reply{Kind: proto.KEmpty}

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
	v := s.aggregateViews()
	return fmt.Sprintf(
		"# Server\r\nserver:tspcached\r\nmode:%v\r\nshards:%d\r\n\r\n# Keyspace\r\nitems:%d\r\n\r\n# Replication\r\nrole:%s\r\n",
		s.cfg.mode, len(s.shards), v.items, role)
}
