package cacheserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsp/internal/cluster"
	"tsp/internal/proto"
	"tsp/internal/repl"
	"tsp/internal/telemetry"
)

// Cluster-node state: slot ownership, the MOVED gate, and live slot
// migration (see internal/cluster for the ring/slot scheme and
// DESIGN.md §13 for the soundness argument).
//
// A cluster node owns a subset of the hash slots. Every keyed request
// is checked against the ownership table under a read lock (the slot
// gate); a request touching an un-owned slot is answered with a MOVED
// redirect instead of being executed. Migration moves one slot to
// another node as "filtered snapshot + filtered log suffix" over the
// follower wire format: the source streams its current copy of the
// slot while still serving writes to it (each such write commits
// locally AND rides the suffix — the dual-write window), then flips
// ownership under the gate's write lock. The write lock is what makes
// the flip sound: holding it excludes every in-flight gated request,
// so the log position captured inside it bounds every write the source
// ever acknowledged for the slot, and streaming through that position
// hands the target a superset of everything acked. Relaxed-tier writes
// are force-flushed inside the same critical section so their overlay
// entries reach the log before the bound is read — migration is not a
// crash, so it is not licensed to lose them.

// Slot ownership states (clusterState.state entries).
const (
	// slotUnowned: not this node's slot; requests get MOVED with the
	// last known owner (or "?" when none was ever learned).
	slotUnowned int32 = iota
	// slotOwned: served normally.
	slotOwned
	// slotImporting: a migration is streaming in; requests get MOVED "?"
	// (retry shortly) until the transfer commits.
	slotImporting
	// slotFrozen: an outbound migration is draining its suffix; requests
	// get MOVED "?" until the handoff commits (then MOVED <target>) or
	// rolls back (then served again).
	slotFrozen
)

// clusterState is a cluster node's slot table and migration machinery.
type clusterState struct {
	// epoch counts ownership flips on this node (starts at 1), the
	// node-local analogue of the ring epoch.
	epoch atomic.Uint64

	// gate is the slot gate: every serveBatch holds it shared around
	// ownership checks and execution; an ownership flip takes it
	// exclusively, which is the migration flip's write barrier.
	gate sync.RWMutex

	// state holds each slot's ownership state (slot* constants).
	state [cluster.NumSlots]atomic.Int32

	// fwdMu guards fwd, the last known owner of each slot this node
	// does not own — the address MOVED redirects carry.
	fwdMu sync.Mutex
	fwd   [cluster.NumSlots]string

	// migMu serializes outbound migrations (one at a time per node).
	migMu sync.Mutex

	tel *telemetry.ClusterStats
}

// startCluster initializes cluster mode when WithClusterSlots was
// given. Called by New after replication starts: cluster nodes need a
// replication log even without followers — the log is what a migration
// streams its suffix from, and every mutation committing under its
// shard's drain lock is what makes log order match commit order.
func (s *Server) startCluster() error {
	if s.cfg.clusterSlots == "" {
		return nil
	}
	slots, err := cluster.ParseSlots(s.cfg.clusterSlots)
	if err != nil {
		return fmt.Errorf("cacheserver: %w", err)
	}
	st := &clusterState{tel: &telemetry.ClusterStats{}}
	st.epoch.Store(1)
	for sl := range slots {
		st.state[sl].Store(slotOwned)
	}
	s.clusterSt = st
	if s.replLog == nil {
		s.replLog = repl.NewLog(s.cfg.replWindow)
		for _, sh := range s.shards {
			sh.replLog = s.replLog
		}
	}
	return nil
}

// checkReq checks every key a request addresses against the slot
// table. It returns the MOVED reply (and true) for the first key in an
// un-owned slot; zrange/zcount carry range bounds, not keys, and pass
// unchecked (they answer from local slots only; the routing tier
// merges across nodes).
func (st *clusterState) checkReq(req *proto.Request) (proto.Reply, bool) {
	if stride := req.Cmd.Spec().Stride; stride > 0 {
		for i := 0; i < len(req.KV); i += stride {
			if rep, moved := st.checkKey(req.KV[i]); moved {
				return rep, true
			}
		}
	}
	return proto.Reply{}, false
}

// checkKey resolves one key's slot against the ownership table.
func (st *clusterState) checkKey(key uint64) (proto.Reply, bool) {
	slot := cluster.SlotOf(key)
	switch st.state[slot].Load() {
	case slotOwned:
		return proto.Reply{}, false
	case slotImporting, slotFrozen:
		st.tel.MovedReplies.Inc()
		return proto.Reply{Kind: proto.KMoved, N: slot, Msg: "?"}, true
	default:
		st.fwdMu.Lock()
		addr := st.fwd[slot]
		st.fwdMu.Unlock()
		if addr == "" {
			addr = "?"
		}
		st.tel.MovedReplies.Inc()
		return proto.Reply{Kind: proto.KMoved, N: slot, Msg: addr}, true
	}
}

// ownedSlots returns the sorted slots currently in state want.
func (st *clusterState) slotsIn(want int32) []int {
	var out []int
	for sl := range st.state {
		if st.state[sl].Load() == want {
			out = append(out, sl)
		}
	}
	return out
}

// serveClusterInfo renders the node's slot table: its epoch, the slots
// it owns (as "self"), transfer states, and the last known owner of
// every slot it has handed off.
func (s *Server) serveClusterInfo() proto.Reply {
	st := s.clusterSt
	if st == nil {
		return proto.Reply{Kind: proto.KErrClient, Msg: notClusterMsg}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CLUSTER epoch %d\r\n", st.epoch.Load())
	if spec := cluster.FormatSlots(st.slotsIn(slotOwned)); spec != "" {
		fmt.Fprintf(&b, "SLOTS %s self\r\n", spec)
	}
	if spec := cluster.FormatSlots(st.slotsIn(slotImporting)); spec != "" {
		fmt.Fprintf(&b, "IMPORTING %s\r\n", spec)
	}
	if spec := cluster.FormatSlots(st.slotsIn(slotFrozen)); spec != "" {
		fmt.Fprintf(&b, "FROZEN %s\r\n", spec)
	}
	st.fwdMu.Lock()
	for sl := 0; sl < cluster.NumSlots; sl++ {
		if st.fwd[sl] != "" && st.state[sl].Load() == slotUnowned {
			fmt.Fprintf(&b, "MOVED %d %s\r\n", sl, st.fwd[sl])
		}
	}
	st.fwdMu.Unlock()
	b.WriteString("END")
	return proto.Reply{Kind: proto.KRaw, Msg: b.String()}
}

// notClusterMsg answers cluster commands on a non-cluster server.
const notClusterMsg = "not a cluster node (start with cluster slots configured)"

// migrateLagBound is how close the pre-flip catch-up must get to the
// log tip before the flip is taken; the remainder streams inside the
// frozen window.
const migrateLagBound = 64

// serveMigrate executes `migrate <slot> <addr>`: stream the slot to
// addr, then hand ownership off. Runs as a serveBatch sequence point
// with the slot gate NOT held (it takes the gate's write lock itself
// for the flip). Replies "OK MIGRATED <slot> <addr> pairs <n> groups
// <m>" on success; on any failure before the handoff commits, the slot
// rolls back to owned and the error is reported — no acked write has
// left the source's responsibility until the target acknowledged all
// of them.
func (s *Server) serveMigrate(req *proto.Request) proto.Reply {
	st := s.clusterSt
	if st == nil {
		return proto.Reply{Kind: proto.KErrClient, Msg: notClusterMsg}
	}
	slot := int(req.KV[0])
	if slot < 0 || slot >= cluster.NumSlots {
		return proto.Reply{Kind: proto.KErrClient,
			Msg: fmt.Sprintf("slot %d outside 0-%d", slot, cluster.NumSlots-1)}
	}
	target := req.Addr
	st.migMu.Lock()
	defer st.migMu.Unlock()
	if st.state[slot].Load() != slotOwned {
		return proto.Reply{Kind: proto.KErrClient,
			Msg: fmt.Sprintf("slot %d not owned here", slot)}
	}
	pairs, groups, err := s.migrateSlot(st, slot, target)
	if err != nil {
		st.tel.MigrationAborts.Inc()
		return proto.Reply{Kind: proto.KErrServer, Msg: "migrate: " + err.Error()}
	}
	st.tel.MigrationsOut.Inc()
	st.tel.MigratedPairs.Add(uint64(pairs))
	st.tel.MigratedGroups.Add(uint64(groups))
	return proto.Reply{Kind: proto.KRaw,
		Msg: fmt.Sprintf("OK MIGRATED %d %s pairs %d groups %d", slot, target, pairs, groups)}
}

// migrateSlot runs the transfer. Caller holds migMu and has verified
// the slot is owned.
func (s *Server) migrateSlot(st *clusterState, slot int, target string) (npairs, ngroups int, err error) {
	conn, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	// Handshake: one native command, one OK line. Nothing else is
	// written until the OK arrives, so the target's request decoder has
	// no stream bytes buffered when it splices to frame reading.
	if _, err := fmt.Fprintf(conn, "acceptslot %d\r\n", slot); err != nil {
		return 0, 0, err
	}
	br := bufio.NewReaderSize(conn, 4<<10)
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("awaiting accept: %w", err)
	}
	if !strings.HasPrefix(line, "OK ACCEPT") {
		return 0, 0, fmt.Errorf("target refused: %s", strings.TrimSpace(line))
	}

	// The follower's state transfer filtered to the slot: its pairs, the
	// session records its keys witnessed, and each shard's eviction
	// floor — a retry refused as too old on the source must stay refused
	// on the target.
	w := repl.NewWriter(conn)
	keep := inSlot(slot)
	gen, seq := s.replLog.Position()
	if err := w.Begin(gen, seq); err != nil {
		return 0, 0, err
	}
	err = s.streamState(keep, func(ops []repl.Op, marks []repl.SessRec, floor uint64) error {
		npairs += len(ops)
		return w.State(ops, marks, floor)
	})
	if err != nil {
		return npairs, 0, err
	}
	send := func(groups []repl.Group) error {
		for _, g := range groups {
			if err := w.Group(g); err != nil {
				return err
			}
			ngroups++
		}
		return nil
	}
	// Pre-flip catch-up: stream the log suffix the copy window
	// accumulated, without blocking writers, until a round finds the gap
	// to the tip small. Bounded rounds — under a write storm the frozen
	// window absorbs whatever remains.
	for round := 0; round < 8; round++ {
		groups, tip, err := s.suffix(keep, gen, seq)
		if err == nil {
			err = send(groups)
		}
		if err != nil {
			return npairs, ngroups, err
		}
		lag := tip - seq
		seq = tip
		if lag <= migrateLagBound {
			break
		}
	}

	// The flip. Under the gate's write lock no request is between its
	// ownership check and its commit, so the log tip captured here
	// bounds every write ever acknowledged for the slot. Relaxed
	// overlay entries are force-flushed first — inside the lock no new
	// ones can appear — so the bound covers the relaxed tier too. The
	// slot leaves the lock frozen (MOVED "?"), not handed off: until
	// the target acknowledges the complete stream, the source can still
	// roll back to owned without having lost anything.
	st.gate.Lock()
	var flushBuf []batchOp
	for _, sh := range s.shards {
		sh.flushOverlay(s, &flushBuf)
	}
	groups, _, err := s.suffix(keep, gen, seq)
	if err != nil {
		st.gate.Unlock()
		return npairs, ngroups, err
	}
	st.state[slot].Store(slotFrozen)
	st.gate.Unlock()

	err = send(groups)
	if err == nil {
		err = w.End()
	}
	if err == nil {
		err = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	}
	if err == nil {
		var ack repl.Msg
		if ack, err = repl.NewReader(br).Next(); err == nil && ack.Frame != repl.FrameAck {
			err = fmt.Errorf("frame type %d", ack.Frame)
		}
		if err != nil {
			err = fmt.Errorf("awaiting ack: %w", err)
		}
	}
	if err != nil {
		// Roll back: nothing has left the source's responsibility.
		st.state[slot].Store(slotOwned)
		return npairs, ngroups, err
	}
	// Commit: the target applied and acknowledged everything. Publish
	// the forward address first so no request can observe "unowned, no
	// forward" and answer "?" when the owner is known.
	st.fwdMu.Lock()
	st.fwd[slot] = target
	st.fwdMu.Unlock()
	st.state[slot].Store(slotUnowned)
	st.epoch.Add(1)
	return npairs, ngroups, nil
}

// inSlot is the key filter a migration applies to the state transfer,
// the log suffix, and the target's Wipe.
func inSlot(slot int) func(uint64) bool {
	return func(k uint64) bool { return cluster.SlotOf(k) == slot }
}

// suffix returns the log's tip and the groups after from through it,
// restricted to the ops and marks whose keys keep admits; groups left
// empty are dropped, and the kept ones copy their slices — the log ring
// owns the originals. It fails if the log is no longer on generation
// gen (a crash during the migration) or has evicted a group it needs.
func (s *Server) suffix(keep func(uint64) bool, gen, from uint64) (groups []repl.Group, tip uint64, err error) {
	g, tip := s.replLog.Position()
	if g != gen {
		return nil, 0, fmt.Errorf("log generation changed (crash during migration)")
	}
	for q := from + 1; q <= tip; q++ {
		lg, ok := s.replLog.Get(gen, q)
		if !ok {
			return nil, 0, fmt.Errorf("migration fell behind the log window")
		}
		out := repl.Group{Seq: lg.Seq, Epoch: lg.Epoch}
		for _, op := range lg.Ops {
			if keep(op.Key) {
				out.Ops = append(out.Ops, op)
			}
		}
		for _, m := range lg.Marks {
			if keep(m.Key) {
				out.Marks = append(out.Marks, m)
			}
		}
		if len(out.Ops) > 0 || len(out.Marks) > 0 {
			groups = append(groups, out)
		}
	}
	return groups, tip, nil
}

// beginImport validates and opens an inbound migration for
// `acceptslot <slot>`: the slot flips to importing (requests answer
// MOVED "?" until the transfer commits). Only an unowned slot can be
// accepted — an abort deletes the partial copy, which must never be
// able to destroy a slot this node legitimately serves.
func (s *Server) beginImport(req *proto.Request) (proto.Reply, bool) {
	st := s.clusterSt
	if st == nil {
		return proto.Reply{Kind: proto.KErrClient, Msg: notClusterMsg}, false
	}
	slot := int(req.KV[0])
	if slot < 0 || slot >= cluster.NumSlots {
		return proto.Reply{Kind: proto.KErrClient,
			Msg: fmt.Sprintf("slot %d outside 0-%d", slot, cluster.NumSlots-1)}, false
	}
	if !st.state[slot].CompareAndSwap(slotUnowned, slotImporting) {
		return proto.Reply{Kind: proto.KErrClient,
			Msg: fmt.Sprintf("slot %d not accepting a transfer here", slot)}, false
	}
	return proto.Reply{Kind: proto.KRaw, Msg: fmt.Sprintf("OK ACCEPT %d", slot)}, true
}

// serveImport runs the receiving side of a migration after the OK
// ACCEPT reply was flushed: the connection is spliced from the request
// protocol to the replication stream and read exactly as a follower
// reads a state transfer, filtered to the slot — Begin wipes the
// slot's keys (whatever an earlier failed import left goes first),
// State and Group frames apply through the server's own write path (the
// same commit groups, Atlas critical sections, and telemetry as client
// traffic). Ownership commits at FrameSnapshotEnd; any earlier failure
// aborts — the partial copy is wiped the same way and the slot reverts
// to unowned even if the wipe fails, whose error is returned with the
// stream's.
func (s *Server) serveImport(conn net.Conn, dec *proto.Decoder, slot int) error {
	st := s.clusterSt
	ap := &replApplier{s: s, cs: s.newConnState(), keep: inSlot(slot)}
	rd := repl.NewReader(io.MultiReader(bytes.NewReader(dec.Leftover()), conn))
	for {
		m, err := rd.Next()
		if err == nil {
			switch m.Frame {
			case repl.FrameSnapshotBegin:
				// The position is informational here: the source's log
				// positions mean nothing to this node's log.
				err = ap.Wipe()
			case repl.FrameState:
				if err = ap.Apply(m.Ops, m.Marks, m.Floor); err == nil {
					st.tel.ImportedPairs.Add(uint64(len(m.Ops)))
				}
			case repl.FrameGroup:
				if err = ap.Apply(m.Ops, m.Marks, 0); err == nil {
					st.tel.ImportedGroups.Inc()
				}
			case repl.FrameSnapshotEnd:
				// Commit: own the slot, then acknowledge so the source can
				// publish the handoff. The order matters — once the ack is
				// on the wire the source stops serving the slot, so this
				// node must already be answering for it.
				st.state[slot].Store(slotOwned)
				st.fwdMu.Lock()
				st.fwd[slot] = ""
				st.fwdMu.Unlock()
				st.epoch.Add(1)
				st.tel.MigrationsIn.Inc()
				return repl.NewWriter(conn).Ack(0, 0)
			default:
				err = fmt.Errorf("unexpected frame type %d in a migration", m.Frame)
			}
		}
		if err != nil {
			st.tel.MigrationAborts.Inc()
			err = errors.Join(err, ap.Wipe())
			st.state[slot].Store(slotUnowned)
			return err
		}
	}
}
