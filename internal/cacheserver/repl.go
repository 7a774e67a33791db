package cacheserver

import (
	"fmt"
	"net"
	"time"

	"tsp/internal/repl"
	"tsp/internal/telemetry"
)

// Replication integration (see internal/repl for the protocol and the
// paper's prevention argument). The replication unit is the executor's
// batch: runBatch appends each committed batch's resolved effects to
// the log while still holding the shard read lock, so a crash (which
// needs the write lock) can never separate an OCS commit from its log
// entry. Order needs no special routing: every mutation commits under
// its shard's drain lock (see batch.go), so per shard the log order IS
// the commit order, and keys never span shards, so per-key order is
// total. Optimistic reads stay off the lock: they produce no log
// entries.

// replRole names the server's replication role for stats: "primary",
// "follower", "promoted" (a follower after promote), or "" when
// replication is not configured.
func (s *Server) replRole() string {
	switch {
	case s.replPrimary != nil:
		return "primary"
	case s.replFollower == nil:
		return ""
	case s.readOnly.Load():
		return "follower"
	default:
		return "promoted"
	}
}

// ReplAddr returns the primary's replication listener address, or nil
// when the server is not a replication primary.
func (s *Server) ReplAddr() net.Addr {
	if s.replPrimary == nil {
		return nil
	}
	if a, err := net.ResolveTCPAddr("tcp", s.replPrimary.Addr()); err == nil {
		return a
	}
	return nil
}

// ReadOnly reports whether the server currently rejects client
// mutations (follower mode before promotion).
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// startReplication wires the configured replication role. Called by
// New after the shards exist; the shard replLog fields are written
// before any client traffic, and every later reader is ordered after
// New by the connection accept (or, for the batch workers, by the
// doorbell channel), so no lock is needed.
func (s *Server) startReplication() error {
	if s.cfg.replListen != "" {
		s.replLog = repl.NewLog(s.cfg.replWindow)
		for _, sh := range s.shards {
			sh.replLog = s.replLog
		}
		p, err := repl.ListenPrimary(s.cfg.replListen, repl.PrimaryConfig{
			Log: s.replLog,
			State: func(emit func([]repl.Op, []repl.SessRec, uint64) error) error {
				return s.streamState(nil, emit)
			},
			Tel: s.replTel,
			// Every recorded follower ack re-arms parked `wait repl`
			// barriers (see epoch.go). The wake pointer is initialized by
			// startEpochClock, which New runs before replication starts.
			OnAck: func() { broadcastWake(&s.ackWake) },
		})
		if err != nil {
			s.replLog.Close()
			return fmt.Errorf("cacheserver: %w", err)
		}
		s.replPrimary = p
	}
	if s.cfg.replicaOf != "" {
		s.readOnly.Store(true)
		s.replCS = s.newConnState()
		f, err := repl.StartFollower(repl.FollowerConfig{
			Addr:    s.cfg.replicaOf,
			Applier: &replApplier{s: s, cs: s.replCS},
			Tel:     s.replTel,
		})
		if err != nil {
			return fmt.Errorf("cacheserver: %w", err)
		}
		s.replFollower = f
	}
	return nil
}

// closeReplication tears the replication role down. Called by Close
// before the shard pipelines stop: the follower's applier and the
// primary's state callback both execute through the shards and must
// be gone first.
func (s *Server) closeReplication() {
	if s.replFollower != nil {
		s.replFollower.Stop()
	}
	if s.replPrimary != nil {
		s.replPrimary.Close()
	}
	if s.replLog != nil {
		s.replLog.Close()
	}
}

// streamState is the state transfer's one source: for every shard, the
// pairs whose keys keep admits (nil: every key) and the session records
// witnessed by those keys, with the shard's eviction floor, go to emit.
// A follower bootstrap passes nil; a slot migration passes the slot.
// The log position the caller captured before calling this may trail
// the copied state; that is safe because replicated ops are absolute
// and replay converges.
func (s *Server) streamState(keep func(uint64) bool, emit func([]repl.Op, []repl.SessRec, uint64) error) error {
	for _, sh := range s.shards {
		if err := emit(sh.state(keep)); err != nil {
			return err
		}
	}
	return nil
}

// state copies the shard's live pairs whose keys keep admits (nil: all)
// as absolute sets, plus its PERSISTENT session records witnessed by
// those keys and its eviction floor. It holds the shard's write lock —
// the same full quiescence the crash command uses, since Map.Range
// reads the device directly — and releases it before anything goes to
// the network, so the pause per shard is the copy, not the transfer.
// Volatile-only session records are deliberately left out: they guard
// overlay values the copy cannot see, so shipping one would suppress a
// retry whose effect the receiver never got.
func (sh *shard) state(keep func(uint64) bool) (ops []repl.Op, marks []repl.SessRec, floor uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	add := func(list bool) func(k, v uint64) bool {
		return func(k, v uint64) bool {
			if keep == nil || keep(k) {
				ops = append(ops, repl.Op{List: list, Key: k, Val: v})
			}
			return true
		}
	}
	sh.stk.Map.Range(add(false))
	if sh.stk.List != nil {
		sh.stk.List.Range(add(true))
	}
	floor = sh.sessSlots(func(_ int, r repl.SessRec) {
		if keep == nil || keep(r.Key) {
			marks = append(marks, r)
		}
	})
	return ops, marks, floor
}

// appendRepl turns one batch's committed effects into a replication
// log group: sets and resolved increments become absolute sets, applied
// deletes become deletes, failed, skipped and read-only ops vanish.
// Epoch-drain flushes replicate the same way — an applied flush is an
// absolute write — and stamp the group with the epoch being closed.
// Caller is runBatch, still under the shard read lock.
func (sh *shard) appendRepl(reqs []*batchReq) {
	var rops []repl.Op
	var epoch uint64
	// Session records persisted during this batch (sessPersist fills
	// markScratch only on a primary) ride the same log group as the ops
	// they witnessed, so a follower commits both in one section. The
	// slice must be copied: the log ring retains what it is handed.
	var marks []repl.SessRec
	if len(sh.markScratch) > 0 {
		marks = append(marks, sh.markScratch...)
		sh.markScratch = sh.markScratch[:0]
	}
	for _, r := range reqs {
		if r.epoch > epoch {
			epoch = r.epoch
		}
		for i := range r.ops {
			// ok is "took effect": a delete that found nothing and a flush
			// whose entry was superseded changed no state to replicate.
			op := &r.ops[i]
			if op.err != nil || !op.ok {
				continue
			}
			switch op.kind {
			case opSet:
				rops = append(rops, repl.Op{Key: op.key, Val: op.arg})
			case opIncr:
				rops = append(rops, repl.Op{Key: op.key, Val: op.val})
			case opDelete:
				rops = append(rops, repl.Op{Del: true, Key: op.key})
			case opZSet, opZIncr:
				// Both replicate as the absolute value they produced, so
				// suffix replay over a snapshot converges for the ordered
				// keyspace exactly as for the map.
				rops = append(rops, repl.Op{List: true, Key: op.key, Val: op.val})
			case opZDelete:
				rops = append(rops, repl.Op{Del: true, List: true, Key: op.key})
			}
		}
	}
	if len(rops) > 0 || len(marks) > 0 {
		sh.replLog.Append(rops, epoch, marks)
	}
}

// replApplier applies the replication stream through the server's own
// write path — the same commit groups, Atlas critical sections and
// telemetry clients use, labeled CmdRepl. All calls arrive from the
// follower's single apply goroutine (or one migration's importer).
type replApplier struct {
	s  *Server
	cs *connState
	// keep is the keys the transfer replaces, and so the keys Wipe
	// deletes: nil (all) on a follower, the slot's on an import.
	keep func(uint64) bool
}

// toBatchOp converts one replicated op — an absolute set or delete in
// either keyspace — to a batch op.
func toBatchOp(r repl.Op) batchOp {
	switch {
	case r.List && r.Del:
		return batchOp{kind: opZDelete, key: r.Key}
	case r.List:
		return batchOp{kind: opZSet, key: r.Key, arg: r.Val}
	case r.Del:
		return batchOp{kind: opDelete, key: r.Key}
	}
	return batchOp{kind: opSet, key: r.Key, arg: r.Val}
}

// Apply commits replicated ops, session records and an eviction floor
// as one plan: ops AND records route by shard so each shard commits its
// ops and the records that witnessed them in one section — a promoted
// follower then answers the primary's in-flight retries exactly as the
// primary would have. A non-zero floor is raised on every shard: the
// receiver's shard map need not mirror the sender's, and raising it too
// broadly only turns some replayable retries into "seq too old", never
// into a duplicate application, which is the safe direction.
func (a *replApplier) Apply(rops []repl.Op, marks []repl.SessRec, floor uint64) error {
	if len(rops) == 0 && len(marks) == 0 && floor == 0 {
		return nil
	}
	start := time.Now()
	p := &a.cs.plan
	for _, r := range rops {
		p.add(a.s.shardOf(r.Key), toBatchOp(r), true)
	}
	for _, m := range marks {
		l := p.leg(a.s.shardOf(m.Key))
		l.marks = append(l.marks, m)
	}
	if floor > 0 {
		for _, sh := range a.s.shards {
			p.leg(sh).floor = floor
		}
	}
	a.s.runPlan(p)
	err := p.err()
	a.s.shards[p.used[0]].tel.CmdLatency.ObserveProto(a.cs.ptel, telemetry.CmdRepl, time.Since(start))
	p.reset()
	return err
}

// Wipe deletes every local key keep admits, so an incoming transfer
// replaces that state rather than merging with it; an aborted import
// runs it again to delete its partial copy.
func (a *replApplier) Wipe() error {
	for _, sh := range a.s.shards {
		dels, _, _ := sh.state(a.keep)
		for i := range dels {
			dels[i].Del = true
		}
		if err := a.Apply(dels, nil, 0); err != nil {
			return err
		}
	}
	return nil
}
