package cacheserver

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tsp/internal/proto"
)

// The exactly-once contract over the wire: a session-bound, seq-tagged
// mutation applies once no matter how often its ack is lost and the
// command retried — across pipelines, crash recovery, and failover to
// a promoted follower.

func TestSessionHandshakeAndSeqErrors(t *testing.T) {
	s := startServer(t, WithShards(2), WithDeviceWords(1<<16))
	c := dial(t, s.Addr().String())

	// seq before the handshake is refused with a pointer to the fix.
	if got := c.cmd(t, "incr 1 5 seq=1"); !strings.Contains(got, noSessionMsg) {
		t.Fatalf("seq without session: %q", got)
	}
	if got := c.cmd(t, "session 9"); got != "OK SESSION 9" {
		t.Fatalf("session: %q", got)
	}
	// A multi-key delete has no single witness record, and reads have
	// nothing to dedup; both guards answer with the contract's wording.
	// (Native grammar only produces a multi-key delete via RESP DEL, so
	// these are exercised at the serve layer.)
	cs := s.newConnState()
	cs.sess = 1
	if rep, _ := sessGuard(cs, &proto.Request{
		Cmd: proto.CmdDelete, KV: []uint64{1, 2}, Seq: 1, HasSeq: true,
	}); rep.Msg != seqDeleteMsg {
		t.Fatalf("multi-key delete with seq: %q", rep.Msg)
	}
	if rep, _ := sessGuard(cs, &proto.Request{
		Cmd: proto.CmdGet, KV: []uint64{1}, Seq: 1, HasSeq: true,
	}); rep.Msg != seqScopeMsg {
		t.Fatalf("read with seq: %q", rep.Msg)
	}
	// seq=0 and a second seq are grammar errors, caught at parse time.
	if got := c.cmd(t, "set 1 2 seq=0"); !strings.Contains(got, "bad seq") {
		t.Fatalf("seq=0: %q", got)
	}
	if got := c.cmd(t, "set 1 2 seq=1 seq=2"); !strings.Contains(got, "bad seq") {
		t.Fatalf("double seq: %q", got)
	}
}

func TestSessionExactlyOnceIncr(t *testing.T) {
	s := startServer(t, WithShards(2), WithDeviceWords(1<<16))
	c := dial(t, s.Addr().String())

	if got := c.cmd(t, "session 7"); got != "OK SESSION 7" {
		t.Fatalf("session: %q", got)
	}
	if got := c.cmd(t, "incr 42 5 seq=1"); got != "5" {
		t.Fatalf("first incr: %q", got)
	}
	// The retry storm: every duplicate replays the recorded ack instead
	// of re-adding.
	for i := 0; i < 3; i++ {
		if got := c.cmd(t, "incr 42 5 seq=1"); got != "5" {
			t.Fatalf("retry %d: %q", i, got)
		}
	}
	if got := c.cmd(t, "incr 42 5 seq=2"); got != "10" {
		t.Fatalf("fresh seq: %q", got)
	}
	// A seq behind the record is undecidable and must say so, not apply.
	if got := c.cmd(t, "incr 42 5 seq=1"); !strings.Contains(got, "seq too old") {
		t.Fatalf("stale seq: %q", got)
	}
	if got := c.cmd(t, "get 42"); got != "VALUE 42 10" {
		t.Fatalf("final value: %q", got)
	}
}

func TestSessionRetryAfterCrash(t *testing.T) {
	s := startServer(t, WithShards(2), WithDeviceWords(1<<16))
	c := dial(t, s.Addr().String())

	c.cmd(t, "session 3")
	if got := c.cmd(t, "incr 11 7 seq=1"); got != "7" {
		t.Fatalf("incr: %q", got)
	}
	if got := c.cmd(t, "zincr 12 9 seq=2"); got != "9" {
		t.Fatalf("zincr: %q", got)
	}
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED") {
		t.Fatalf("crash: %q", got)
	}
	// The records committed inside the mutations' sections, so the
	// recovered server still recognizes the retries.
	if got := c.cmd(t, "incr 11 7 seq=1"); got != "7" {
		t.Fatalf("incr retry after crash: %q", got)
	}
	if got := c.cmd(t, "zincr 12 9 seq=2"); got != "9" {
		t.Fatalf("zincr retry after crash: %q", got)
	}
	if got := c.cmd(t, "get 11"); got != "VALUE 11 7" {
		t.Fatalf("value: %q", got)
	}
	if got := c.cmd(t, "zget 12"); got != "VALUE 12 9" {
		t.Fatalf("zvalue: %q", got)
	}
}

func TestSessionedMSetExactlyOnce(t *testing.T) {
	s := startServer(t, WithShards(4), WithDeviceWords(1<<16))
	c := dial(t, s.Addr().String())

	c.cmd(t, "session 5")
	// Keys spread across shards; the witness shard commits the record
	// last, so a duplicate never re-enters any shard.
	if got := c.cmd(t, "mset 1 10 2 20 3 30 4 40 seq=1"); got != "STORED 4" {
		t.Fatalf("mset: %q", got)
	}
	if got := c.cmd(t, "mset 1 10 2 20 3 30 4 40 seq=1"); got != "STORED 4" {
		t.Fatalf("mset retry: %q", got)
	}
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED") {
		t.Fatalf("crash: %q", got)
	}
	if got := c.cmd(t, "mset 1 10 2 20 3 30 4 40 seq=1"); got != "STORED 4" {
		t.Fatalf("mset retry after crash: %q", got)
	}
	lines := c.lines(t, "mget 1 2 3 4")
	want := []string{"VALUE 1 10", "VALUE 2 20", "VALUE 3 30", "VALUE 4 40", "END"}
	if len(lines) != len(want) {
		t.Fatalf("mget: %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("mget[%d]: %q != %q", i, lines[i], want[i])
		}
	}
}

// TestSessionRelaxedRecordSurvivesCrash: a seq tag makes a relaxed or
// fire write durable, so its record commits with its effect and a crash
// before any epoch closes forgets neither — the retry replays.
func TestSessionRelaxedRecordSurvivesCrash(t *testing.T) {
	// A huge epoch interval and no `wait`: no epoch closes, so only the
	// write's own section can have made it durable.
	s := startServer(t, WithShards(1), WithDeviceWords(1<<16),
		WithEpochInterval(time.Hour))
	c := dial(t, s.Addr().String())

	c.cmd(t, "session 2")
	for _, tc := range []struct{ cmd, ack string }{
		{"incr 8 3 seq=1 relaxed", "3"},
		{"zincr 9 4 seq=2 fire", "4"},
		{"incr 8 1 seq=3", "4"},
	} {
		for i := 0; i < 2; i++ {
			if got := c.cmd(t, "%s", tc.cmd); got != tc.ack {
				t.Fatalf("%q send %d: %q, want %q", tc.cmd, i, got, tc.ack)
			}
		}
	}
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED") {
		t.Fatalf("crash: %q", got)
	}
	if got := c.cmd(t, "zincr 9 4 seq=2 fire"); !strings.Contains(got, "seq too old") {
		t.Fatalf("stale after crash: %q", got)
	}
	if got := c.cmd(t, "incr 8 1 seq=3 relaxed"); got != "4" {
		t.Fatalf("dup after crash: %q", got)
	}
	if got := c.cmd(t, "get 8"); got != "VALUE 8 4" {
		t.Fatalf("value: %q", got)
	}
	if got := c.cmd(t, "zget 9"); got != "VALUE 9 4" {
		t.Fatalf("zvalue: %q", got)
	}
}

// TestSessionRetryAckMatchesFirstAck: on every tier, a resend of a
// seq-tagged command answers byte for byte what its first send did —
// in the same burst, in a later one, and after a crash. (A relaxed
// seq-tagged mset once answered `STORED 2`, and its duplicate
// `STORED 2 @1`.)
func TestSessionRetryAckMatchesFirstAck(t *testing.T) {
	s := startServer(t, WithShards(4), WithDeviceWords(1<<16))
	// keyOn returns the first key above from on (or off) shard sh.
	keyOn := func(from uint64, sh *shard, same bool) uint64 {
		for k := from + 1; ; k++ {
			if (s.shardOf(k) == sh) == same {
				return k
			}
		}
	}
	type row struct{ setup, cmd string }
	var rows []row
	for ti, tier := range []string{"", " relaxed", " fire"} {
		k := uint64(1000 * (ti + 1))
		k2, k3 := keyOn(k, s.shardOf(k), true), keyOn(k, s.shardOf(k), false)
		rows = append(rows,
			row{"", fmt.Sprintf("set %d 5", k)},
			row{"", fmt.Sprintf("incr %d 5", k+100)},
			row{fmt.Sprintf("set %d 1", k+200), fmt.Sprintf("delete %d", k+200)},
			row{"", fmt.Sprintf("mset %d 1 %d 2", k, k2)},
			row{"", fmt.Sprintf("mset %d 1 %d 2", k, k3)},
			row{"", fmt.Sprintf("zadd %d 5", k+300)},
			row{"", fmt.Sprintf("zincr %d 5", k+400)},
			row{fmt.Sprintf("zadd %d 1", k+500), fmt.Sprintf("zdel %d", k+500)},
		)
		for i := len(rows) - 8; i < len(rows); i++ {
			rows[i].cmd += fmt.Sprintf(" seq=%d", i+1) + tier
		}
	}
	// replies serves cmds on session id, the first alone and the rest as
	// one burst, and returns every reply line after the handshake's.
	replies := func(id int, cmds ...string) []string {
		out := serveBursts(s, append(regroup([]string{fmt.Sprintf("session %d", id), cmds[0]}, 1),
			regroup(cmds[1:], 64)...))
		return strings.Split(strings.TrimSuffix(out, "\r\n"), "\r\n")[1:]
	}
	first := make([]string, len(rows))
	for i, r := range rows {
		cmds := []string{r.cmd, r.cmd, r.cmd}
		if r.setup != "" {
			cmds = append([]string{r.setup}, cmds...)
		}
		got := replies(i+1, cmds...)
		first[i] = got[len(got)-3]
		for _, dup := range got[len(got)-2:] {
			if dup != first[i] {
				t.Errorf("%q: first ack %q, resend %q", r.cmd, first[i], dup)
			}
		}
	}
	serveBursts(s, regroup([]string{"crash"}, 1))
	for i, r := range rows {
		if got := replies(i+1, r.cmd)[0]; got != first[i] {
			t.Errorf("%q: first ack %q, resend after crash %q", r.cmd, first[i], got)
		}
	}
}

// TestSessionRecordSurvivesLoneDurableFold pins DESIGN.md §9's rule that
// a seq tag makes a write durable. A sessioned relaxed write is followed
// by a PLAIN durable command on the same key on an otherwise idle server.
// The write once buffered value and record in the overlay and the durable
// command's fold, on an unlocked path, made the value durable without its
// record, so a crash let the retry apply a second time. Now the record
// commits with the write and nothing is left to fold.
func TestSessionRecordSurvivesLoneDurableFold(t *testing.T) {
	// A huge epoch interval and no `wait`: no epoch close can make the
	// value durable.
	s := startServer(t, WithShards(1), WithDeviceWords(1<<16),
		WithEpochInterval(time.Hour))
	c := dial(t, s.Addr().String())

	c.cmd(t, "session 3")
	if got := c.cmd(t, "set 8 100 relaxed seq=1"); got != "STORED" {
		t.Fatalf("relaxed set: %q", got)
	}
	if got := c.cmd(t, "incr 8 5"); got != "105" {
		t.Fatalf("lone durable incr over the relaxed value: %q", got)
	}
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED") {
		t.Fatalf("crash: %q", got)
	}
	// The record persisted with the value it guarded: the retry replays.
	if got := c.cmd(t, "set 8 100 relaxed seq=1"); got != "STORED" {
		t.Fatalf("retry after crash: %q", got)
	}
	if got := c.cmd(t, "get 8"); got != "VALUE 8 105" {
		t.Fatalf("retry re-applied the folded set: %q, want VALUE 8 105", got)
	}
	if got := s.shards[0].tel.Server.SessionDups.Load(); got != 1 {
		t.Fatalf("session dups = %d, want 1 (the post-crash retry)", got)
	}
}

func TestSessionWindowEvictionFloor(t *testing.T) {
	s := startServer(t, WithShards(1), WithDeviceWords(1<<16))
	c := dial(t, s.Addr().String())
	_, slots := s.shards[0].stk.SessTable()

	c.cmd(t, "session 1")
	if got := c.cmd(t, "incr 5 1 seq=10"); got != "1" {
		t.Fatalf("incr: %q", got)
	}
	// Sessions 2.. fill the window, and the last one past it evicts the
	// round-robin victim, session 1: the floor rises to its seq.
	for id := 2; id <= slots+1; id++ {
		c.send(t, "session %d", id)
		c.send(t, "set 6 60 seq=3")
	}
	for id := 2; id <= slots+1; id++ {
		if got := c.line(t); got != fmt.Sprintf("OK SESSION %d", id) {
			t.Fatalf("session %d: %q", id, got)
		}
		if got := c.line(t); got != "STORED" {
			t.Fatalf("session %d set: %q", id, got)
		}
	}
	if got := s.shards[0].tel.Server.SessionEvicted.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1 after %d sessions in %d slots", got, slots+1, slots)
	}
	// Session 1's retry is now undecidable — refused, never re-applied.
	c.cmd(t, "session 1")
	if got := c.cmd(t, "incr 5 1 seq=10"); !strings.Contains(got, "seq too old") {
		t.Fatalf("evicted retry: %q", got)
	}
	// A brand-new session starting at/below the floor is equally
	// undecidable; above it is fine.
	c.cmd(t, "session %d", slots+2)
	if got := c.cmd(t, "incr 5 1 seq=10"); !strings.Contains(got, "seq too old") {
		t.Fatalf("below-floor fresh session: %q", got)
	}
	if got := c.cmd(t, "incr 5 1 seq=11"); got != "2" {
		t.Fatalf("above-floor: %q", got)
	}
	// Eviction and floor survive a crash: they were stored in-section.
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED") {
		t.Fatalf("crash: %q", got)
	}
	c.cmd(t, "session 1")
	if got := c.cmd(t, "incr 5 1 seq=10"); !strings.Contains(got, "seq too old") {
		t.Fatalf("evicted retry after crash: %q", got)
	}
}

func TestSessionRetryAfterPromote(t *testing.T) {
	primary, follower := startReplPair(t)
	pc := dial(t, primary.Addr().String())
	fc := dial(t, follower.Addr().String())

	pc.cmd(t, "session 6")
	if got := pc.cmd(t, "incr 21 4 seq=1"); got != "4" {
		t.Fatalf("incr: %q", got)
	}
	if got := pc.cmd(t, "zincr 22 8 seq=2"); got != "8" {
		t.Fatalf("zincr: %q", got)
	}

	// The primary's acks are lost (simulated); the client fails over to
	// the promoted follower and replays its last requests. The records
	// rode the replication stream as group marks, so the follower
	// recognizes them.
	waitReplFor(t, "session marks on follower", func() bool {
		for _, sh := range follower.shards {
			sh.sess.mu.Lock()
			_, ok := sh.sess.m[6]
			sh.sess.mu.Unlock()
			if ok {
				return true
			}
		}
		return false
	})
	waitReplFor(t, "follower convergence", func() bool {
		return converged(t, pc, fc, 32)
	})

	if got := fc.cmd(t, "promote"); got != "OK PROMOTED" {
		t.Fatalf("promote: %q", got)
	}
	fc.cmd(t, "session 6")
	if got := fc.cmd(t, "incr 21 4 seq=1"); got != "4" {
		t.Fatalf("incr retry on promoted follower: %q", got)
	}
	if got := fc.cmd(t, "zincr 22 8 seq=2"); got != "8" {
		t.Fatalf("zincr retry on promoted follower: %q", got)
	}
	if got := fc.cmd(t, "get 21"); got != "VALUE 21 4" {
		t.Fatalf("value: %q", got)
	}
	if got := fc.cmd(t, "zget 22"); got != "VALUE 22 8" {
		t.Fatalf("zvalue: %q", got)
	}
	// Fresh traffic continues on the new primary.
	if got := fc.cmd(t, "incr 21 1 seq=3"); got != "5" {
		t.Fatalf("fresh seq on promoted follower: %q", got)
	}
}

func TestSessionSnapshotTransfersWindow(t *testing.T) {
	// Records persisted BEFORE a follower connects arrive via the
	// snapshot's session chunks rather than streamed marks.
	primary := startServer(t,
		WithReplListen("127.0.0.1:0"),
		WithShards(2),
		WithDeviceWords(1<<16))
	pc := dial(t, primary.Addr().String())
	pc.cmd(t, "session 8")
	if got := pc.cmd(t, "incr 31 6 seq=1"); got != "6" {
		t.Fatalf("incr: %q", got)
	}

	follower := startServer(t,
		WithReplicaOf(primary.ReplAddr().String()),
		WithShards(2),
		WithDeviceWords(1<<16))
	fc := dial(t, follower.Addr().String())
	waitReplFor(t, "snapshot convergence", func() bool {
		return converged(t, pc, fc, 32)
	})
	waitReplFor(t, "session window transfer", func() bool {
		for _, sh := range follower.shards {
			sh.sess.mu.Lock()
			_, ok := sh.sess.m[8]
			sh.sess.mu.Unlock()
			if ok {
				return true
			}
		}
		return false
	})

	if got := fc.cmd(t, "promote"); got != "OK PROMOTED" {
		t.Fatalf("promote: %q", got)
	}
	fc.cmd(t, "session 8")
	if got := fc.cmd(t, "incr 31 6 seq=1"); got != "6" {
		t.Fatalf("retry after snapshot+promote: %q", got)
	}
	if got := fc.cmd(t, "get 31"); got != "VALUE 31 6" {
		t.Fatalf("value: %q", got)
	}
}

func TestSessionStatsCounters(t *testing.T) {
	s := startServer(t, WithShards(1), WithDeviceWords(1<<16))
	c := dial(t, s.Addr().String())

	c.cmd(t, "session 1")
	c.cmd(t, "incr 1 1 seq=1")
	c.cmd(t, "incr 1 1 seq=1")
	c.cmd(t, "incr 1 1 seq=1")

	lines := c.lines(t, "stats")
	if v, ok := replStat(lines, "server_session_ops"); !ok || v != "3" {
		t.Fatalf("session_ops: %q %v", v, ok)
	}
	if v, ok := replStat(lines, "server_session_dups"); !ok || v != "2" {
		t.Fatalf("session_dups: %q %v", v, ok)
	}
}
