package cacheserver

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Durability-tier tests: the relaxed/fire acks and their epoch
// receipts, cross-tier read-your-writes, the wait barrier, the
// crash-loss bound, and the telemetry surface. Timing-dependent
// assertions poll conditions instead of sleeping fixed intervals.

// waitFor polls cond every millisecond until it holds or d elapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// epochStamp asserts reply is `prefix @<e>` and returns e.
func epochStamp(t *testing.T, reply, prefix string) uint64 {
	t.Helper()
	rest, ok := strings.CutPrefix(reply, prefix+" @")
	if !ok {
		t.Fatalf("reply %q: want %q with an epoch stamp", reply, prefix)
	}
	e, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || e == 0 {
		t.Fatalf("reply %q: bad epoch stamp (%v)", reply, err)
	}
	return e
}

// crashFrontier asserts reply is `OK RECOVERED EPOCH <p>` and returns p.
func crashFrontier(t *testing.T, reply string) uint64 {
	t.Helper()
	rest, ok := strings.CutPrefix(reply, "OK RECOVERED EPOCH ")
	if !ok {
		t.Fatalf("crash reply %q: want OK RECOVERED EPOCH <p>", reply)
	}
	p, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		t.Fatalf("crash reply %q: bad frontier (%v)", reply, err)
	}
	return p
}

func TestRelaxedAckStampsAndReadYourWrites(t *testing.T) {
	s := startServer(t, WithShards(2))
	c := dial(t, s.Addr().String())

	e := epochStamp(t, c.cmd(t, "set 1 100 relaxed"), "STORED")
	if got := c.cmd(t, "get 1"); got != "VALUE 1 100" {
		t.Fatalf("get after relaxed set: %q", got)
	}
	// Relaxed incr reads the buffered value as its base.
	epochStamp(t, c.cmd(t, "incr 1 5 relaxed"), "105")
	if got := c.cmd(t, "get 1"); got != "VALUE 1 105" {
		t.Fatalf("get after relaxed incr: %q", got)
	}
	// Relaxed delete hides the key from every read path.
	if got := c.cmd(t, "delete 1 relaxed"); got != "DELETED" {
		t.Fatalf("relaxed delete: %q", got)
	}
	if got := c.cmd(t, "get 1"); got != "NOT_FOUND" {
		t.Fatalf("get after relaxed delete: %q", got)
	}
	// mset spreads across shards; one stamped ack covers all keys.
	epochStamp(t, c.cmd(t, "mset 10 1 11 2 12 3 relaxed"), "STORED 3")
	for k := 10; k <= 12; k++ {
		want := fmt.Sprintf("VALUE %d %d", k, k-9)
		if got := c.cmd(t, "get %d", k); got != want {
			t.Fatalf("get %d: %q, want %q", k, got, want)
		}
	}
	if e == 0 {
		t.Fatal("unreachable")
	}
}

func TestRelaxedOrderedKeyspace(t *testing.T) {
	s := startServer(t, WithShards(2))
	c := dial(t, s.Addr().String())

	// Interleave durable and relaxed ordered writes; reads must see one
	// merged logical keyspace.
	if got := c.cmd(t, "zadd 2 20"); got != "STORED" {
		t.Fatalf("zadd durable: %q", got)
	}
	epochStamp(t, c.cmd(t, "zadd 1 10 relaxed"), "STORED")
	epochStamp(t, c.cmd(t, "zadd 3 30 relaxed"), "STORED")
	if got := c.cmd(t, "zget 1"); got != "VALUE 1 10" {
		t.Fatalf("zget relaxed: %q", got)
	}
	got := c.lines(t, "zrange 0 10")
	want := []string{"VALUE 1 10", "VALUE 2 20", "VALUE 3 30", "END"}
	if len(got) != len(want) {
		t.Fatalf("zrange: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zrange[%d]: %q, want %q", i, got[i], want[i])
		}
	}
	if got := c.cmd(t, "zcount 0 10"); got != "3" {
		t.Fatalf("zcount: %q", got)
	}
	// A relaxed zdel hides a durable key from range and count.
	if got := c.cmd(t, "zdel 2 relaxed"); got != "DELETED" {
		t.Fatalf("relaxed zdel: %q", got)
	}
	if got := c.cmd(t, "zget 2"); got != "NOT_FOUND" {
		t.Fatalf("zget after relaxed zdel: %q", got)
	}
	if got := c.cmd(t, "zcount 0 10"); got != "2" {
		t.Fatalf("zcount after relaxed zdel: %q", got)
	}
	epochStamp(t, c.cmd(t, "zincr 3 4 relaxed"), "34")
	if got := c.cmd(t, "zget 3"); got != "VALUE 3 34" {
		t.Fatalf("zget after relaxed zincr: %q", got)
	}
}

func TestDurableWriteFoldsRelaxedOverlay(t *testing.T) {
	// A long epoch interval keeps the clock out of the picture: nothing
	// drains, so whatever the durable ops commit is exactly what must
	// survive the crash. (No `wait` here: a barrier demands a close.)
	s := startServer(t, WithEpochInterval(time.Minute))
	c := dial(t, s.Addr().String())

	epochStamp(t, c.cmd(t, "set 1 10 relaxed"), "STORED")
	// The durable incr's base must be the buffered 10, and its commit
	// must carry that base to fortified state.
	if got := c.cmd(t, "incr 1 5"); got != "15" {
		t.Fatalf("durable incr over relaxed base: %q", got)
	}
	// Same fold on the ordered keyspace.
	epochStamp(t, c.cmd(t, "zadd 2 20 relaxed"), "STORED")
	if got := c.cmd(t, "zincr 2 7"); got != "27" {
		t.Fatalf("durable zincr over relaxed base: %q", got)
	}
	// A durable set supersedes a pending relaxed write entirely: the
	// stale overlay entry must not resurface at the (eventual) drain.
	epochStamp(t, c.cmd(t, "set 3 111 relaxed"), "STORED")
	if got := c.cmd(t, "set 3 222"); got != "STORED" {
		t.Fatalf("durable set over relaxed: %q", got)
	}

	crashFrontier(t, c.cmd(t, "crash"))
	if got := c.cmd(t, "get 1"); got != "VALUE 1 15" {
		t.Fatalf("get 1 after crash: %q (durable fold lost)", got)
	}
	if got := c.cmd(t, "zget 2"); got != "VALUE 2 27" {
		t.Fatalf("zget 2 after crash: %q (durable fold lost)", got)
	}
	if got := c.cmd(t, "get 3"); got != "VALUE 3 222" {
		t.Fatalf("get 3 after crash: %q (durable set lost or overwritten)", got)
	}
}

// TestMixedTierIncrAtomic: increments on one key from every tier at
// once — two durable writers, two relaxed, one seq-tagged relaxed —
// with no migration and no crash. Each ack is an increment the client
// was told happened, so after a wait barrier the value must equal the
// acked count, for the map key and the ordered key alike. A relaxed
// incr is a read-modify-write of the overlay; before it was bracketed
// by the shard's drain lock (and while lone durable ops folded outside
// it) two writers on two cores lost acked increments.
func TestMixedTierIncrAtomic(t *testing.T) {
	s := startServer(t, WithShards(2))
	const key, zkey, rounds = 77, 78, 400
	writers := []struct {
		tier string
		sess bool
	}{{"", false}, {"", false}, {" relaxed", false}, {" relaxed", false}, {" relaxed", true}}

	var wg sync.WaitGroup
	for w, wr := range writers {
		wg.Add(1)
		go func(w int, tier string, sess bool) {
			defer wg.Done()
			c := dial(t, s.Addr().String())
			if sess {
				c.cmd(t, "session %d", 100+w)
			}
			for r := 1; r <= rounds; r++ {
				seq := ""
				if sess {
					seq = fmt.Sprintf(" seq=%d", 2*r-1)
				}
				if got := c.cmd(t, "incr %d 1%s%s", key, tier, seq); strings.Contains(got, "ERROR") {
					t.Errorf("writer %d incr: %q", w, got)
					return
				}
				if sess {
					seq = fmt.Sprintf(" seq=%d", 2*r)
				}
				if got := c.cmd(t, "zincr %d 1%s%s", zkey, tier, seq); strings.Contains(got, "ERROR") {
					t.Errorf("writer %d zincr: %q", w, got)
					return
				}
			}
		}(w, wr.tier, wr.sess)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	c := dial(t, s.Addr().String())
	c.cmd(t, "wait")
	want := len(writers) * rounds
	if got := c.cmd(t, "get %d", key); got != fmt.Sprintf("VALUE %d %d", key, want) {
		t.Fatalf("map counter: %q, want %d acked increments", got, want)
	}
	if got := c.cmd(t, "zget %d", zkey); got != fmt.Sprintf("VALUE %d %d", zkey, want) {
		t.Fatalf("ordered counter: %q, want %d acked increments", got, want)
	}
}

// TestEpochDrainFlushesSupersedingWrite: a relaxed write that replaces
// an entry between the epoch drain's snapshot and its apply must not
// cancel the flush. The snapshotted write was acked inside the closing
// epoch, so the frontier is about to cover it; the drain owes the key a
// value at least that new and flushes the replacement. (Skipping
// instead lost frontier-covered writes in the durability campaign on
// two cores.)
func TestEpochDrainFlushesSupersedingWrite(t *testing.T) {
	// A huge epoch interval and no `wait` (a barrier would demand a
	// close): the only drain is the one staged by hand.
	s := startServer(t, WithShards(1), WithDeviceWords(1<<16),
		WithEpochInterval(time.Hour))
	sh := s.shards[0]
	c := dial(t, s.Addr().String())

	epochStamp(t, c.cmd(t, "set 5 1 relaxed"), "STORED")
	g := batchReq{ops: sh.ovl.pendingOps(nil)} // the drain's snapshot
	epochStamp(t, c.cmd(t, "set 5 2 relaxed"), "STORED")
	sh.submit(&g)
	g.wait()
	if !g.ops[0].ok {
		t.Fatal("drain skipped a key whose snapshotted entry was superseded")
	}
	if n := sh.ovl.size.Load(); n != 0 {
		t.Fatalf("overlay holds %d entries after the drain, want 0", n)
	}
	// The crash discards the overlay; only what the drain flushed remains.
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED") {
		t.Fatalf("crash: %q", got)
	}
	if got := c.cmd(t, "get 5"); got != "VALUE 5 2" {
		t.Fatalf("after drain + crash: %q, want VALUE 5 2", got)
	}
}

func TestRelaxedLossBoundedByFrontier(t *testing.T) {
	// No epoch ever closes (1-minute interval, and no `wait` to demand
	// a close sooner), so the crash receipt must report frontier 0 and
	// the relaxed write — acked above it — is legally and actually lost,
	// while the durable write survives.
	s := startServer(t, WithEpochInterval(time.Minute))
	c := dial(t, s.Addr().String())

	stamp := epochStamp(t, c.cmd(t, "set 1 100 relaxed"), "STORED")
	if got := c.cmd(t, "set 2 200"); got != "STORED" {
		t.Fatalf("durable set: %q", got)
	}
	p := crashFrontier(t, c.cmd(t, "crash"))
	if stamp <= p {
		t.Fatalf("stamp %d <= frontier %d: receipt claims the relaxed write survived", stamp, p)
	}
	if got := c.cmd(t, "get 1"); got != "NOT_FOUND" {
		t.Fatalf("relaxed write above the frontier survived the crash: %q", got)
	}
	if got := c.cmd(t, "get 2"); got != "VALUE 2 200" {
		t.Fatalf("durable write lost: %q", got)
	}
}

func TestWaitBarrierMakesRelaxedCrashProof(t *testing.T) {
	s := startServer(t, WithEpochInterval(2*time.Millisecond))
	c := dial(t, s.Addr().String())

	stamp := epochStamp(t, c.cmd(t, "set 1 100 relaxed"), "STORED")
	got := c.cmd(t, "wait")
	frontier, err := strconv.ParseUint(got, 10, 64)
	if err != nil {
		t.Fatalf("wait reply %q: %v", got, err)
	}
	if frontier < stamp {
		t.Fatalf("wait returned frontier %d < stamp %d", frontier, stamp)
	}
	p := crashFrontier(t, c.cmd(t, "crash"))
	if p < stamp {
		t.Fatalf("crash frontier %d < waited stamp %d", p, stamp)
	}
	if got := c.cmd(t, "get 1"); got != "VALUE 1 100" {
		t.Fatalf("wait-covered relaxed write lost: %q", got)
	}
	// An explicit target already behind the frontier returns at once.
	if got := c.cmd(t, "wait %d 100", stamp); got == "" {
		t.Fatalf("explicit-target wait: empty reply")
	}
}

func TestWaitTimeoutAndErrors(t *testing.T) {
	s := startServer(t, WithEpochInterval(time.Minute))
	c := dial(t, s.Addr().String())

	// A wait demands its epoch's close, so the clock cannot make it time
	// out; a drain that cannot finish can. Hold one shard's drain lock
	// with a relaxed entry pending on it: the demanded close blocks on
	// that shard past the wait's 30 ms.
	stamp := epochStamp(t, c.cmd(t, "set 1 100 relaxed"), "STORED")
	release := holdDrainLock(t, s.shardOf(1))
	got := c.cmd(t, "wait %d 30", stamp)
	release()
	if got != "SERVER_ERROR wait timeout" {
		t.Fatalf("wait timeout: %q", got)
	}
	// A target the server never issued is a confused client, not a
	// license to park the connection until the clock crawls there.
	if got := c.cmd(t, "wait 999999 30"); got != "CLIENT_ERROR wait epoch beyond current" {
		t.Fatalf("future-target wait: %q", got)
	}
	if got := c.cmd(t, "wait repl 10"); got != "CLIENT_ERROR not a replication primary" {
		t.Fatalf("wait repl on non-primary: %q", got)
	}
	for _, bad := range []string{"wait x", "wait 1 2 3", "wait repl 1 2"} {
		got := c.cmd(t, "%s", bad)
		if !strings.HasPrefix(got, "CLIENT_ERROR") {
			t.Fatalf("%q -> %q, want CLIENT_ERROR", bad, got)
		}
	}
}

func TestTiersDisabledDegradeToDurable(t *testing.T) {
	s := startServer(t, WithEpochInterval(0))
	c := dial(t, s.Addr().String())

	// Tier keywords still parse, but every ack is the durable tier's:
	// no epoch stamp, effects committed before the ack.
	if got := c.cmd(t, "set 1 100 relaxed"); got != "STORED" {
		t.Fatalf("relaxed set with tiers off: %q", got)
	}
	if got := c.cmd(t, "set 2 200 fire"); got != "STORED" {
		t.Fatalf("fire set with tiers off: %q", got)
	}
	// Epoch waits are trivially met.
	if got := c.cmd(t, "wait"); got != "0" {
		t.Fatalf("wait with tiers off: %q", got)
	}
	crashFrontier(t, c.cmd(t, "crash"))
	if got := c.cmd(t, "get 1"); got != "VALUE 1 100" {
		t.Fatalf("degraded relaxed write lost: %q", got)
	}
	if got := c.cmd(t, "get 2"); got != "VALUE 2 200" {
		t.Fatalf("degraded fire write lost: %q", got)
	}
}

func TestFireTierAcksWithoutLooking(t *testing.T) {
	s := startServer(t)
	c := dial(t, s.Addr().String())

	epochStamp(t, c.cmd(t, "set 1 100 fire"), "STORED")
	if got := c.cmd(t, "get 1"); got != "VALUE 1 100" {
		t.Fatalf("get after fire set: %q", got)
	}
	// Fire acks without consulting state: deleting a missing key still
	// reports DELETED (the relaxed tier would say NOT_FOUND).
	if got := c.cmd(t, "delete 999 fire"); got != "DELETED" {
		t.Fatalf("fire delete of missing key: %q", got)
	}
	if got := c.cmd(t, "delete 998 relaxed"); got != "NOT_FOUND" {
		t.Fatalf("relaxed delete of missing key: %q", got)
	}
}

// TestPipelinedRelaxedBurstThenWait is the pipelining property test: a
// burst of relaxed sets and a trailing wait travel in ONE socket
// write. The replies must come back in request order, every ack
// stamped, and the wait's reply — which may only be answered after an
// epoch close — must cover every stamp in the burst, proven by the
// whole burst surviving a crash.
func TestPipelinedRelaxedBurstThenWait(t *testing.T) {
	const burst = 32
	s := startServer(t, WithShards(2), WithEpochInterval(2*time.Millisecond))
	c := dial(t, s.Addr().String())

	var req strings.Builder
	for i := 0; i < burst; i++ {
		fmt.Fprintf(&req, "set %d %d relaxed\r\n", i, i*10)
	}
	req.WriteString("wait\r\n")
	if _, err := c.conn.Write([]byte(req.String())); err != nil {
		t.Fatalf("pipelined write: %v", err)
	}
	var maxStamp uint64
	for i := 0; i < burst; i++ {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("read ack %d: %v", i, err)
		}
		e := epochStamp(t, strings.TrimSpace(line), "STORED")
		if e > maxStamp {
			maxStamp = e
		}
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read wait reply: %v", err)
	}
	frontier, err := strconv.ParseUint(strings.TrimSpace(line), 10, 64)
	if err != nil {
		t.Fatalf("wait reply %q: %v", strings.TrimSpace(line), err)
	}
	if frontier < maxStamp {
		t.Fatalf("wait frontier %d < burst max stamp %d", frontier, maxStamp)
	}
	p := crashFrontier(t, c.cmd(t, "crash"))
	if p < maxStamp {
		t.Fatalf("crash frontier %d < waited stamp %d", p, maxStamp)
	}
	for i := 0; i < burst; i++ {
		want := fmt.Sprintf("VALUE %d %d", i, i*10)
		if got := c.cmd(t, "get %d", i); got != want {
			t.Fatalf("get %d after crash: %q, want %q", i, got, want)
		}
	}
}

func TestEpochTelemetrySurface(t *testing.T) {
	s := startServer(t, WithEpochInterval(2*time.Millisecond))
	c := dial(t, s.Addr().String())

	epochStamp(t, c.cmd(t, "set 1 1 relaxed"), "STORED")
	epochStamp(t, c.cmd(t, "set 2 2 fire"), "STORED")
	if got := c.cmd(t, "set 3 3"); got != "STORED" {
		t.Fatalf("durable set: %q", got)
	}
	c.cmd(t, "wait")

	stat := func(lines []string, key string) (uint64, bool) {
		for _, l := range lines {
			if v, ok := strings.CutPrefix(l, "STAT "+key+" "); ok {
				n, err := strconv.ParseUint(strings.Fields(v)[0], 10, 64)
				if err != nil {
					t.Fatalf("stat %s: bad value %q", key, v)
				}
				return n, true
			}
		}
		return 0, false
	}
	lines := c.lines(t, "stats")
	for key, min := range map[string]uint64{
		"epoch_current":       1,
		"epoch_persisted":     1,
		"server_epoch_closes": 1,
		"server_relaxed_ops":  1,
		"server_fire_ops":     1,
		"server_durable_ops":  1,
		"server_waits":        1,
	} {
		v, ok := stat(lines, key)
		if !ok {
			t.Fatalf("stats: missing %s", key)
		}
		if v < min {
			t.Fatalf("stats: %s = %d, want >= %d", key, v, min)
		}
	}
	cur, _ := stat(lines, "epoch_current")
	per, _ := stat(lines, "epoch_persisted")
	if per >= cur {
		t.Fatalf("persisted frontier %d not behind open epoch %d", per, cur)
	}
}

// TestRelaxedReplicatesAtEpochClose: relaxed writes reach followers
// when their epoch drains, and the follower's LastEpoch tracks the
// primary's frontier.
func TestRelaxedReplicatesAtEpochClose(t *testing.T) {
	p := startServer(t, WithReplListen("127.0.0.1:0"), WithEpochInterval(2*time.Millisecond))
	f := startServer(t, WithReplicaOf(p.ReplAddr().String()), WithEpochInterval(0))

	pc := dial(t, p.Addr().String())
	fc := dial(t, f.Addr().String())

	// Only a streamed group carries its epoch: a drain that lands before
	// the follower's initial snapshot reaches it as plain state. The
	// demanded close below runs within microseconds of the ack, so let
	// the follower get its position first.
	waitFor(t, 5*time.Second, "the follower's initial sync", func() bool {
		gen, _ := f.replFollower.Position()
		return gen != 0
	})
	stamp := epochStamp(t, pc.cmd(t, "set 1 100 relaxed"), "STORED")
	if got := pc.cmd(t, "wait"); got == "" {
		t.Fatal("wait: empty reply")
	}
	waitFor(t, 5*time.Second, "relaxed write to reach the follower", func() bool {
		return fc.cmd(t, "get 1") == "VALUE 1 100"
	})
	waitFor(t, 5*time.Second, "follower epoch to cover the stamp", func() bool {
		return f.replFollower.LastEpoch() >= stamp
	})

	// wait repl covers durable writes: ack count reaches 1 follower.
	if got := pc.cmd(t, "set 2 200"); got != "STORED" {
		t.Fatalf("durable set: %q", got)
	}
	got := pc.cmd(t, "wait repl 2000")
	n, err := strconv.ParseUint(got, 10, 64)
	if err != nil || n < 1 {
		t.Fatalf("wait repl: %q, want >= 1 follower", got)
	}
}

// holdDrainLock takes sh's drain lock, which stalls any epoch close
// with entries to drain there, and returns the release. The release
// also runs at test end (before the server's Close, registered
// earlier), so a failed assertion cannot wedge the final close.
func holdDrainLock(t *testing.T, sh *shard) (release func()) {
	sh.combineMu.Lock()
	release = sync.OnceFunc(sh.combineMu.Unlock)
	t.Cleanup(release)
	return release
}

// shardKeys returns one key per shard of s, in shard order.
func shardKeys(s *Server) []uint64 {
	keys := make([]uint64, len(s.shards))
	for k, found := uint64(1), 0; found < len(keys); k++ {
		if i := s.shardOf(k).idx; keys[i] == 0 {
			keys[i] = k
			found++
		}
	}
	return keys
}

// TestWaitDemandsEpochClose: the barrier closes the epoch itself. With
// an hour between ticks the only way `wait` can return is the close it
// demanded, which must drain every shard's overlay and advance the
// persistent frontier over every stamp.
func TestWaitDemandsEpochClose(t *testing.T) {
	s := startServer(t, WithShards(4), WithEpochInterval(time.Hour))
	c := dial(t, s.Addr().String())

	keys := shardKeys(s)
	var maxStamp uint64
	for _, k := range keys {
		if e := epochStamp(t, c.cmd(t, "set %d %d relaxed", k, k*10), "STORED"); e > maxStamp {
			maxStamp = e
		}
	}
	start := time.Now()
	got := c.cmd(t, "wait")
	if d := time.Since(start); d > time.Second {
		t.Fatalf("wait took %v: it waited for something other than the drain", d)
	}
	frontier, err := strconv.ParseUint(got, 10, 64)
	if err != nil || frontier < maxStamp {
		t.Fatalf("wait reply %q, want a frontier >= %d", got, maxStamp)
	}
	if n := s.shards[0].tel.Server.EpochDemanded.Load(); n == 0 {
		t.Fatal("server_epoch_demanded = 0 after a wait that had to close an epoch")
	}
	if p := crashFrontier(t, c.cmd(t, "crash")); p < maxStamp {
		t.Fatalf("crash frontier %d < waited stamp %d", p, maxStamp)
	}
	for _, k := range keys {
		if got, want := c.cmd(t, "get %d", k), fmt.Sprintf("VALUE %d %d", k, k*10); got != want {
			t.Fatalf("after wait + crash: %q, want %q", got, want)
		}
	}
}

// TestWaitCoalescesCloses: however many barriers park on one epoch,
// they share its close. The drain lock is held so all sixteen are
// parked (and have kicked) before the one close in flight can finish.
func TestWaitCoalescesCloses(t *testing.T) {
	const waiters = 16
	s := startServer(t, WithEpochInterval(time.Hour), WithMaxConns(waiters+1))
	c := dial(t, s.Addr().String())
	tel := s.shards[0].tel.Server

	stamp := epochStamp(t, c.cmd(t, "set 1 100 relaxed"), "STORED")
	release := holdDrainLock(t, s.shardOf(1))
	conns := make([]*client, waiters)
	for i := range conns {
		conns[i] = dial(t, s.Addr().String())
		conns[i].send(t, "wait %d", stamp)
	}
	waitFor(t, 5*time.Second, "every wait to arrive", func() bool {
		return tel.Waits.Load() >= waiters
	})
	release()
	for i, w := range conns {
		line := w.line(t)
		if f, err := strconv.ParseUint(line, 10, 64); err != nil || f < stamp {
			t.Fatalf("waiter %d: reply %q, want a frontier >= %d", i, line, stamp)
		}
	}
	if n := tel.EpochCloses.Load(); n > 2 {
		t.Fatalf("%d waiters on one epoch cost %d closes, want <= 2", waiters, n)
	}
}

// TestDemandedCloseSkippedByCrash: a shard crashes while the close a
// barrier demanded is blocked on it. That close must withhold the
// frontier; the waiter, woken by it, demands the next one and is
// answered — if at all — by a frontier the skipped epoch never was,
// while the crash receipt stays below the lost write's stamp.
func TestDemandedCloseSkippedByCrash(t *testing.T) {
	s := startServer(t, WithShards(2), WithEpochInterval(time.Hour))
	c := dial(t, s.Addr().String())
	w := dial(t, s.Addr().String())

	stamp := epochStamp(t, c.cmd(t, "set 1 100 relaxed"), "STORED")
	sh := s.shardOf(1)
	release := holdDrainLock(t, sh)
	w.send(t, "wait %d 2000", stamp)
	// The demanded close has queued its flush behind the held lock.
	waitFor(t, 5*time.Second, "the demanded close to reach the shard", func() bool {
		return len(sh.queue) > 0
	})
	got := c.cmd(t, "crash %d", sh.idx)
	rest, ok := strings.CutPrefix(got, fmt.Sprintf("OK RECOVERED SHARD %d EPOCH ", sh.idx))
	if !ok {
		t.Fatalf("crash reply: %q", got)
	}
	p, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || p >= stamp {
		t.Fatalf("crash receipt %q covers stamp %d of a write the crash shed", got, stamp)
	}
	release()

	if line := w.line(t); line != "SERVER_ERROR wait timeout" {
		if f, err := strconv.ParseUint(line, 10, 64); err != nil || f <= stamp {
			t.Fatalf("waiter reply %q: want a timeout or a frontier past the skipped epoch %d", line, stamp)
		}
	}
	if n := s.shards[0].tel.Server.EpochSkipped.Load(); n == 0 {
		t.Fatal("server_epoch_skipped = 0 after a crash inside a close")
	}
	if got := c.cmd(t, "get 1"); got != "NOT_FOUND" {
		t.Fatalf("the overlay entry survived its shard's crash: %q", got)
	}
}

// TestEpochClockStillBoundsLoss: with no barrier anywhere the ticker
// alone must cover a relaxed write within a few intervals — the loss
// bound -epoch-interval promises writes nobody waits on.
func TestEpochClockStillBoundsLoss(t *testing.T) {
	s := startServer(t, WithEpochInterval(2*time.Millisecond))
	c := dial(t, s.Addr().String())

	stamp := epochStamp(t, c.cmd(t, "set 1 100 relaxed"), "STORED")
	waitFor(t, 2*time.Second, "the clock to cover the stamp", func() bool {
		return s.perEpoch.Load() >= stamp
	})
	if n := s.shards[0].tel.Server.EpochDemanded.Load(); n != 0 {
		t.Fatalf("server_epoch_demanded = %d with no wait issued", n)
	}
	if p := crashFrontier(t, c.cmd(t, "crash")); p < stamp {
		t.Fatalf("crash frontier %d < clock-covered stamp %d", p, stamp)
	}
	if got := c.cmd(t, "get 1"); got != "VALUE 1 100" {
		t.Fatalf("clock-covered relaxed write lost: %q", got)
	}
}
