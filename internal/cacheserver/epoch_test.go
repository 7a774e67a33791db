package cacheserver

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tsp/internal/proto"
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

	// Interleave durable and relaxed ordered writes: a skip-list write is
	// durable at its CAS on every tier, so each answers the durable ack
	// (no epoch stamp) and reads see one keyspace.
	for _, tc := range []struct{ cmd, want string }{
		{"zadd 2 20", "STORED"},
		{"zadd 1 10 relaxed", "STORED"},
		{"zadd 3 30 relaxed", "STORED"},
		{"zget 1", "VALUE 1 10"},
	} {
		if got := c.cmd(t, "%s", tc.cmd); got != tc.want {
			t.Fatalf("%s: %q, want %q", tc.cmd, got, tc.want)
		}
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
	// A relaxed zdel hides a durable key from range and count.
	for _, tc := range []struct{ cmd, want string }{
		{"zcount 0 10", "3"},
		{"zdel 2 relaxed", "DELETED"},
		{"zget 2", "NOT_FOUND"},
		{"zcount 0 10", "2"},
		{"zincr 3 4 relaxed", "34"},
		{"zget 3", "VALUE 3 34"},
	} {
		if got := c.cmd(t, "%s", tc.cmd); got != tc.want {
			t.Fatalf("%s: %q, want %q", tc.cmd, got, tc.want)
		}
	}
}

// TestOrderedWritesDurableOnEveryTier: the skip list's CAS is its
// persistence point, so a relaxed or fire z-write is committed before
// its ack like a durable one. No epoch ever closes here (an hour-long
// clock, no `wait`), so whatever a relaxed write's overlay would have
// held is gone after the crash; every ordered ack must still read back,
// a fire zdel reports real presence, and a follower sees a relaxed zadd
// as soon as it commits.
func TestOrderedWritesDurableOnEveryTier(t *testing.T) {
	s := startServer(t, WithShards(2), WithEpochInterval(time.Hour))
	c := dial(t, s.Addr().String())
	for _, tc := range []struct{ cmd, want string }{
		{"zadd 2 20", "STORED"},
		{"zadd 1 10 relaxed", "STORED"},
		{"zadd 3 30 fire", "STORED"},
		{"zincr 1 5 fire", "15"},
		{"zdel 2 relaxed", "DELETED"},
		{"zdel 4 fire", "NOT_FOUND"},
		{"zdel 3 fire", "DELETED"},
		{"zadd 5 50 relaxed", "STORED"},
	} {
		if got := c.cmd(t, "%s", tc.cmd); got != tc.want {
			t.Fatalf("%s: %q, want %q", tc.cmd, got, tc.want)
		}
	}
	if p := crashFrontier(t, c.cmd(t, "crash")); p != 0 {
		t.Fatalf("crash frontier %d: an epoch closed", p)
	}
	for _, tc := range []struct{ cmd, want string }{
		{"zget 1", "VALUE 1 15"},
		{"zget 2", "NOT_FOUND"},
		{"zget 3", "NOT_FOUND"},
		{"zget 5", "VALUE 5 50"},
		{"zcount 0 10", "2"},
	} {
		if got := c.cmd(t, "%s", tc.cmd); got != tc.want {
			t.Fatalf("after crash, %s: %q, want %q", tc.cmd, got, tc.want)
		}
	}
	got := strings.Join(c.lines(t, "zrange 0 10"), ",")
	if want := "VALUE 1 15,VALUE 5 50,END"; got != want {
		t.Fatalf("after crash, zrange: %s, want %s", got, want)
	}

	p := startServer(t, WithReplListen("127.0.0.1:0"), WithEpochInterval(time.Hour))
	f := startServer(t, WithReplicaOf(p.ReplAddr().String()), WithEpochInterval(time.Hour))
	pc, fc := dial(t, p.Addr().String()), dial(t, f.Addr().String())
	if got := pc.cmd(t, "zadd 7 70 relaxed"); got != "STORED" {
		t.Fatalf("relaxed zadd on the primary: %q", got)
	}
	for deadline := time.Now().Add(5 * time.Second); fc.cmd(t, "zget 7") != "VALUE 7 70"; {
		if time.Now().After(deadline) {
			t.Fatal("relaxed zadd never reached the follower")
		}
	}
	if n := p.shards[0].tel.Server.EpochCloses.Load(); n != 0 {
		t.Fatalf("%d epoch closes on the primary, want none", n)
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
	if got := c.cmd(t, "get 3"); got != "VALUE 3 222" {
		t.Fatalf("get 3 after crash: %q (durable set lost or overwritten)", got)
	}
}

// TestMixedTierIncrAtomic: increments on one key from every tier at
// once — two durable writers, two relaxed, one seq-tagged relaxed (so
// durable) —
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

// TestEpochDrainAppliesItsSnapshot: a relaxed write that replaces an
// entry between a drain's commit and its apply was stamped with the next
// epoch. The apply writes the committed snapshot's value — the payload a
// replay would recover — and leaves the replacement pending: reads see
// it, a crash sheds it (its stamp is above the frontier), and the
// snapshot's value reads back. Applying the replacement instead would
// let one next-epoch write survive without the rest of its epoch.
func TestEpochDrainAppliesItsSnapshot(t *testing.T) {
	// A huge epoch interval and no `wait` (a barrier would demand a
	// close): the only drain is the one staged by hand, standing in for
	// closeEpoch.
	s := startServer(t, WithShards(1), WithDeviceWords(1<<16),
		WithEpochInterval(time.Hour))
	sh := s.shards[0]
	c := dial(t, s.Addr().String())

	e := epochStamp(t, c.cmd(t, "set 5 1 relaxed"), "STORED")
	s.curEpoch.Store(e + 1)
	release := holdDrainLock(t, sh)
	if err := sh.commitDrain(e); err != nil || len(sh.drainOps) != 1 {
		t.Fatalf("commit: %v, %d ops", err, len(sh.drainOps))
	}
	if got := epochStamp(t, c.cmd(t, "set 5 2 relaxed"), "STORED"); got != e+1 {
		t.Fatalf("replacement stamped %d, want %d", got, e+1)
	}
	sh.applyDrain()
	release()
	if n := sh.ovl.size.Load(); n != 1 {
		t.Fatalf("overlay holds %d entries after the apply, want the replacement", n)
	}
	if got := c.cmd(t, "get 5"); got != "VALUE 5 2" {
		t.Fatalf("before the crash: %q, want the pending VALUE 5 2", got)
	}
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED") {
		t.Fatalf("crash: %q", got)
	}
	if got := c.cmd(t, "get 5"); got != "VALUE 5 1" {
		t.Fatalf("after apply + crash: %q, want the snapshot's VALUE 5 1", got)
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
	f := startServer(t, WithReplicaOf(p.ReplAddr().String()), WithEpochInterval(time.Hour))

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

// TestFlushOverlayWaitsOutInFlightSection: a flusher that finds the
// overlay empty must still wait out the drain lock's holder. A migration
// flip captures the log tip right after its flush; returning early once
// left an epoch drain's writes out of the stream
// (TestClusterMigrateUnderLoad lost acked increments about once in 150
// runs).
func TestFlushOverlayWaitsOutInFlightSection(t *testing.T) {
	s := startServer(t, WithShards(1), WithEpochInterval(time.Hour))
	sh := s.shards[0]
	release := holdDrainLock(t, sh) // the section in flight
	done := make(chan struct{})
	go func() {
		sh.flushOverlay(s)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("flushOverlay returned while a section held the drain lock")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-done
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
	// The demanded close read the generations before it opened the next
	// epoch; now it is blocked on the held drain lock, short of its
	// snapshot.
	waitFor(t, 5*time.Second, "the demanded close to reach the shard", func() bool {
		return s.curEpoch.Load() > stamp
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

// TestRelaxedRunStampCoversEveryEntry: a run of blind relaxed writes is
// stamped once, with the epoch read after its last overlay insert, so
// every ack's stamp covers its entry even when epochs close while the
// run is being buffered. One connection (served in process, so the
// schedule is not paced by the network poller) sends bursts of 32
// relaxed sets, each burst one run, while a goroutine closes epochs back
// to back; after each burst a wait on the largest stamp and a crash
// must leave every acked write at or below the crash frontier readable.
// Each burst writes fresh values, so a lost entry reads back the
// previous burst's.
func TestRelaxedRunStampCoversEveryEntry(t *testing.T) {
	const bursts, width = 1000, 32
	s := startServer(t, WithShards(2), WithEpochInterval(time.Hour), WithDeviceWords(1<<16))
	stop := make(chan struct{})
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for {
			select {
			case <-stop:
				return
			default:
				s.waitEpoch(s.curEpoch.Load(), 0) // demands the close of the current epoch
			}
		}
	}()
	defer func() { close(stop); <-closed }()

	cs := s.newConnState()
	var out bytes.Buffer
	enc := proto.NewEncoder(&out, proto.Native{}, writeBufBytes)
	send := func(req string) []string {
		out.Reset()
		dec := proto.NewDecoder(strings.NewReader(req), proto.Native{}, 0)
		for batch, err := dec.Next(); len(batch) > 0 || err == nil; batch, err = dec.Next() {
			s.serveBatch(cs, enc, batch)
		}
		enc.Flush()
		return strings.Split(strings.TrimSuffix(out.String(), "\r\n"), "\r\n")
	}
	var req strings.Builder
	for b := 1; b <= bursts; b++ {
		req.Reset()
		for k := 0; k < width; k++ {
			fmt.Fprintf(&req, "set %d %d relaxed\r\n", k, b)
		}
		var stamps [width]uint64
		for k, line := range send(req.String()) {
			stamps[k] = epochStamp(t, line, "STORED")
		}
		// The crash rides the wait's burst: the sooner it follows the
		// barrier, the fewer later closes can cover for a short stamp.
		maxStamp := slices.Max(stamps[:])
		rep := send(fmt.Sprintf("wait %d\r\ncrash\r\n", maxStamp))
		if _, err := strconv.ParseUint(rep[0], 10, 64); err != nil {
			t.Fatalf("burst %d: wait %d: %q", b, maxStamp, rep[0])
		}
		p := crashFrontier(t, rep[1])
		req.Reset()
		for k := range stamps {
			fmt.Fprintf(&req, "get %d\r\n", k)
		}
		for k, got := range send(req.String()) {
			if want := fmt.Sprintf("VALUE %d %d", k, b); stamps[k] <= p && got != want {
				t.Fatalf("burst %d: key %d acked @%d, crash frontier %d: %q, want %q", b, k, stamps[k], p, got, want)
			}
		}
	}
}

// pipe writes reqs — CRLF-terminated commands — from a second goroutine
// while it reads n reply lines, so a burst larger than the socket
// buffers cannot wedge both ends.
func (c *client) pipe(t *testing.T, reqs string, n int) []string {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.conn.Write([]byte(reqs))
		errc <- err
	}()
	out := make([]string, n)
	for i := range out {
		out[i] = c.line(t)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	return out
}

// relaxedBurst is n pipelined relaxed sets of keys first..first+n-1 to val.
func relaxedBurst(first, n, val int) string {
	var b strings.Builder
	for k := first; k < first+n; k++ {
		fmt.Fprintf(&b, "set %d %d relaxed\r\n", k, val)
	}
	return b.String()
}

// getBurst is n pipelined gets of keys first..first+n-1.
func getBurst(first, n int) string {
	var b strings.Builder
	for k := first; k < first+n; k++ {
		fmt.Fprintf(&b, "get %d\r\n", k)
	}
	return b.String()
}

// TestEpochDrainCrashRecoversWholeDrain: a crash in the middle of an
// epoch drain recovers all of the drained snapshot or none of it. One
// shard, an hour-long clock: 3,000 relaxed sets are acked, a `wait` on
// a second connection demands the close, and the crash lands as soon as
// the drain starts clearing the overlay — inside the apply, or when its
// sections ran back to back as separate commits, between two of them.
// Each trial writes fresh values, so a key the drain lost reads an older
// one.
func TestEpochDrainCrashRecoversWholeDrain(t *testing.T) {
	const keys, trials = 3000, 10
	s := startServer(t, WithShards(1), WithEpochInterval(time.Hour))
	sh := s.shards[0]
	c := dial(t, s.Addr().String())
	w := dial(t, s.Addr().String())
	for trial := 1; trial <= trials; trial++ {
		var stamp uint64
		for _, line := range c.pipe(t, relaxedBurst(1, keys, trial), keys) {
			stamp = max(stamp, epochStamp(t, line, "STORED"))
		}
		w.send(t, "wait")
		waitFor(t, 10*time.Second, "the drain to start clearing the overlay", func() bool {
			return sh.ovl.size.Load() < keys
		})
		p := crashFrontier(t, c.cmd(t, "crash"))
		if line := w.line(t); strings.Contains(line, "ERROR") {
			t.Fatalf("trial %d: wait: %q", trial, line)
		}
		found := 0
		want := fmt.Sprintf(" %d", trial)
		for _, line := range c.pipe(t, getBurst(1, keys), keys) {
			if strings.HasSuffix(line, want) {
				found++
			}
		}
		if found != 0 && found != keys {
			t.Fatalf("trial %d: %d of %d keys of one drain survived the crash (frontier %d)", trial, found, keys, p)
		}
		if p >= stamp && found != keys {
			t.Fatalf("trial %d: crash frontier %d covers stamp %d, but %d of %d keys survived", trial, p, stamp, found, keys)
		}
	}
}

// TestEpochDrainReplicatesOneGroupPerShard: a drain wider than a section
// reaches the replication log as one group per shard — the unit a
// follower applies whole — not one per section.
func TestEpochDrainReplicatesOneGroupPerShard(t *testing.T) {
	s := startServer(t, WithReplListen("127.0.0.1:0"), WithShards(2),
		WithBatchMax(16), WithEpochInterval(time.Hour))
	c := dial(t, s.Addr().String())
	c.pipe(t, relaxedBurst(1, 200, 7), 200)
	for _, sh := range s.shards {
		if n := sh.ovl.size.Load(); n <= 16 {
			t.Fatalf("shard %d buffers %d entries, want a drain wider than a section", sh.idx, n)
		}
	}
	_, before := s.replLog.Position()
	if got := c.cmd(t, "wait"); strings.Contains(got, "ERROR") {
		t.Fatalf("wait: %q", got)
	}
	// The apply runs after the wait is answered; wait it out too.
	for _, sh := range s.shards {
		sh.combineMu.Lock()
		sh.combineMu.Unlock()
	}
	if _, after := s.replLog.Position(); after-before != uint64(len(s.shards)) {
		t.Fatalf("the drain added %d log groups, want one per shard (%d)", after-before, len(s.shards))
	}
}
