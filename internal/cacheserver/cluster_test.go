package cacheserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsp/internal/cluster"
	"tsp/internal/proto"
	"tsp/internal/repl"
)

// keysInSlot returns the first n keys whose hash slot is slot.
func keysInSlot(slot, n int) []uint64 {
	var out []uint64
	for k := uint64(0); len(out) < n; k++ {
		if cluster.SlotOf(k) == slot {
			out = append(out, k)
		}
	}
	return out
}

// keyOutsideSlot returns a key NOT in slot.
func keyOutsideSlot(slot int) uint64 {
	for k := uint64(0); ; k++ {
		if cluster.SlotOf(k) != slot {
			return k
		}
	}
}

// TestClusterMovedRedirect: a node owning half the slots serves its
// half and answers MOVED for the rest — on every keyed command shape,
// while the unkeyed ordered-range commands pass (the routing tier
// merges those across nodes).
func TestClusterMovedRedirect(t *testing.T) {
	s := startServer(t, WithClusterSlots("0-31"))
	c := dial(t, s.Addr().String())

	var owned, moved uint64
	found := 0
	for k := uint64(0); found < 2; k++ {
		if cluster.SlotOf(k) < 32 && found == 0 {
			owned, found = k, 1
		} else if cluster.SlotOf(k) >= 32 && found == 1 {
			moved, found = k, 2
		}
	}
	if got := c.cmd(t, "set %d 100", owned); got != "STORED" {
		t.Fatalf("set owned: %q", got)
	}
	if got := c.cmd(t, "get %d", owned); got != fmt.Sprintf("VALUE %d 100", owned) {
		t.Fatalf("get owned: %q", got)
	}
	wantMoved := fmt.Sprintf("MOVED %d ?", cluster.SlotOf(moved))
	for _, cmd := range []string{
		fmt.Sprintf("get %d", moved),
		fmt.Sprintf("set %d 1", moved),
		fmt.Sprintf("incr %d 1", moved),
		fmt.Sprintf("delete %d", moved),
		fmt.Sprintf("zadd %d 1", moved),
		fmt.Sprintf("zget %d", moved),
		fmt.Sprintf("mget %d %d", owned, moved),
		fmt.Sprintf("mset %d 1 %d 2", owned, moved),
	} {
		if got := c.cmd(t, "%s", cmd); got != wantMoved {
			t.Fatalf("%q -> %q, want %q", cmd, got, wantMoved)
		}
	}
	// A redirected mset must not have applied its owned half.
	if got := c.cmd(t, "get %d", owned); got != fmt.Sprintf("VALUE %d 100", owned) {
		t.Fatalf("owned key changed by a redirected mset: %q", got)
	}
	// zrange/zcount carry range bounds, not keys: answered locally.
	if got := c.cmd(t, "zcount 0 1000000"); got == wantMoved {
		t.Fatalf("zcount was slot-gated: %q", got)
	}

	out := strings.Join(c.lines(t, "cluster"), "\n")
	if !strings.Contains(out, "SLOTS 0-31 self") {
		t.Fatalf("cluster info missing owned slots:\n%s", out)
	}
	if !strings.Contains(out, "CLUSTER epoch 1") {
		t.Fatalf("cluster info missing epoch:\n%s", out)
	}

	// Cluster telemetry shows in stats.
	stats := strings.Join(c.lines(t, "stats"), "\n")
	for _, name := range []string{"cluster_epoch", "cluster_slots_owned", "cluster_moved_replies"} {
		if !strings.Contains(stats, "STAT "+name) {
			t.Fatalf("stats missing %s:\n%s", name, stats)
		}
	}
}

// TestClusterCommandsOffCluster: cluster verbs on a plain server are
// client errors, and a plain server never redirects.
func TestClusterCommandsOffCluster(t *testing.T) {
	s := startServer(t)
	c := dial(t, s.Addr().String())
	for _, cmd := range []string{"cluster", "migrate 3 127.0.0.1:1", "acceptslot 3"} {
		if got := c.cmd(t, "%s", cmd); !strings.HasPrefix(got, "CLIENT_ERROR") {
			t.Fatalf("%q on non-cluster server: %q", cmd, got)
		}
	}
	if got := c.cmd(t, "set 1 100"); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
}

// TestClusterMigrateMovesSlot is the handoff acceptance test: data,
// ordered-list entries, and session dedup state all move; the source
// redirects with the target's address; exactly-once replay holds on
// the target.
func TestClusterMigrateMovesSlot(t *testing.T) {
	src := startServer(t, WithClusterSlots("all"))
	dst := startServer(t, WithClusterSlots("none"))
	c := dial(t, src.Addr().String())

	slot := cluster.SlotOf(12345)
	keys := keysInSlot(slot, 20)
	other := keyOutsideSlot(slot)

	for i, k := range keys {
		if got := c.cmd(t, "set %d %d", k, 1000+i); got != "STORED" {
			t.Fatalf("set %d: %q", k, got)
		}
	}
	// Ordered-list entries in the slot move too.
	if got := c.cmd(t, "zadd %d 777", keys[0]); got != "STORED" {
		t.Fatalf("zadd: %q", got)
	}
	if got := c.cmd(t, "set %d 42", other); got != "STORED" {
		t.Fatalf("set other: %q", got)
	}
	// A detectable op in the slot: its dedup record must migrate.
	sess := dial(t, src.Addr().String())
	if got := sess.cmd(t, "session 77"); got != "OK SESSION 77" {
		t.Fatalf("session: %q", got)
	}
	if got := sess.cmd(t, "incr %d 5 seq=1", keys[1]); got != strconv.Itoa(1000+1+5) {
		t.Fatalf("sessioned incr: %q", got)
	}

	got := c.cmd(t, "migrate %d %s", slot, dst.Addr().String())
	if !strings.HasPrefix(got, fmt.Sprintf("OK MIGRATED %d %s pairs ", slot, dst.Addr())) {
		t.Fatalf("migrate: %q", got)
	}

	// Source: redirects with the target's address now.
	wantMoved := fmt.Sprintf("MOVED %d %s", slot, dst.Addr())
	if got := c.cmd(t, "get %d", keys[0]); got != wantMoved {
		t.Fatalf("get on source after migrate: %q, want %q", got, wantMoved)
	}
	// Other slots still served by the source.
	if got := c.cmd(t, "get %d", other); got != fmt.Sprintf("VALUE %d 42", other) {
		t.Fatalf("unmigrated key on source: %q", got)
	}

	// Target: serves the slot's data, redirects everything else.
	d := dial(t, dst.Addr().String())
	for i, k := range keys {
		want := fmt.Sprintf("VALUE %d %d", k, 1000+i)
		if k == keys[1] {
			want = fmt.Sprintf("VALUE %d %d", k, 1000+1+5)
		}
		if got := d.cmd(t, "get %d", k); got != want {
			t.Fatalf("get %d on target: %q, want %q", k, got, want)
		}
	}
	if got := d.cmd(t, "zget %d", keys[0]); got != fmt.Sprintf("VALUE %d 777", keys[0]) {
		t.Fatalf("zget on target: %q", got)
	}
	if got := d.cmd(t, "get %d", other); got != fmt.Sprintf("MOVED %d ?", cluster.SlotOf(other)) {
		t.Fatalf("unowned key on target: %q", got)
	}

	// Exactly-once: replaying the detectable op on the target returns
	// the recorded ack instead of re-applying.
	dsess := dial(t, dst.Addr().String())
	dsess.cmd(t, "session 77")
	if got := dsess.cmd(t, "incr %d 5 seq=1", keys[1]); got != strconv.Itoa(1000+1+5) {
		t.Fatalf("replay on target: %q (re-applied?)", got)
	}
	if got := d.cmd(t, "get %d", keys[1]); got != fmt.Sprintf("VALUE %d %d", keys[1], 1000+1+5) {
		t.Fatalf("value after replay: %q", got)
	}

	// Node epochs bumped on both sides; cluster info reflects the move.
	srcInfo := strings.Join(c.lines(t, "cluster"), "\n")
	if !strings.Contains(srcInfo, fmt.Sprintf("MOVED %d %s", slot, dst.Addr())) {
		t.Fatalf("source cluster info missing forward:\n%s", srcInfo)
	}
	dstInfo := strings.Join(d.lines(t, "cluster"), "\n")
	if !strings.Contains(dstInfo, fmt.Sprintf("SLOTS %d %s", slot, "self")) &&
		!strings.Contains(dstInfo, "self") {
		t.Fatalf("target cluster info missing slot:\n%s", dstInfo)
	}

	if err := src.VerifyAll(); err != nil {
		t.Fatalf("source verify: %v", err)
	}
	if err := dst.VerifyAll(); err != nil {
		t.Fatalf("target verify: %v", err)
	}
}

// TestClusterMigrateUnderLoad: writers hammer a slot (durable and
// relaxed tiers) right through its migration. Every acknowledged
// increment must survive the handoff — the final value on the target
// equals the count of acks the writers collected. This is Eq 1
// (committed writes survive) applied to the migration flip.
func TestClusterMigrateUnderLoad(t *testing.T) {
	src := startServer(t, WithClusterSlots("all"))
	dst := startServer(t, WithClusterSlots("none"))

	key := uint64(999)
	slot := cluster.SlotOf(key)

	var acked atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tier := ""
			if w%2 == 1 {
				tier = " relaxed"
			}
			c := dial(t, src.Addr().String())
			for {
				select {
				case <-stop:
					return
				default:
				}
				line := c.cmd(t, "incr %d 1%s", key, tier)
				fields := strings.Fields(line)
				if _, err := strconv.Atoi(fields[0]); err == nil {
					acked.Add(1)
					continue
				}
				if strings.HasPrefix(line, "MOVED") {
					if len(fields) == 3 && fields[2] != "?" {
						c = dial(t, fields[2])
					} else {
						time.Sleep(time.Millisecond)
					}
					continue
				}
				t.Errorf("writer: unexpected reply %q", line)
				return
			}
		}(w)
	}

	// Let the writers build a log suffix, then migrate under them.
	waitFor(t, 10*time.Second, "acked writes before the migration", func() bool {
		return acked.Load() >= 500
	})
	admin := dial(t, src.Addr().String())
	got := admin.cmd(t, "migrate %d %s", slot, dst.Addr().String())
	if !strings.HasPrefix(got, "OK MIGRATED") {
		t.Fatalf("migrate under load: %q", got)
	}
	// Keep writing against the new owner for a while, then stop.
	migrated := acked.Load()
	waitFor(t, 10*time.Second, "acked writes after the migration", func() bool {
		return acked.Load() >= migrated+500
	})
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// The relaxed tier's acks are covered by the flip's forced flush;
	// settle the target's epoch clock before reading.
	d := dial(t, dst.Addr().String())
	d.cmd(t, "wait")
	want := fmt.Sprintf("VALUE %d %d", key, acked.Load())
	if got := d.cmd(t, "get %d", key); got != want {
		t.Fatalf("acked-write loss across migration: %q, want %q (%d acks)", got, want, acked.Load())
	}
	if err := src.VerifyAll(); err != nil {
		t.Fatalf("source verify: %v", err)
	}
	if err := dst.VerifyAll(); err != nil {
		t.Fatalf("target verify: %v", err)
	}
}

// TestClusterMigrateFailureRollsBack: a migration that cannot reach
// its target reports the error and leaves the slot owned and serving —
// no acked write has left the source's responsibility.
func TestClusterMigrateFailureRollsBack(t *testing.T) {
	s := startServer(t, WithClusterSlots("all"))
	c := dial(t, s.Addr().String())

	key := uint64(31337)
	slot := cluster.SlotOf(key)
	if got := c.cmd(t, "set %d 100", key); got != "STORED" {
		t.Fatalf("set: %q", got)
	}

	// A port nobody listens on: bind one, then close it.
	dead := startServer(t)
	deadAddr := dead.Addr().String()
	dead.Close()

	if got := c.cmd(t, "migrate %d %s", slot, deadAddr); !strings.HasPrefix(got, "SERVER_ERROR migrate:") {
		t.Fatalf("migrate to dead target: %q", got)
	}
	if got := c.cmd(t, "get %d", key); got != fmt.Sprintf("VALUE %d 100", key) {
		t.Fatalf("slot lost after failed migration: %q", got)
	}
	if got := c.cmd(t, "set %d 101", key); got != "STORED" {
		t.Fatalf("slot read-only after failed migration: %q", got)
	}

	// Grammar and state errors.
	if got := c.cmd(t, "migrate 99 127.0.0.1:1"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad slot: %q", got)
	}
	if got := c.cmd(t, "acceptslot %d", slot); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("acceptslot for an owned slot: %q", got)
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestClusterSurvivesCrash: a cluster node's slot table and its data
// survive the crash command; redirects keep working after recovery.
func TestClusterSurvivesCrash(t *testing.T) {
	s := startServer(t, WithClusterSlots("0-31"))
	c := dial(t, s.Addr().String())

	var owned, moved uint64
	found := 0
	for k := uint64(0); found < 2; k++ {
		if cluster.SlotOf(k) < 32 && found == 0 {
			owned, found = k, 1
		} else if cluster.SlotOf(k) >= 32 && found == 1 {
			moved, found = k, 2
		}
	}
	if got := c.cmd(t, "set %d 55", owned); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED") {
		t.Fatalf("crash: %q", got)
	}
	if got := c.cmd(t, "get %d", owned); got != fmt.Sprintf("VALUE %d 55", owned) {
		t.Fatalf("owned key after crash: %q", got)
	}
	if got := c.cmd(t, "get %d", moved); got != fmt.Sprintf("MOVED %d ?", cluster.SlotOf(moved)) {
		t.Fatalf("redirect after crash: %q", got)
	}
}

// marksIn reads every shard's persistent session records witnessed by
// keys keep admits, by session id.
func marksIn(s *Server, keep func(uint64) bool) map[uint64]repl.SessRec {
	out := map[uint64]repl.SessRec{}
	for _, sh := range s.shards {
		_, marks, _ := sh.state(keep)
		for _, m := range marks {
			out[m.Sess] = m
		}
	}
	return out
}

// TestClusterMigrateImportStartsClean: a key left in an unowned slot on
// the target — what a failed import whose abort could not wipe it
// leaves behind — must not survive the next import of that slot from a
// source that lacks it. The transfer's Begin wipes the slot first, as a
// follower's Begin wipes everything.
func TestClusterMigrateImportStartsClean(t *testing.T) {
	src := startServer(t, WithClusterSlots("all"))
	dst := startServer(t, WithClusterSlots("none"))
	keys := keysInSlot(7, 2)
	stale, kept := keys[0], keys[1]

	ap := &replApplier{s: dst, cs: dst.newConnState()}
	if err := ap.Apply([]repl.Op{{Key: stale, Val: 666}, {List: true, Key: stale, Val: 667}}, nil, 0); err != nil {
		t.Fatalf("plant stale key: %v", err)
	}
	c := dial(t, src.Addr().String())
	if got := c.cmd(t, "set %d 1", kept); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	if got := c.cmd(t, "migrate 7 %s", dst.Addr()); !strings.HasPrefix(got, "OK MIGRATED 7 ") {
		t.Fatalf("migrate: %q", got)
	}
	d := dial(t, dst.Addr().String())
	for cmd, want := range map[string]string{
		fmt.Sprintf("get %d", stale):  "NOT_FOUND",
		fmt.Sprintf("zget %d", stale): "NOT_FOUND",
		fmt.Sprintf("get %d", kept):   fmt.Sprintf("VALUE %d 1", kept),
	} {
		if got := d.cmd(t, "%s", cmd); got != want {
			t.Fatalf("%s on target after import = %q, want %q", cmd, got, want)
		}
	}
	if err := dst.VerifyAll(); err != nil {
		t.Fatalf("target verify: %v", err)
	}
}

// splitFrames cuts a recorded replication stream at its length
// prefixes.
func splitFrames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			t.Fatalf("stream ends inside a length prefix")
		}
		n := 4 + int(binary.LittleEndian.Uint32(b))
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// awaitNoImport polls the node's `cluster` report until no slot is
// importing — the import it was running has committed or aborted — and
// returns the report.
func awaitNoImport(t *testing.T, c *client) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		out := strings.Join(c.lines(t, "cluster"), "\n")
		if !strings.Contains(out, "IMPORTING") {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("import never finished:\n%s", out)
		}
	}
}

// TestClusterMigrateFrameCutSweep plays the source of a migration by
// hand and cuts the stream after every frame: acceptslot, the first k
// frames of a stream built with the shared writer from the source's
// own state transfer, then close. Every cut must leave the target's
// slot unowned, empty and verifiable, and open to the next acceptslot;
// only the whole stream commits, with exactly the source's contents
// plus the suffix group, and the dedup record that rode along.
func TestClusterMigrateFrameCutSweep(t *testing.T) {
	src := startServer(t, WithClusterSlots("all"))
	dst := startServer(t, WithClusterSlots("none"))
	slot := cluster.SlotOf(4242)
	keep := inSlot(slot)
	keys := keysInSlot(slot, 6)
	c := dial(t, src.Addr().String())
	for i, k := range keys {
		c.cmd(t, "set %d %d", k, 100+i)
	}
	c.cmd(t, "zadd %d 5", keys[0])
	c.cmd(t, "set %d 1", keyOutsideSlot(slot))
	sess := dial(t, src.Addr().String())
	sess.cmd(t, "session 9")
	if got := sess.cmd(t, "incr %d 1 seq=1", keys[1]); got != "102" {
		t.Fatalf("sessioned incr: %q", got)
	}

	var stream bytes.Buffer
	w := repl.NewWriter(&stream)
	if err := w.Begin(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.streamState(keep, w.State); err != nil {
		t.Fatal(err)
	}
	w.Group(repl.Group{Seq: 1, Ops: []repl.Op{{Key: keys[2], Val: 999}, {Del: true, Key: keys[3]}}})
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	want := keyspace(src, keep)
	want[fmt.Sprintf("false/%d", keys[2])] = 999
	delete(want, fmt.Sprintf("false/%d", keys[3]))
	frames := splitFrames(t, stream.Bytes())

	info := dial(t, dst.Addr().String())
	for k := 0; k <= len(frames); k++ {
		conn, err := net.Dial("tcp", dst.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		fmt.Fprintf(conn, "acceptslot %d\r\n", slot)
		br := bufio.NewReader(conn)
		if line, err := br.ReadString('\n'); err != nil || strings.TrimSpace(line) != fmt.Sprintf("OK ACCEPT %d", slot) {
			t.Fatalf("cut %d: acceptslot = %q, %v", k, line, err)
		}
		for _, f := range frames[:k] {
			if _, err := conn.Write(f); err != nil {
				t.Fatalf("cut %d: write: %v", k, err)
			}
		}
		if k == len(frames) {
			ack, err := repl.NewReader(br).Next()
			conn.Close()
			if err != nil || ack.Frame != repl.FrameAck {
				t.Fatalf("whole stream: ack = %+v, %v", ack, err)
			}
			break
		}
		conn.Close()
		if out := awaitNoImport(t, info); strings.Contains(out, "SLOTS") {
			t.Fatalf("cut after %d of %d frames: slot owned:\n%s", k, len(frames), out)
		}
		if ks := keyspace(dst, keep); len(ks) != 0 {
			t.Fatalf("cut after %d of %d frames: slot holds %v", k, len(frames), ks)
		}
		if err := dst.VerifyAll(); err != nil {
			t.Fatalf("cut after %d of %d frames: verify: %v", k, len(frames), err)
		}
	}

	if out := awaitNoImport(t, info); !strings.Contains(out, fmt.Sprintf("SLOTS %d self", slot)) {
		t.Fatalf("whole stream: slot not owned:\n%s", out)
	}
	if got := keyspace(dst, keep); !reflect.DeepEqual(got, want) {
		t.Fatalf("whole stream: target holds %v, want %v", got, want)
	}
	dsess := dial(t, dst.Addr().String())
	dsess.cmd(t, "session 9")
	if got := dsess.cmd(t, "incr %d 1 seq=1", keys[1]); got != "102" {
		t.Fatalf("replay on target: %q, want the recorded 102", got)
	}
	if err := dst.VerifyAll(); err != nil {
		t.Fatalf("target verify: %v", err)
	}
}

// TestClusterMigrateEqualsFollowerSnapshot is the differential: a
// migration is a follower's state transfer filtered to one slot, so a
// follower bootstrapped from a cluster node and that node's migration
// target must hold the same keys and dedup records in the slot, and
// both must answer a replayed sessioned incr with the recorded ack.
func TestClusterMigrateEqualsFollowerSnapshot(t *testing.T) {
	node := startServer(t, WithClusterSlots("all"), WithReplListen("127.0.0.1:0"), WithShards(2))
	slot := cluster.SlotOf(777)
	keep := inSlot(slot)
	keys := keysInSlot(slot, 12)
	c := dial(t, node.Addr().String())
	for i, k := range keys {
		c.cmd(t, "set %d %d", k, 10*i+1)
		if i%3 == 0 {
			c.cmd(t, "zadd %d %d", k, i)
		}
	}
	c.cmd(t, "set %d 5", keyOutsideSlot(slot))
	sess := dial(t, node.Addr().String())
	sess.cmd(t, "session 31")
	recorded := sess.cmd(t, "incr %d 7 seq=1", keys[4])
	if recorded != "48" {
		t.Fatalf("sessioned incr: %q", recorded)
	}

	follower := startServer(t, WithReplicaOf(node.ReplAddr().String()), WithShards(3))
	want := keyspace(node, keep)
	waitReplFor(t, "follower bootstrap", func() bool {
		return reflect.DeepEqual(keyspace(follower, keep), want)
	})
	dst := startServer(t, WithClusterSlots("none"))
	if got := c.cmd(t, "migrate %d %s", slot, dst.Addr()); !strings.HasPrefix(got, "OK MIGRATED") {
		t.Fatalf("migrate: %q", got)
	}

	if f, d := keyspace(follower, keep), keyspace(dst, keep); !reflect.DeepEqual(f, d) {
		t.Fatalf("slot %d: follower holds %v, migration target %v", slot, f, d)
	}
	if f, d := marksIn(follower, keep), marksIn(dst, keep); !reflect.DeepEqual(f, d) || len(d) != 1 {
		t.Fatalf("slot %d dedup records: follower %v, migration target %v", slot, f, d)
	}
	fc := dial(t, follower.Addr().String())
	if got := fc.cmd(t, "promote"); got != "OK PROMOTED" {
		t.Fatalf("promote: %q", got)
	}
	for name, s := range map[string]*Server{"follower": follower, "target": dst} {
		r := dial(t, s.Addr().String())
		r.cmd(t, "session 31")
		if got := r.cmd(t, "incr %d 7 seq=1", keys[4]); got != recorded {
			t.Fatalf("replay on %s: %q, want the recorded %q", name, got, recorded)
		}
	}
}

// TestClusterMigrateAbortReturnsError: an import cut inside a frame
// returns the stream's error instead of dropping it, and still leaves
// the slot unowned and empty.
func TestClusterMigrateAbortReturnsError(t *testing.T) {
	dst := startServer(t, WithClusterSlots("none"))
	slot := 7
	var stream bytes.Buffer
	w := repl.NewWriter(&stream)
	w.Begin(1, 0)
	w.State([]repl.Op{{Key: keysInSlot(slot, 1)[0], Val: 1}}, nil, 0)
	w.Group(repl.Group{Seq: 1, Ops: []repl.Op{{Key: keysInSlot(slot, 2)[1], Val: 2}}})
	w.Flush()

	dst.clusterSt.state[slot].Store(slotImporting)
	srv, cli := net.Pipe()
	go func() {
		cli.Write(stream.Bytes()[:stream.Len()-3])
		cli.Close()
	}()
	err := dst.serveImport(srv, proto.NewDecoder(strings.NewReader(""), proto.Native{}, 0), slot)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("serveImport on a cut stream = %v, want io.ErrUnexpectedEOF", err)
	}
	if st := dst.clusterSt.state[slot].Load(); st != slotUnowned {
		t.Fatalf("slot state after abort = %d, want unowned", st)
	}
	if ks := keyspace(dst, inSlot(slot)); len(ks) != 0 {
		t.Fatalf("slot holds %v after abort", ks)
	}
}
