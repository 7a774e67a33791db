package cacheserver

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsp/internal/cluster"
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
