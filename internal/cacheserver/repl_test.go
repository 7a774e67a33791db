package cacheserver

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// startReplPair boots a primary (replication listener on an ephemeral
// port) and a follower replicating from it, both with small stacks.
func startReplPair(t *testing.T, extra ...Option) (primary, follower *Server) {
	t.Helper()
	popts := append([]Option{
		WithReplListen("127.0.0.1:0"),
		WithShards(2),
		WithDeviceWords(1 << 16),
	}, extra...)
	primary = startServer(t, popts...)
	follower = startServer(t,
		WithReplicaOf(primary.ReplAddr().String()),
		WithShards(2),
		WithDeviceWords(1<<16),
	)
	return primary, follower
}

// waitReplFor polls until cond holds or the deadline passes.
func waitReplFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// mgetLines fetches keys [0,n) and returns the VALUE/NOT_FOUND lines.
func mgetLines(t *testing.T, c *client, n int) []string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("mget")
	for i := 0; i < n; i++ {
		sb.WriteString(" ")
		sb.WriteString(itoa(i))
	}
	return c.lines(t, "%s", sb.String())
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// statValue extracts one STAT field from a stats response.
func replStat(lines []string, key string) (string, bool) {
	prefix := "STAT " + key + " "
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return strings.TrimPrefix(l, prefix), true
		}
	}
	return "", false
}

// sameLines compares the mget views of two servers over the wire.
func converged(t *testing.T, pc, fc *client, n int) bool {
	t.Helper()
	p := mgetLines(t, pc, n)
	f := mgetLines(t, fc, n)
	if len(p) != len(f) {
		return false
	}
	for i := range p {
		if p[i] != f[i] {
			return false
		}
	}
	return true
}

// TestReplicationStreamToFollower loads a primary, checks the follower
// converges to the same wire-visible contents, that the follower
// rejects mutations while replicating, and that promote lifts the gate.
func TestReplicationStreamToFollower(t *testing.T) {
	primary, follower := startReplPair(t)
	pc := dial(t, primary.Addr().String())
	fc := dial(t, follower.Addr().String())

	const n = 64
	for i := 0; i < n; i++ {
		if got := pc.cmd(t, "set %d %d", i, i*7); got != "STORED" {
			t.Fatalf("set %d: %q", i, got)
		}
	}
	// Mix in the other mutation kinds: resolved increments and deletes
	// must replicate as their effects.
	if got := pc.cmd(t, "incr 3 1000"); got != "1021" {
		t.Fatalf("incr: %q", got)
	}
	if got := pc.cmd(t, "delete 5"); got != "DELETED" {
		t.Fatalf("delete: %q", got)
	}

	waitReplFor(t, "follower convergence", func() bool {
		return converged(t, pc, fc, n)
	})

	// Read-only gate: every mutation class is rejected, reads serve.
	for _, cmd := range []string{"set 1 2", "incr 1 1", "delete 1", "mset 1 2", "crash"} {
		if got := fc.cmd(t, "%s", cmd); !strings.HasPrefix(got, "SERVER_ERROR read-only") {
			t.Fatalf("follower %q = %q, want read-only rejection", cmd, got)
		}
	}
	if got := fc.cmd(t, "get 3"); got != "VALUE 3 1021" {
		t.Fatalf("follower get 3 = %q", got)
	}

	// Primary stats carry the replication surface.
	stats := pc.lines(t, "stats")
	if v, ok := replStat(stats, "repl_role_primary"); !ok || v != "1" {
		t.Fatalf("repl_role_primary = %q ok=%v", v, ok)
	}
	if v, ok := replStat(stats, "repl_followers"); !ok || v != "1" {
		t.Fatalf("repl_followers = %q ok=%v", v, ok)
	}
	waitReplFor(t, "lag samples in primary stats", func() bool {
		v, ok := replStat(pc.lines(t, "stats"), "repl_lag_count")
		return ok && v != "0"
	})

	// Promote: a second promote is idempotent, mutations open up, and
	// the promoted copy is crash-survivable like any server.
	if got := fc.cmd(t, "promote"); got != "OK PROMOTED" {
		t.Fatalf("promote: %q", got)
	}
	if got := fc.cmd(t, "promote"); got != "OK PROMOTED" {
		t.Fatalf("second promote: %q", got)
	}
	if got := fc.cmd(t, "set 500 1"); got != "STORED" {
		t.Fatalf("post-promote set: %q", got)
	}
	if got := fc.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED EPOCH ") {
		t.Fatalf("post-promote crash: %q", got)
	}
	if got := fc.cmd(t, "get 3"); got != "VALUE 3 1021" {
		t.Fatalf("post-promote get 3 = %q", got)
	}
	fstats := fc.lines(t, "stats")
	if v, ok := replStat(fstats, "repl_role_promoted"); !ok || v != "1" {
		t.Fatalf("follower repl_role_promoted = %q ok=%v", v, ok)
	}
}

// TestReplicationLateFollowerBootstraps starts the follower only after
// the primary holds data: the whole state must arrive via snapshot.
func TestReplicationLateFollowerBootstraps(t *testing.T) {
	primary := startServer(t,
		WithReplListen("127.0.0.1:0"),
		WithShards(2),
		WithDeviceWords(1<<16),
	)
	pc := dial(t, primary.Addr().String())
	const n = 48
	for i := 0; i < n; i++ {
		pc.cmd(t, "set %d %d", i, i+1)
	}

	follower := startServer(t,
		WithReplicaOf(primary.ReplAddr().String()),
		WithShards(4), // shard counts may differ: routing is by key
		WithDeviceWords(1<<16),
	)
	fc := dial(t, follower.Addr().String())
	waitReplFor(t, "late follower convergence", func() bool {
		return converged(t, pc, fc, n)
	})
	fstats := fc.lines(t, "stats")
	if v, ok := replStat(fstats, "repl_snapshots_loaded"); !ok || v == "0" {
		t.Fatalf("repl_snapshots_loaded = %q ok=%v, want >= 1", v, ok)
	}
}

// TestReplicationConvergesAcrossPrimaryCrash crashes the primary's
// shards mid-replication: the log generation bumps, the connected
// follower is re-seeded with a snapshot, and the copies converge on
// the post-crash state.
func TestReplicationConvergesAcrossPrimaryCrash(t *testing.T) {
	primary, follower := startReplPair(t)
	pc := dial(t, primary.Addr().String())
	fc := dial(t, follower.Addr().String())

	const n = 32
	for i := 0; i < n; i++ {
		pc.cmd(t, "set %d %d", i, i)
	}
	waitReplFor(t, "pre-crash convergence", func() bool {
		return converged(t, pc, fc, n)
	})

	if got := pc.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED EPOCH ") {
		t.Fatalf("crash: %q", got)
	}
	// Post-crash mutations land on a new log generation.
	for i := 0; i < n; i++ {
		pc.cmd(t, "set %d %d", i, i+9000)
	}
	waitReplFor(t, "post-crash convergence", func() bool {
		return converged(t, pc, fc, n)
	})
	stats := pc.lines(t, "stats")
	if v, ok := replStat(stats, "repl_snapshots"); !ok || v == "0" || v == "1" {
		t.Fatalf("repl_snapshots = %q ok=%v, want >= 2 (initial + post-crash reseed)", v, ok)
	}
}

// TestReplicationRejectsDualRole checks the config guard.
func TestReplicationRejectsDualRole(t *testing.T) {
	_, err := New(WithReplListen("127.0.0.1:0"), WithReplicaOf("127.0.0.1:1"))
	if err == nil {
		t.Fatal("dual-role config was accepted")
	}
}

// TestRelaxedWaitThenWaitReplCoversFollower: the documented recipe for a
// relaxed writer that needs follower coverage — `wait`, then `wait
// repl` — leaves every relaxed write readable on the follower the moment
// both return, with no polling. The drain reaches the log at its commit,
// before `wait` is answered, so the replication barrier's log position
// covers it.
func TestRelaxedWaitThenWaitReplCoversFollower(t *testing.T) {
	const rounds, keys = 20, 500
	p, f := startReplPair(t, WithEpochInterval(time.Hour))
	waitReplFor(t, "the follower's initial sync", func() bool {
		gen, _ := f.replFollower.Position()
		return gen != 0
	})
	pc, fc := dial(t, p.Addr().String()), dial(t, f.Addr().String())
	for r := 1; r <= rounds; r++ {
		pc.pipe(t, relaxedBurst(1, keys, r), keys)
		if got := pc.cmd(t, "wait"); strings.Contains(got, "ERROR") {
			t.Fatalf("round %d: wait: %q", r, got)
		}
		if got := pc.cmd(t, "wait repl 2000"); got != "1" {
			t.Fatalf("round %d: wait repl: %q, want 1 follower", r, got)
		}
		for i, line := range fc.pipe(t, getBurst(1, keys), keys) {
			if want := fmt.Sprintf("VALUE %d %d", i+1, r); line != want {
				t.Fatalf("round %d: follower read %q, want %q", r, line, want)
			}
		}
	}
}

// TestPromoteRacingDrainFindsItWholeOrAbsent: a follower promoted while
// its primary drains an epoch holds each shard's drain whole or not at
// all — the drain replicates as one group per shard, and a follower
// applies a group before it stops.
func TestPromoteRacingDrainFindsItWholeOrAbsent(t *testing.T) {
	const trials, keys = 5, 400
	for trial := 0; trial < trials; trial++ {
		p, f := startReplPair(t, WithEpochInterval(time.Hour))
		waitReplFor(t, "the follower's initial sync", func() bool {
			gen, _ := f.replFollower.Position()
			return gen != 0
		})
		pc, fc := dial(t, p.Addr().String()), dial(t, f.Addr().String())
		pc.pipe(t, relaxedBurst(1, keys, 1), keys)
		pc.cmd(t, "wait")
		if got := pc.cmd(t, "wait repl 2000"); got != "1" {
			t.Fatalf("trial %d: wait repl: %q", trial, got)
		}
		pc.pipe(t, relaxedBurst(1, keys, 2), keys)
		pc.send(t, "wait")
		waitFor(t, 10*time.Second, "the drain to start", func() bool {
			return p.shards[0].ovl.size.Load()+p.shards[1].ovl.size.Load() < keys
		})
		if got := fc.cmd(t, "promote"); got != "OK PROMOTED" {
			t.Fatalf("trial %d: promote: %q", trial, got)
		}
		pc.line(t)
		seen := make([]map[string]int, len(f.shards))
		for i := range seen {
			seen[i] = map[string]int{}
		}
		for i, line := range fc.pipe(t, getBurst(1, keys), keys) {
			fields := strings.Fields(line)
			seen[f.shardOf(uint64(i+1)).idx][fields[len(fields)-1]]++
		}
		for i, vals := range seen {
			if len(vals) != 1 {
				t.Fatalf("trial %d: follower shard %d holds a torn drain: %v", trial, i, vals)
			}
		}
	}
}
