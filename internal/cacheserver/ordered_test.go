package cacheserver

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// Tests for the ordered keyspace served from the persistent skip list:
// wire round-trips in both adapters, lock-free zrange concurrent with
// batched zadd writes, crash survivability, replication to a follower,
// and the zero-Atlas-involvement property of the ordered read path.

func TestOrderedCommandsOverTCP(t *testing.T) {
	s := startServer(t, WithShards(4))
	c := dial(t, s.Addr().String())

	if got := c.cmd(t, "zadd 10 100"); got != "STORED" {
		t.Fatalf("zadd: %q", got)
	}
	if got := c.cmd(t, "zadd 20 200"); got != "STORED" {
		t.Fatalf("zadd: %q", got)
	}
	if got := c.cmd(t, "zget 10"); got != "VALUE 10 100" {
		t.Fatalf("zget: %q", got)
	}
	if got := c.cmd(t, "zget 15"); got != "NOT_FOUND" {
		t.Fatalf("zget missing: %q", got)
	}
	if got := c.cmd(t, "zincr 10 5"); got != "105" {
		t.Fatalf("zincr: %q", got)
	}
	if got := c.cmd(t, "zincr 30 7"); got != "7" {
		t.Fatalf("zincr absent: %q", got)
	}
	if got := c.lines(t, "zrange 0 100"); strings.Join(got, ",") !=
		"VALUE 10 105,VALUE 20 200,VALUE 30 7,END" {
		t.Fatalf("zrange: %v", got)
	}
	if got := c.lines(t, "zrange 0 100 2"); strings.Join(got, ",") !=
		"VALUE 10 105,VALUE 20 200,END" {
		t.Fatalf("zrange limit: %v", got)
	}
	// Half-open interval: hi is excluded.
	if got := c.lines(t, "zrange 10 20"); strings.Join(got, ",") != "VALUE 10 105,END" {
		t.Fatalf("zrange half-open: %v", got)
	}
	if got := c.cmd(t, "zcount 0 100"); got != "3" {
		t.Fatalf("zcount: %q", got)
	}
	if got := c.cmd(t, "zdel 20"); got != "DELETED" {
		t.Fatalf("zdel: %q", got)
	}
	if got := c.cmd(t, "zdel 20"); got != "NOT_FOUND" {
		t.Fatalf("zdel again: %q", got)
	}
	if got := c.cmd(t, "zcount 0 100"); got != "2" {
		t.Fatalf("zcount after zdel: %q", got)
	}
	// The ordered and unordered keyspaces are separate: a map set does
	// not shadow a skip-list key and vice versa.
	if got := c.cmd(t, "set 10 999"); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	if got := c.cmd(t, "zget 10"); got != "VALUE 10 105" {
		t.Fatalf("zget after set: %q", got)
	}
	for _, bad := range []string{
		"zadd 1", "zadd a b", "zget", "zincr 1", "zdel",
		"zrange 1", "zrange a b", "zrange 1 2 x", "zcount 1",
	} {
		if got := c.cmd(t, "%s", bad); !strings.HasPrefix(got, "CLIENT_ERROR") {
			t.Errorf("%q -> %q, want CLIENT_ERROR", bad, got)
		}
	}
}

func TestOrderedRESPOverTCP(t *testing.T) {
	s := startServer(t, WithShards(2))
	c := dialRESP(t, s.Addr().String())

	if got := c.cmd(t, "ZADD", "10", "100"); got != "+OK" {
		t.Fatalf("ZADD: %q", got)
	}
	if got := c.cmd(t, "ZADD", "20", "200"); got != "+OK" {
		t.Fatalf("ZADD: %q", got)
	}
	if got := c.cmd(t, "ZGET", "10"); got != "$ 100" {
		t.Fatalf("ZGET: %q", got)
	}
	if got := c.cmd(t, "ZGET", "15"); got != "(nil)" {
		t.Fatalf("ZGET missing: %q", got)
	}
	if got := c.cmd(t, "ZINCR", "10", "5"); got != ":105" {
		t.Fatalf("ZINCR: %q", got)
	}
	if got := c.cmd(t, "ZRANGE", "0", "100"); got != "$ 10|$ 105|$ 20|$ 200" {
		t.Fatalf("ZRANGE: %q", got)
	}
	if got := c.cmd(t, "ZRANGE", "0", "100", "1"); got != "$ 10|$ 105" {
		t.Fatalf("ZRANGE limit: %q", got)
	}
	if got := c.cmd(t, "ZCOUNT", "0", "100"); got != ":2" {
		t.Fatalf("ZCOUNT: %q", got)
	}
	if got := c.cmd(t, "ZDEL", "20"); got != ":1" {
		t.Fatalf("ZDEL: %q", got)
	}
	if got := c.cmd(t, "ZDEL", "20"); got != ":0" {
		t.Fatalf("ZDEL again: %q", got)
	}
	// Crash survivability over RESP: the skip list recovers with the map.
	if got := c.cmd(t, "CRASH"); !strings.HasPrefix(got, "$ OK RECOVERED EPOCH ") {
		t.Fatalf("CRASH: %q", got)
	}
	if got := c.cmd(t, "ZGET", "10"); got != "$ 105" {
		t.Fatalf("ZGET after crash: %q", got)
	}
	if got := c.cmd(t, "ZRANGE", "lo", "hi"); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("ZRANGE text bounds: %q", got)
	}
}

// TestZGetsCountedOncePerRequest: server_zgets counts requests, not the
// shards a request visits — a zrange or zcount fans out to every shard
// but is one request, like a zget.
func TestZGetsCountedOncePerRequest(t *testing.T) {
	s := startServer(t, WithShards(4))
	c := dial(t, s.Addr().String())
	for k := 1; k <= 8; k++ {
		if got := c.cmd(t, "zadd %d %d", k, k); got != "STORED" {
			t.Fatalf("zadd: %q", got)
		}
	}
	before := statValue(t, c.lines(t, "stats"), "server_zgets")
	c.lines(t, "zrange 0 100")
	if got := c.cmd(t, "zcount 0 100"); got != "8" {
		t.Fatalf("zcount: %q", got)
	}
	if got := statValue(t, c.lines(t, "stats"), "server_zgets") - before; got != 2 {
		t.Fatalf("server_zgets moved by %d for one zrange and one zcount on 4 shards, want 2", got)
	}
}

// parseRange turns zrange VALUE lines into key/val pairs, asserting the
// trailing END.
func parseRange(t *testing.T, lines []string) (keys, vals []uint64) {
	t.Helper()
	if len(lines) == 0 || lines[len(lines)-1] != "END" {
		t.Fatalf("zrange reply not END-terminated: %v", lines)
	}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 3 || f[0] != "VALUE" {
			t.Fatalf("bad zrange line %q", l)
		}
		k, err1 := strconv.ParseUint(f[1], 10, 64)
		v, err2 := strconv.ParseUint(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad zrange line %q", l)
		}
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals
}

// TestZRangeDuringZAddLockFree is the acceptance test for the ordered
// read path: zrange runs concurrently with a stream of batched zadd
// writes and must always observe a sorted, consistent prefix-free view
// (every returned pair is a value some zadd actually wrote, keys
// strictly ascending). Afterwards the server crash-recovers and the
// full ordered view must survive intact.
func TestZRangeDuringZAddLockFree(t *testing.T) {
	const n = 2000
	s := startServer(t, WithShards(4))
	addr := s.Addr().String()

	var acked atomic.Uint64
	errCh := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			errCh <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		const burst = 64
		for base := 0; base < n; base += burst {
			var b strings.Builder
			lim := base + burst
			if lim > n {
				lim = n
			}
			for k := base; k < lim; k++ {
				fmt.Fprintf(&b, "zadd %d %d\r\n", k, 2*k+1)
			}
			if _, err := conn.Write([]byte(b.String())); err != nil {
				errCh <- err
				return
			}
			for k := base; k < lim; k++ {
				line, err := r.ReadString('\n')
				if err != nil {
					errCh <- err
					return
				}
				if strings.TrimSpace(line) != "STORED" {
					errCh <- fmt.Errorf("zadd %d: %q", k, line)
					return
				}
				acked.Add(1)
			}
		}
	}()

	// Concurrent scans: never block on the writer, always sorted, every
	// value the one its zadd wrote.
	c := dial(t, addr)
	scans := 0
	for {
		keys, vals := parseRange(t, c.lines(t, "zrange 0 %d", n))
		for i := range keys {
			if i > 0 && keys[i] <= keys[i-1] {
				t.Fatalf("scan %d out of order: %d after %d", scans, keys[i], keys[i-1])
			}
			if vals[i] != 2*keys[i]+1 {
				t.Fatalf("scan %d: key %d has value %d, want %d", scans, keys[i], vals[i], 2*keys[i]+1)
			}
		}
		scans++
		if writerDone(done) {
			break
		}
	}
	select {
	case err := <-errCh:
		t.Fatalf("writer: %v", err)
	default:
	}
	if acked.Load() != n {
		t.Fatalf("writer acked %d of %d", acked.Load(), n)
	}

	check := func(when string) {
		t.Helper()
		keys, vals := parseRange(t, c.lines(t, "zrange 0 %d", n))
		if len(keys) != n {
			t.Fatalf("%s: zrange has %d keys, want %d", when, len(keys), n)
		}
		for i := range keys {
			if keys[i] != uint64(i) || vals[i] != uint64(2*i+1) {
				t.Fatalf("%s: entry %d = (%d,%d), want (%d,%d)", when, i, keys[i], vals[i], i, 2*i+1)
			}
		}
		if got := c.cmd(t, "zcount 0 %d", n); got != itoa(n) {
			t.Fatalf("%s: zcount = %q, want %d", when, got, n)
		}
	}
	check("after writer")

	// Crash and recover: every acked zadd was persistent at its CAS, so
	// the whole ordered keyspace must come back.
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED EPOCH ") {
		t.Fatalf("crash: %q", got)
	}
	check("after crash")
}

func writerDone(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// TestOrderedReplication checks z mutations replicate in commit order
// and the follower serves the ordered read commands while read-only.
func TestOrderedReplication(t *testing.T) {
	primary, follower := startReplPair(t)
	pc := dial(t, primary.Addr().String())
	fc := dial(t, follower.Addr().String())

	const n = 48
	for i := 0; i < n; i++ {
		if got := pc.cmd(t, "zadd %d %d", i, i*10); got != "STORED" {
			t.Fatalf("zadd %d: %q", i, got)
		}
	}
	// The other mutation kinds replicate as resolved effects.
	if got := pc.cmd(t, "zincr 3 1"); got != "31" {
		t.Fatalf("zincr: %q", got)
	}
	if got := pc.cmd(t, "zdel 5"); got != "DELETED" {
		t.Fatalf("zdel: %q", got)
	}

	waitReplFor(t, "ordered convergence", func() bool {
		return fc.cmd(t, "zcount 0 %d", n) == itoa(n-1) &&
			fc.cmd(t, "zget 3") == "VALUE 3 31"
	})

	// The follower's ordered view matches the primary's, entry by entry.
	pk, pv := parseRange(t, pc.lines(t, "zrange 0 %d", n))
	fk, fv := parseRange(t, fc.lines(t, "zrange 0 %d", n))
	if len(pk) != len(fk) || len(pk) != n-1 {
		t.Fatalf("range lengths: primary %d follower %d, want %d", len(pk), len(fk), n-1)
	}
	for i := range pk {
		if pk[i] != fk[i] || pv[i] != fv[i] {
			t.Fatalf("entry %d: primary (%d,%d) follower (%d,%d)", i, pk[i], pv[i], fk[i], fv[i])
		}
	}

	// Read-only gate: ordered mutations rejected, ordered reads served.
	for _, cmd := range []string{"zadd 1 2", "zincr 1 1", "zdel 1"} {
		if got := fc.cmd(t, "%s", cmd); !strings.HasPrefix(got, "SERVER_ERROR read-only") {
			t.Fatalf("follower %q = %q, want read-only rejection", cmd, got)
		}
	}

	// A follower crash must recover the replicated skip list too.
	if got := fc.cmd(t, "promote"); got != "OK PROMOTED" {
		t.Fatalf("promote: %q", got)
	}
	if got := fc.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED EPOCH ") {
		t.Fatalf("crash: %q", got)
	}
	if got := fc.cmd(t, "zget 3"); got != "VALUE 3 31" {
		t.Fatalf("post-crash zget: %q", got)
	}
	if got := fc.cmd(t, "zcount 0 %d", n); got != itoa(n-1) {
		t.Fatalf("post-crash zcount: %q", got)
	}
}

// atlasTotals sums the Atlas write-machinery counters across shards.
func atlasTotals(s *Server) (ocs, appends uint64) {
	for _, sh := range s.shards {
		c := sh.tel.Counters()
		ocs += c["atlas_ocs_commits"]
		appends += c["atlas_log_appends"]
	}
	return ocs, appends
}

// TestOrderedReadsTakeNoAtlasSection pins the zero-crash-consistency-
// measures property from the paper's Section 4.1: a pure stream of
// ordered reads must not open a single Atlas critical section or append
// a single undo record — on the primary or on a replicating follower.
func TestOrderedReadsTakeNoAtlasSection(t *testing.T) {
	primary, follower := startReplPair(t)
	pc := dial(t, primary.Addr().String())
	fc := dial(t, follower.Addr().String())

	const n = 64
	for i := 0; i < n; i++ {
		if got := pc.cmd(t, "zadd %d %d", i, i); got != "STORED" {
			t.Fatalf("zadd %d: %q", i, got)
		}
	}
	waitReplFor(t, "follower has the keyspace", func() bool {
		return fc.cmd(t, "zcount 0 %d", n) == itoa(n)
	})

	for _, tc := range []struct {
		name string
		srv  *Server
		c    *client
	}{
		{"primary", primary, pc},
		{"follower", follower, fc},
	} {
		ocs0, app0 := atlasTotals(tc.srv)
		for i := 0; i < 200; i++ {
			if got := tc.c.cmd(t, "zget %d", i%n); !strings.HasPrefix(got, "VALUE") {
				t.Fatalf("%s zget: %q", tc.name, got)
			}
			tc.c.lines(t, "zrange %d %d", i%n, i%n+16)
			tc.c.cmd(t, "zcount 0 %d", n)
		}
		ocs1, app1 := atlasTotals(tc.srv)
		if ocs1 != ocs0 || app1 != app0 {
			t.Fatalf("%s: ordered reads moved Atlas counters: ocs %d->%d, log appends %d->%d",
				tc.name, ocs0, ocs1, app0, app1)
		}
	}
}
