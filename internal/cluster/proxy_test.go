package cluster_test

// End-to-end proxy tests: real cache servers as cluster nodes, a real
// Proxy in front, clients speaking both wire protocols. The external
// test package breaks the import cycle (cacheserver imports cluster
// for the slot table).

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tsp/internal/cacheserver"
	"tsp/internal/cluster"
	"tsp/internal/proto"
	"tsp/internal/telemetry"
)

// startNode boots one cluster node owning the given slots.
func startNode(t *testing.T, slots string, opts ...cacheserver.Option) *cacheserver.Server {
	t.Helper()
	s, err := cacheserver.New(append([]cacheserver.Option{
		cacheserver.WithAddr("127.0.0.1:0"),
		cacheserver.WithShards(2),
		cacheserver.WithClusterSlots(slots),
	}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

// startProxy boots a proxy over the nodes and returns it.
func startProxy(t *testing.T, nodes ...string) *cluster.Proxy {
	t.Helper()
	p, err := cluster.New(cluster.Config{Nodes: nodes, Logf: t.Logf})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// textClient is a minimal native-protocol client.
type textClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialText(t *testing.T, addr string) *textClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &textClient{conn: conn, r: bufio.NewReader(conn)}
}

func (c *textClient) cmd(t *testing.T, format string, args ...interface{}) string {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, format+"\r\n", args...); err != nil {
		t.Fatalf("write: %v", err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return strings.TrimSpace(line)
}

func (c *textClient) lines(t *testing.T, format string, args ...interface{}) []string {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, format+"\r\n", args...); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out []string
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		line = strings.TrimSpace(line)
		out = append(out, line)
		if line == "END" {
			return out
		}
	}
}

// proxyStat reads one of the proxy's counters through `stats`.
func proxyStat(t *testing.T, c *textClient, name string) uint64 {
	t.Helper()
	for _, line := range c.lines(t, "stats") {
		if v, ok := strings.CutPrefix(line, "STAT "+name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %q", name, v)
			}
			return n
		}
	}
	t.Fatalf("proxy stats carry no %s", name)
	return 0
}

// keyInSlots returns the smallest key whose slot is in [lo, hi].
func keyInSlots(lo, hi int) uint64 {
	for k := uint64(0); ; k++ {
		if s := cluster.SlotOf(k); s >= lo && s <= hi {
			return k
		}
	}
}

// twoNodeCluster splits the slot space in half across two nodes and
// fronts them with a proxy whose ring was seeded from their cluster
// replies.
func twoNodeCluster(t *testing.T) (*cacheserver.Server, *cacheserver.Server, *cluster.Proxy) {
	t.Helper()
	a := startNode(t, "0-31")
	b := startNode(t, "32-63")
	p := startProxy(t, a.Addr().String(), b.Addr().String())
	return a, b, p
}

// TestProxySeedsRingFromNodes: the slot table the proxy serves must be
// the nodes' actual ownership, not the hash layout's guess.
func TestProxySeedsRingFromNodes(t *testing.T) {
	a, b, p := twoNodeCluster(t)
	for s := 0; s < cluster.NumSlots; s++ {
		want := a.Addr().String()
		if s >= 32 {
			want = b.Addr().String()
		}
		if got := p.Ring().Owner(s); got != want {
			t.Fatalf("slot %d owner = %s, want %s", s, got, want)
		}
	}
}

// TestProxyRoutesAndMerges: the single-server command set through the
// proxy — point ops routed to the right node, multi-key ops split and
// merged back in request order, ordered-keyspace ops k-way merged.
func TestProxyRoutesAndMerges(t *testing.T) {
	_, _, p := twoNodeCluster(t)
	c := dialText(t, p.Addr())

	// Point ops across both halves of the slot space.
	for k := uint64(0); k < 64; k++ {
		if got := c.cmd(t, "set %d %d", k, k*3); got != "STORED" {
			t.Fatalf("set %d: %q", k, got)
		}
	}
	for k := uint64(0); k < 64; k++ {
		if got := c.cmd(t, "get %d", k); got != fmt.Sprintf("VALUE %d %d", k, k*3) {
			t.Fatalf("get %d: %q", k, got)
		}
	}
	if got := c.cmd(t, "incr 5 1"); got != "16" {
		t.Fatalf("incr: %q", got)
	}
	c.cmd(t, "set 5 15") // restore

	// mset/mget/delete span nodes and come back in request order.
	if got := c.cmd(t, "mset 100 1 101 2 102 3 103 4"); got != "STORED 4" {
		t.Fatalf("mset: %q", got)
	}
	out := c.lines(t, "mget 103 100 999999 102")
	want := []string{"VALUE 103 4", "VALUE 100 1", "NOT_FOUND 999999", "VALUE 102 3", "END"}
	if strings.Join(out, ",") != strings.Join(want, ",") {
		t.Fatalf("mget order: %v", out)
	}
	// Multi-key delete: one outcome line per key, request order.
	if _, err := fmt.Fprintf(c.conn, "delete 100 101 999999 103\r\n"); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"DELETED", "DELETED", "NOT_FOUND", "DELETED"} {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(line) != want {
			t.Fatalf("delete outcome %d: %q, want %q", i, line, want)
		}
	}
	if got := c.cmd(t, "delete 102"); got != "DELETED" {
		t.Fatalf("cleanup delete: %q", got)
	}

	// Ordered keyspace: zadds land on each key's owner; zrange merges
	// the nodes' disjoint ordered lists into one sorted view.
	for _, k := range []uint64{10, 20, 30, 40, 50} {
		if got := c.cmd(t, "zadd %d %d", k, k*7); got != "STORED" {
			t.Fatalf("zadd %d: %q", k, got)
		}
	}
	out = c.lines(t, "zrange 0 1000")
	want = []string{"VALUE 10 70", "VALUE 20 140", "VALUE 30 210", "VALUE 40 280", "VALUE 50 350", "END"}
	if strings.Join(out, ",") != strings.Join(want, ",") {
		t.Fatalf("zrange merge: %v", out)
	}
	out = c.lines(t, "zrange 0 1000 3")
	if len(out) != 4 { // 3 values + END
		t.Fatalf("zrange limit: %v", out)
	}
	if got := c.cmd(t, "zcount 0 1000"); got != "5" {
		t.Fatalf("zcount sum: %q", got)
	}

	// wait broadcasts to every node and reports the minimum frontier.
	if got := c.cmd(t, "set 7 700 relaxed"); !strings.HasPrefix(got, "STORED") {
		t.Fatalf("relaxed set: %q", got)
	}
	if got := c.cmd(t, "wait"); func() bool { _, err := strconv.Atoi(got); return err != nil }() {
		t.Fatalf("wait through proxy: %q", got)
	}

	// ping and stats answer from the proxy itself.
	if got := c.cmd(t, "ping"); got != "PONG" {
		t.Fatalf("ping: %q", got)
	}
	stats := strings.Join(c.lines(t, "stats"), "\n")
	for _, name := range []string{"route_requests", "route_forwards", "route_fanouts", "ring_epoch"} {
		if !strings.Contains(stats, "STAT "+name) {
			t.Fatalf("proxy stats missing %s:\n%s", name, stats)
		}
	}
	table := strings.Join(c.lines(t, "cluster"), "\n")
	if !strings.Contains(table, "SLOTS") {
		t.Fatalf("cluster table through proxy:\n%s", table)
	}

	// Node-only admin verbs are refused, not forwarded.
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("crash through proxy: %q", got)
	}
}

// TestProxySessionForwarding: a frontend session binding rides the
// shared backend connections, so detectable ops dedup on the owning
// node — including after the proxy interleaves other sessions.
func TestProxySessionForwarding(t *testing.T) {
	_, _, p := twoNodeCluster(t)
	c1 := dialText(t, p.Addr())
	c2 := dialText(t, p.Addr())

	if got := c1.cmd(t, "session 7"); got != "OK SESSION 7" {
		t.Fatalf("session: %q", got)
	}
	if got := c2.cmd(t, "session 8"); got != "OK SESSION 8" {
		t.Fatalf("session: %q", got)
	}
	if got := c1.cmd(t, "incr 1000 5 seq=1"); got != "5" {
		t.Fatalf("sessioned incr: %q", got)
	}
	// Another session touches the same node in between.
	if got := c2.cmd(t, "incr 1000 7 seq=1"); got != "12" {
		t.Fatalf("second session incr: %q", got)
	}
	// Retry of session 7 seq=1: replayed, not re-applied.
	if got := c1.cmd(t, "incr 1000 5 seq=1"); got != "5" {
		t.Fatalf("replay: %q", got)
	}
	if got := c1.cmd(t, "get 1000"); got != "VALUE 1000 12" {
		t.Fatalf("value after replays: %q", got)
	}
	// seq without a session is refused at the proxy.
	c3 := dialText(t, p.Addr())
	if got := c3.cmd(t, "incr 1 1 seq=1"); !strings.HasPrefix(got, "CLIENT_ERROR seq requires a session") {
		t.Fatalf("sessionless seq: %q", got)
	}
}

// TestProxyFollowsMigration: a migrate issued through the proxy moves
// the slot AND the proxy's own ring; traffic follows without errors.
func TestProxyFollowsMigration(t *testing.T) {
	a, b, p := twoNodeCluster(t)
	c := dialText(t, p.Addr())

	key := keyInSlots(0, 31) // a key node a owns
	slot := cluster.SlotOf(key)
	if got := c.cmd(t, "set %d 4242", key); got != "STORED" {
		t.Fatalf("set: %q", got)
	}

	epoch0 := p.Ring().Epoch()
	got := c.cmd(t, "migrate %d %s", slot, b.Addr().String())
	if !strings.HasPrefix(got, "OK MIGRATED") {
		t.Fatalf("migrate through proxy: %q", got)
	}
	if p.Ring().Owner(slot) != b.Addr().String() {
		t.Fatalf("proxy ring not updated: slot %d -> %s", slot, p.Ring().Owner(slot))
	}
	if p.Ring().Epoch() == epoch0 {
		t.Fatal("ring epoch did not advance on migration")
	}
	// Traffic keeps flowing to the new owner, same frontend connection.
	if got := c.cmd(t, "get %d", key); got != fmt.Sprintf("VALUE %d 4242", key) {
		t.Fatalf("get after migration: %q", got)
	}
	if got := c.cmd(t, "set %d 4343", key); got != "STORED" {
		t.Fatalf("set after migration: %q", got)
	}

	// A second proxy seeded AFTER the move learns the new table.
	p2 := startProxy(t, a.Addr().String(), b.Addr().String())
	if p2.Ring().Owner(slot) != b.Addr().String() {
		t.Fatalf("fresh proxy seeded stale owner for slot %d", slot)
	}
}

// TestProxyFollowsRedirects: a proxy whose ring went stale (the move
// happened behind its back) follows the MOVED redirect, refreshes its
// ring, and still answers the client correctly.
func TestProxyFollowsRedirects(t *testing.T) {
	a, b, p := twoNodeCluster(t)
	c := dialText(t, p.Addr())

	key := keyInSlots(0, 31)
	slot := cluster.SlotOf(key)
	if got := c.cmd(t, "set %d 1", key); got != "STORED" {
		t.Fatalf("set: %q", got)
	}

	// Move the slot directly between the nodes; the proxy is not told.
	direct := dialText(t, a.Addr().String())
	if got := direct.cmd(t, "migrate %d %s", slot, b.Addr().String()); !strings.HasPrefix(got, "OK MIGRATED") {
		t.Fatalf("direct migrate: %q", got)
	}
	if p.Ring().Owner(slot) != a.Addr().String() {
		t.Fatal("precondition: proxy ring should still be stale")
	}
	// The proxy's first request hits the old owner, gets MOVED, retries
	// at the new owner, and the client sees only the answer.
	if got := c.cmd(t, "get %d", key); got != fmt.Sprintf("VALUE %d 1", key) {
		t.Fatalf("get through stale proxy: %q", got)
	}
	if p.Ring().Owner(slot) != b.Addr().String() {
		t.Fatalf("ring not refreshed by redirect: %s", p.Ring().Owner(slot))
	}
	// A multi-key request spanning the moved slot re-splits cleanly.
	if got := c.cmd(t, "mset %d 10 %d 20", key, key+1); got != "STORED 2" {
		t.Fatalf("mset after redirect: %q", got)
	}
}

// TestProxySniffsRESP: the proxy's listener applies the cache server's
// first-byte rule — '*' selects RESP framing, anything else native —
// so redis clients work against the proxy unchanged.
func TestProxySniffsRESP(t *testing.T) {
	_, _, p := twoNodeCluster(t)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(args ...string) {
		var b strings.Builder
		fmt.Fprintf(&b, "*%d\r\n", len(args))
		for _, a := range args {
			fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
		}
		if _, err := conn.Write([]byte(b.String())); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	readLine := func() string {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return strings.TrimRight(line, "\r\n")
	}

	send("PING")
	if got := readLine(); got != "+PONG" {
		t.Fatalf("RESP ping: %q", got)
	}
	send("SET", "42", "4200")
	if got := readLine(); got != "+OK" {
		t.Fatalf("RESP set: %q", got)
	}
	send("GET", "42")
	if got := readLine(); got != "$4" {
		t.Fatalf("RESP get header: %q", got)
	}
	body := make([]byte, 6)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatal(err)
	}
	if string(body[:4]) != "4200" {
		t.Fatalf("RESP get body: %q", body)
	}

	// Same listener, new connection, native framing.
	c := dialText(t, p.Addr())
	if got := c.cmd(t, "get 42"); got != "VALUE 42 4200" {
		t.Fatalf("native get of RESP-set key: %q", got)
	}
}

// TestProxyTooLargeRequest: the proxy's frontend holds a request to the
// node's bound, proto.DefaultMaxRequest. An over-bound native request is
// answered, not forwarded or dropped, and the connection resynchronizes
// at the next newline and keeps serving.
func TestProxyTooLargeRequest(t *testing.T) {
	_, _, p := twoNodeCluster(t)
	c := dialText(t, p.Addr())

	var b strings.Builder
	b.WriteString("mset")
	for k := 0; b.Len() <= proto.DefaultMaxRequest; k++ {
		fmt.Fprintf(&b, " %d %d", 1000+k, k)
	}
	if got := c.cmd(t, "%s", b.String()); got != "CLIENT_ERROR request too large" {
		t.Fatalf("oversized mset through the proxy: %q", got)
	}
	if got := c.cmd(t, "set 7 77"); got != "STORED" {
		t.Fatalf("set after oversized: %q", got)
	}
	if got := c.cmd(t, "get 7"); got != "VALUE 7 77" {
		t.Fatalf("get after oversized: %q", got)
	}
	if got := c.cmd(t, "get 1000"); got != "NOT_FOUND" {
		t.Fatalf("the oversized mset reached a node: get 1000 = %q", got)
	}
}

// TestProxyPipelinedBatch: a pipelined burst (many requests in one
// write) comes back complete and in order through the scatter-gather
// path.
func TestProxyPipelinedBatch(t *testing.T) {
	_, _, p := twoNodeCluster(t)
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var b strings.Builder
	const n = 200
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "set %d %d\r\n", i, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "get %d\r\n", i)
	}
	if _, err := conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(line) != "STORED" {
			t.Fatalf("burst set %d: %q", i, line)
		}
	}
	for i := 0; i < n; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("VALUE %d %d", i, i); strings.TrimSpace(line) != want {
			t.Fatalf("burst get %d: %q, want %q", i, line, want)
		}
	}
}

// TestProxyCountsEveryLocalReply pins route_local_replies to its
// documented meaning — every request the proxy answered itself, counted
// as the reply is staged. The session handshake, COMMAND and quit used
// to go uncounted.
func TestProxyCountsEveryLocalReply(t *testing.T) {
	_, _, p := twoNodeCluster(t)
	localReplies := func(c *textClient) uint64 { return proxyStat(t, c, "route_local_replies") }

	c := dialText(t, p.Addr())
	base := localReplies(c) // this stats reply is itself the next one counted
	for _, tc := range []struct{ send, want string }{
		{"session 7", "OK SESSION 7"},
		{"ping", "PONG"},
		{"crash", "CLIENT_ERROR not routable"},  // refused
		{"frobnicate", "ERROR unknown command"}, // malformed
		{"migrate 64 10.0.0.1:7", "CLIENT_ERROR bad slot"},
		{"set 1 10", "STORED"},  // forwarded: not counted
		{"get 1", "VALUE 1 10"}, // forwarded: not counted
	} {
		if got := c.cmd(t, "%s", tc.send); !strings.HasPrefix(got, tc.want) {
			t.Fatalf("%s: %q, want %q...", tc.send, got, tc.want)
		}
	}
	c.lines(t, "cluster")
	// COMMAND exists only in RESP: the empty result set.
	rc, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Write([]byte("*1\r\n$7\r\nCOMMAND\r\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(rc).ReadString('\n'); err != nil || line != "*0\r\n" {
		t.Fatalf("COMMAND: %q, %v", line, err)
	}
	if got, want := localReplies(c), base+1+5+1+1; got != want {
		t.Fatalf("route_local_replies = %d, want %d (stats + 5 local replies + cluster + COMMAND)", got, want)
	}

	// quit is answered locally too; a second connection reads the count.
	if _, err := fmt.Fprintf(c.conn, "quit\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.r.ReadString('\n'); err != io.EOF {
		t.Fatalf("after quit: %v, want EOF", err)
	}
	c2 := dialText(t, p.Addr())
	if got, want := localReplies(c2), base+1+5+1+1+1+1; got != want {
		t.Fatalf("route_local_replies after quit = %d, want %d", got, want)
	}
}

// TestProxyStatsReset: `stats reset` through the proxy zeroes its route
// counters, latencies and per-node counters, and `stats shards` answers
// END alone — a proxy has no shards.
func TestProxyStatsReset(t *testing.T) {
	_, _, p := twoNodeCluster(t)
	c := dialText(t, p.Addr())
	if got := c.cmd(t, "set 1 10"); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	if got := proxyStat(t, c, "route_forwards"); got != 1 {
		t.Fatalf("route_forwards before reset = %d, want 1", got)
	}
	if got := c.cmd(t, "stats reset"); got != "RESET" {
		t.Fatalf("stats reset: %q, want RESET", got)
	}
	for _, name := range []string{"route_forwards", "route_forward_latency_count", "route_backend_wait_count"} {
		if got := proxyStat(t, c, name); got != 0 {
			t.Errorf("%s after reset = %d, want 0", name, got)
		}
	}
	for _, line := range c.lines(t, "stats") {
		if strings.HasPrefix(line, "STAT node_") && !strings.HasSuffix(line, " 0") {
			t.Errorf("per-node counter survived the reset: %q", line)
		}
	}
	if got := c.lines(t, "stats shards"); len(got) != 1 || got[0] != "END" {
		t.Fatalf("proxy stats shards = %q, want END alone", got)
	}
}

// TestProxyBackendFailure: a node that goes away under a pipelined batch
// fails only its own requests, with the node named in the error, and
// costs its link one teardown; once the node is back on the same
// address, the next batch redials and succeeds.
func TestProxyBackendFailure(t *testing.T) {
	_, b, p := twoNodeCluster(t)
	c := dialText(t, p.Addr())
	ka, kb := keyInSlots(0, 31), keyInSlots(32, 63)
	burst := func() []string {
		t.Helper()
		var req strings.Builder
		fmt.Fprintf(&req, "get %d\r\nset %d 2\r\nset %d 3\r\nget %d\r\n", ka, kb, ka, kb)
		if _, err := c.conn.Write([]byte(req.String())); err != nil {
			t.Fatal(err)
		}
		got := make([]string, 4)
		for i := range got {
			line, err := c.r.ReadString('\n')
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			got[i] = strings.TrimSpace(line)
		}
		return got
	}
	if got := c.cmd(t, "set %d 1", ka); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	burst() // both links up
	dials, errs := proxyStat(t, c, "route_backend_dials"), proxyStat(t, c, "route_backend_errors")
	if dials != 2 {
		t.Fatalf("route_backend_dials = %d, want 2 (one link per node)", dials)
	}

	baddr := b.Addr().String()
	b.Close()
	got := burst()
	nodeErr := "SERVER_ERROR cluster node " + baddr + ": "
	if got[0] != fmt.Sprintf("VALUE %d 3", ka) || got[2] != "STORED" ||
		!strings.HasPrefix(got[1], nodeErr) || !strings.HasPrefix(got[3], nodeErr) {
		t.Fatalf("burst with node b down = %q; want node a's replies and %q... for b's", got, nodeErr)
	}
	if got := proxyStat(t, c, "route_backend_errors"); got != errs+1 {
		t.Fatalf("route_backend_errors = %d, want %d", got, errs+1)
	}

	b2, err := cacheserver.New(
		cacheserver.WithAddr(baddr),
		cacheserver.WithShards(2),
		cacheserver.WithClusterSlots("32-63"),
	)
	if err != nil {
		t.Fatalf("restart node b: %v", err)
	}
	go b2.Serve()
	t.Cleanup(func() { b2.Close() })
	if got, want := burst(), []string{fmt.Sprintf("VALUE %d 3", ka), "STORED", "STORED", fmt.Sprintf("VALUE %d 2", kb)}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("burst after restart = %q, want %q", got, want)
	}
	if got := proxyStat(t, c, "route_backend_dials"); got != dials+1 {
		t.Fatalf("route_backend_dials after restart = %d, want %d (one redial)", got, dials+1)
	}
	if got := proxyStat(t, c, "route_backend_errors"); got != errs+1 {
		t.Fatalf("route_backend_errors after restart = %d, want %d", got, errs+1)
	}
}

// TestProxyCloseUnblocksBackendWait: a frontend waiting on a node that
// accepted its request and never answers does not hold Proxy.Close up.
func TestProxyCloseUnblocksBackendWait(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The silent node answers the proxy's seeding `cluster` with an empty
	// table, and nothing else ever.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				if line, err := r.ReadString('\n'); err == nil && strings.TrimSpace(line) == "cluster" {
					io.WriteString(conn, "END\r\n")
					return
				}
				io.Copy(io.Discard, r)
			}()
		}
	}()
	tel := &telemetry.RouteStats{}
	p, err := cluster.New(cluster.Config{Nodes: []string{ln.Addr().String()}, Tel: tel})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	c := dialText(t, p.Addr())
	if _, err := io.WriteString(c.conn, "get 1\r\n"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); tel.Node(ln.Addr().String()).Sent.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the proxy never forwarded the get")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Proxy.Close still blocked after 1s on a frontend waiting for a silent node")
	}
}

// TestProxyManyFrontendsFewNodeConns: more frontends than a node serves
// connections. A node leaves connections past its cap queued
// unanswered, so the proxy must share a bounded set of connections per
// node among its frontends, not hold one per frontend; every burst
// spans both nodes, the order in which a batch borrows them.
func TestProxyManyFrontendsFewNodeConns(t *testing.T) {
	const nodeCap, frontends, bursts = 4, 12, 40
	a := startNode(t, "0-31", cacheserver.WithMaxConns(nodeCap))
	b := startNode(t, "32-63", cacheserver.WithMaxConns(nodeCap))
	p := startProxy(t, a.Addr().String(), b.Addr().String())

	var ka, kb []uint64 // one key per frontend on each node
	for k := uint64(0); len(ka) < frontends || len(kb) < frontends; k++ {
		if cluster.SlotOf(k) < 32 {
			ka = append(ka, k)
		} else {
			kb = append(kb, k)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < frontends; i++ {
		wg.Add(1)
		go func(x, y uint64) {
			defer wg.Done()
			conn, err := net.Dial("tcp", p.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(20 * time.Second))
			r := bufio.NewReader(conn)
			for n := 0; n < bursts; n++ {
				fmt.Fprintf(conn, "set %d %d\r\nset %d %d\r\nmget %d %d\r\n", x, n, y, n, x, y)
				want := []string{"STORED", "STORED",
					fmt.Sprintf("VALUE %d %d", x, n), fmt.Sprintf("VALUE %d %d", y, n), "END"}
				for _, w := range want {
					line, err := r.ReadString('\n')
					if err != nil {
						t.Errorf("frontend %d/%d burst %d: %v", x, y, n, err)
						return
					}
					if got := strings.TrimSpace(line); got != w {
						t.Errorf("frontend %d/%d burst %d: %q, want %q", x, y, n, got, w)
						return
					}
				}
			}
		}(ka[i], kb[i])
	}
	wg.Wait()
	c := dialText(t, p.Addr())
	if got := proxyStat(t, c, "route_backend_dials"); got > 2*nodeCap {
		t.Fatalf("route_backend_dials = %d, want at most %d for %d frontends", got, 2*nodeCap, frontends)
	}
}
