package cacheserver

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tsp/internal/atlas"
)

// client is a minimal test client for the text protocol.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

// cmd sends one command and returns the first response line.
func (c *client) cmd(t *testing.T, format string, args ...interface{}) string {
	t.Helper()
	c.send(t, format, args...)
	return c.line(t)
}

// send writes one command without reading its reply (for a command
// that will block, or a hand-pipelined burst); line reads one reply.
func (c *client) send(t *testing.T, format string, args ...interface{}) {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, format+"\r\n", args...); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func (c *client) line(t *testing.T) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return strings.TrimSpace(line)
}

// lines reads until an END line (for stats and mget).
func (c *client) lines(t *testing.T, format string, args ...interface{}) []string {
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

// totalSets sums the mutation counter across shards — the progress
// signal crash-under-load tests poll between kills.
func totalSets(s *Server) uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.tel.Server.Sets.Load()
	}
	return n
}

// waitProgress polls until the server has applied n more mutations than
// when it was called: crash-under-load pacing that guarantees the next
// kill lands on a store that has actually resumed traffic, where a
// fixed sleep may cover zero requests on a slow or single-core box.
func waitProgress(t *testing.T, s *Server, n uint64) {
	t.Helper()
	start := totalSets(s)
	waitFor(t, 10*time.Second, "write progress between crashes", func() bool {
		return totalSets(s)-start >= n
	})
}

func startServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSetGetDeleteOverTCP(t *testing.T) {
	s := startServer(t)
	c := dial(t, s.Addr().String())

	if got := c.cmd(t, "set 1 100"); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	if got := c.cmd(t, "get 1"); got != "VALUE 1 100" {
		t.Fatalf("get: %q", got)
	}
	if got := c.cmd(t, "get 2"); got != "NOT_FOUND" {
		t.Fatalf("get missing: %q", got)
	}
	if got := c.cmd(t, "incr 1 5"); got != "105" {
		t.Fatalf("incr: %q", got)
	}
	if got := c.cmd(t, "incr 7 3"); got != "3" {
		t.Fatalf("incr absent: %q", got)
	}
	if got := c.cmd(t, "delete 1"); got != "DELETED" {
		t.Fatalf("delete: %q", got)
	}
	if got := c.cmd(t, "delete 1"); got != "NOT_FOUND" {
		t.Fatalf("double delete: %q", got)
	}
}

func TestProtocolErrors(t *testing.T) {
	s := startServer(t)
	c := dial(t, s.Addr().String())
	for _, bad := range []string{
		"set 1", "set a b", "get", "get x", "incr 1", "delete",
		"mget", "mget x", "mset", "mset 1", "mset 1 2 3",
		"crash 99", "crash -1", "crash 0 0",
		"frobnicate 1 2",
	} {
		got := c.cmd(t, "%s", bad)
		if !strings.HasPrefix(got, "CLIENT_ERROR") && !strings.HasPrefix(got, "ERROR") {
			t.Errorf("%q -> %q, want an error", bad, got)
		}
	}
}

func TestKeysSpreadAcrossShards(t *testing.T) {
	s := startServer(t, WithShards(4))
	c := dial(t, s.Addr().String())
	touched := make(map[int]bool)
	for k := 0; k < 64; k++ {
		if got := c.cmd(t, "set %d %d", k, k); got != "STORED" {
			t.Fatalf("set %d: %q", k, got)
		}
		touched[s.shardOf(uint64(k)).idx] = true
	}
	if len(touched) != 4 {
		t.Fatalf("64 consecutive keys touched only %d of 4 shards", len(touched))
	}
	for k := 0; k < 64; k++ {
		want := fmt.Sprintf("VALUE %d %d", k, k)
		if got := c.cmd(t, "get %d", k); got != want {
			t.Fatalf("get %d: %q, want %q", k, got, want)
		}
	}
}

func TestMsetMgetPipeline(t *testing.T) {
	s := startServer(t, WithShards(4))
	c := dial(t, s.Addr().String())

	if got := c.cmd(t, "mset 1 10 2 20 3 30 4 40 5 50"); got != "STORED 5" {
		t.Fatalf("mset: %q", got)
	}
	out := c.lines(t, "mget 1 2 3 4 5 99")
	want := []string{
		"VALUE 1 10", "VALUE 2 20", "VALUE 3 30", "VALUE 4 40", "VALUE 5 50",
		"NOT_FOUND 99", "END",
	}
	if len(out) != len(want) {
		t.Fatalf("mget returned %d lines, want %d: %v", len(out), len(want), out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("mget line %d = %q, want %q", i, out[i], want[i])
		}
	}
	// Repeated keys and request-order preservation.
	out = c.lines(t, "mget 5 5 1")
	want = []string{"VALUE 5 50", "VALUE 5 50", "VALUE 1 10", "END"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("mget line %d = %q, want %q", i, out[i], want[i])
		}
	}
}

func TestCrashCommandPreservesData(t *testing.T) {
	s := startServer(t, WithShards(4))
	c := dial(t, s.Addr().String())

	for k := 0; k < 50; k++ {
		if got := c.cmd(t, "set %d %d", k, k*11); got != "STORED" {
			t.Fatalf("set %d: %q", k, got)
		}
	}
	if got := c.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED EPOCH ") {
		t.Fatalf("crash: %q", got)
	}
	// Same connection keeps working against the recovered stacks.
	for k := 0; k < 50; k++ {
		want := fmt.Sprintf("VALUE %d %d", k, k*11)
		if got := c.cmd(t, "get %d", k); got != want {
			t.Fatalf("get %d after crash: %q, want %q", k, got, want)
		}
	}
	// And mutations still work.
	if got := c.cmd(t, "set 1000 1"); got != "STORED" {
		t.Fatalf("set after crash: %q", got)
	}
}

func TestCrashSingleShardLeavesOthersServing(t *testing.T) {
	s := startServer(t, WithShards(4))
	c := dial(t, s.Addr().String())
	for k := 0; k < 40; k++ {
		c.cmd(t, "set %d %d", k, k+1)
	}
	if got := c.cmd(t, "crash 2"); !strings.HasPrefix(got, "OK RECOVERED SHARD 2 EPOCH ") {
		t.Fatalf("crash 2: %q", got)
	}
	for k := 0; k < 40; k++ {
		want := fmt.Sprintf("VALUE %d %d", k, k+1)
		if got := c.cmd(t, "get %d", k); got != want {
			t.Fatalf("get %d after shard crash: %q, want %q", k, got, want)
		}
	}
	// Only the crashed shard counts a recovery.
	if got := s.shards[2].tel.Recovery.Recoveries.Load(); got != 1 {
		t.Fatalf("shard 2 recoveries = %d, want 1", got)
	}
	for _, i := range []int{0, 1, 3} {
		if got := s.shards[i].tel.Recovery.Recoveries.Load(); got != 0 {
			t.Fatalf("shard %d recoveries = %d, want 0", i, got)
		}
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
}

func TestCrashVisibleAcrossConnections(t *testing.T) {
	s := startServer(t)
	c1 := dial(t, s.Addr().String())
	c2 := dial(t, s.Addr().String())

	c1.cmd(t, "set 5 55")
	if got := c2.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED EPOCH ") {
		t.Fatalf("crash from c2: %q", got)
	}
	// c1's thread registrations are stale; its next request must be
	// transparently re-registered.
	if got := c1.cmd(t, "get 5"); got != "VALUE 5 55" {
		t.Fatalf("c1 get after c2 crash: %q", got)
	}
}

func TestStats(t *testing.T) {
	s := startServer(t, WithShards(2))
	c := dial(t, s.Addr().String())
	c.cmd(t, "set 1 1")
	c.cmd(t, "get 1")
	c.cmd(t, "crash")
	out := c.lines(t, "stats")
	joined := strings.Join(out, "\n")
	for _, want := range []string{
		"STAT shards 2", "STAT items 1", "STAT server_sets 1", "STAT server_gets 1",
		"STAT server_hits 1", "STAT recovery_count 2", "STAT nvm_stores",
		"STAT recovery_latency_p50_us", "END",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("stats missing %q:\n%s", want, joined)
		}
	}

	perShard := c.lines(t, "stats shards")
	if len(perShard) != 3 { // 2 shards + END
		t.Fatalf("stats shards returned %d lines: %v", len(perShard), perShard)
	}
	for i := 0; i < 2; i++ {
		if !strings.HasPrefix(perShard[i], fmt.Sprintf("STAT shard %d ", i)) {
			t.Fatalf("per-shard line %d = %q", i, perShard[i])
		}
		if !strings.Contains(perShard[i], " recovery_count 1 ") {
			t.Fatalf("shard %d shows no recovery: %q", i, perShard[i])
		}
	}
}

func TestModeOffServerRunsUnfortified(t *testing.T) {
	// Regression for the zero-value Config bug: Mode atlas.ModeOff (== 0)
	// used to be rewritten to ModeTSP by fillDefaults, so an unfortified
	// server was unreachable. The options API applies WithMode only when
	// the caller says so.
	s := startServer(t, WithMode(atlas.ModeOff), WithShards(2))
	if got := s.Mode(); got != atlas.ModeOff {
		t.Fatalf("server mode = %v, want ModeOff", got)
	}
	for _, sh := range s.shards {
		if got := sh.stk.RT.Mode(); got != atlas.ModeOff {
			t.Fatalf("shard %d runtime mode = %v, want ModeOff", sh.idx, got)
		}
	}
	c := dial(t, s.Addr().String())
	if got := c.cmd(t, "set 1 2"); got != "STORED" {
		t.Fatalf("set on ModeOff server: %q", got)
	}
	if got := c.cmd(t, "get 1"); got != "VALUE 1 2" {
		t.Fatalf("get on ModeOff server: %q", got)
	}
	// And the default remains TSP when no option is passed.
	d := startServer(t)
	if got := d.Mode(); got != atlas.ModeTSP {
		t.Fatalf("default mode = %v, want ModeTSP", got)
	}
}

func TestConcurrentClientsAcrossShards(t *testing.T) {
	s := startServer(t, WithShards(4), WithMaxConns(16))
	const clients, opsPer = 8, 100
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < opsPer; i++ {
				// Stride the counters so the 8 clients hit all 4 shards.
				fmt.Fprintf(conn, "incr %d 1\r\n", g*31)
				if _, err := r.ReadString('\n'); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("client error: %v", err)
	}
	c := dial(t, s.Addr().String())
	for g := 0; g < clients; g++ {
		want := fmt.Sprintf("VALUE %d %d", g*31, opsPer)
		if got := c.cmd(t, "get %d", g*31); got != want {
			t.Fatalf("counter %d: %q, want %q", g, got, want)
		}
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
}

// TestCrashDuringLoad drives every shard with concurrent mutating
// clients while an admin connection power-fails shards one at a time
// and then all at once. Afterwards every shard must verify clean and
// every key confirmed STORED before the crash phase must survive.
func TestCrashDuringLoad(t *testing.T) {
	const nShards = 4
	s := startServer(t, WithShards(nShards), WithMaxConns(16))

	// Seed phase: confirmed-durable keys, spread across shards.
	seed := dial(t, s.Addr().String())
	const seeded = 200
	for k := 0; k < seeded; k++ {
		if got := seed.cmd(t, "set %d %d", k, k*3+1); got != "STORED" {
			t.Fatalf("seed set %d: %q", k, got)
		}
	}

	// Load phase: 6 clients mutate disjoint high keys on all shards.
	const clients = 6
	stop := make(chan struct{})
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := 10_000 + g*1000 + i%100
				fmt.Fprintf(conn, "incr %d 1\r\n", k)
				line, err := r.ReadString('\n')
				if err != nil {
					errs <- err
					return
				}
				if strings.HasPrefix(line, "SERVER_ERROR") {
					errs <- fmt.Errorf("client %d: %s", g, strings.TrimSpace(line))
					return
				}
			}
		}(g)
	}

	// Admin: crash each shard in turn, then the whole machine, while the
	// load runs.
	admin := dial(t, s.Addr().String())
	for i := 0; i < nShards; i++ {
		if got := admin.cmd(t, "crash %d", i); !strings.HasPrefix(got, fmt.Sprintf("OK RECOVERED SHARD %d EPOCH ", i)) {
			t.Fatalf("crash %d: %q", i, got)
		}
		waitProgress(t, s, 10)
	}
	if got := admin.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED EPOCH ") {
		t.Fatalf("crash all: %q", got)
	}
	close(stop)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("load client error: %v", err)
	}

	// Every shard recovers with clean invariants...
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after crash-under-load: %v", err)
	}
	for _, sh := range s.shards {
		if got := sh.tel.Recovery.Recoveries.Load(); got < 2 {
			t.Fatalf("shard %d recoveries = %d, want >= 2", sh.idx, got)
		}
	}
	// ...and every pre-crash confirmed key is readable with its value.
	for k := 0; k < seeded; k++ {
		want := fmt.Sprintf("VALUE %d %d", k, k*3+1)
		if got := seed.cmd(t, "get %d", k); got != want {
			t.Fatalf("seeded key %d after crashes: %q, want %q", k, got, want)
		}
	}
}

func TestQuitClosesConnection(t *testing.T) {
	s := startServer(t)
	c := dial(t, s.Addr().String())
	fmt.Fprintf(c.conn, "quit\r\n")
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after quit")
	}
}

func TestMaxConnsBackpressure(t *testing.T) {
	// With MaxConns 2, a third connection is not rejected and not served:
	// it waits in the accept queue until a slot frees.
	s := startServer(t, WithMaxConns(2), WithShards(1))

	c1 := dial(t, s.Addr().String())
	c2 := dial(t, s.Addr().String())
	c1.cmd(t, "set 1 1")
	c2.cmd(t, "set 2 2")

	conn3, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial 3: %v", err)
	}
	defer conn3.Close()
	fmt.Fprintf(conn3, "set 3 3\r\n")
	r3 := bufio.NewReader(conn3)
	conn3.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := r3.ReadString('\n'); err == nil {
		t.Fatal("third connection was served while both slots were held")
	}

	// Freeing a slot admits the queued connection and its buffered
	// command executes.
	fmt.Fprintf(c1.conn, "quit\r\n")
	conn3.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r3.ReadString('\n')
	if err != nil {
		t.Fatalf("third connection still unserved after slot freed: %v", err)
	}
	if got := strings.TrimSpace(line); got != "STORED" {
		t.Fatalf("third connection response: %q, want STORED", got)
	}
}
