package cacheserver

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"tsp/internal/proto"
	"tsp/internal/telemetry"
)

// respClient is a minimal RESP2 client for acceptance tests: the
// in-repo stand-in for redis-cli/redis-benchmark, which the test
// environment does not ship.
type respClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialRESP(t *testing.T, addr string) *respClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &respClient{conn: conn, r: bufio.NewReader(conn)}
}

// cmd sends one command as a RESP array of bulk strings and reads one
// reply, rendered compactly: "+OK", "-ERR ...", ":5", "$ payload",
// "(nil)", or for arrays the elements joined by "|".
func (c *respClient) cmd(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	if _, err := c.conn.Write([]byte(b.String())); err != nil {
		t.Fatalf("write: %v", err)
	}
	return c.read(t)
}

func (c *respClient) read(t *testing.T) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	line = strings.TrimRight(line, "\r\n")
	switch line[0] {
	case '+', '-', ':':
		return line
	case '$':
		var n int
		fmt.Sscanf(line[1:], "%d", &n)
		if n < 0 {
			return "(nil)"
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			t.Fatalf("bulk body: %v", err)
		}
		return "$ " + string(buf[:n])
	case '*':
		var n int
		fmt.Sscanf(line[1:], "%d", &n)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = c.read(t)
		}
		return strings.Join(parts, "|")
	default:
		t.Fatalf("unexpected reply line %q", line)
		return ""
	}
}

// TestRESPOverTCP is the RESP acceptance test: the command set
// redis-benchmark drives (SET/GET/MGET/MSET/INCRBY/DEL/PING/INFO) must
// work over a sniffed connection — the first '*' byte selects the RESP
// adapter with no configuration.
func TestRESPOverTCP(t *testing.T) {
	s := startServer(t, WithShards(2))
	c := dialRESP(t, s.Addr().String())

	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Fatalf("PING: %q", got)
	}
	if got := c.cmd(t, "SET", "1", "42"); got != "+OK" {
		t.Fatalf("SET: %q", got)
	}
	if got := c.cmd(t, "GET", "1"); got != "$ 42" {
		t.Fatalf("GET: %q", got)
	}
	if got := c.cmd(t, "GET", "999"); got != "(nil)" {
		t.Fatalf("GET missing: %q", got)
	}
	if got := c.cmd(t, "INCRBY", "1", "8"); got != ":50" {
		t.Fatalf("INCRBY: %q", got)
	}
	if got := c.cmd(t, "MSET", "2", "20", "3", "30"); got != "+OK" {
		t.Fatalf("MSET: %q", got)
	}
	if got := c.cmd(t, "MGET", "1", "2", "999", "3"); got != "$ 50|$ 20|(nil)|$ 30" {
		t.Fatalf("MGET: %q", got)
	}
	if got := c.cmd(t, "DEL", "2", "999"); got != ":1" {
		t.Fatalf("DEL: %q", got)
	}
	// Non-numeric keys and values hash into the integer keyspace but
	// must round-trip as a coherent key→value association.
	if got := c.cmd(t, "SET", "user:alice", "hello"); got != "+OK" {
		t.Fatalf("SET string key: %q", got)
	}
	if got := c.cmd(t, "GET", "user:alice"); !strings.HasPrefix(got, "$ ") {
		t.Fatalf("GET string key: %q", got)
	}
	if got := c.cmd(t, "INFO"); !strings.Contains(got, "server:tspcached") {
		t.Fatalf("INFO: %q", got)
	}
	if got := c.cmd(t, "GET"); !strings.HasPrefix(got, "-ERR wrong number of arguments") {
		t.Fatalf("arity error: %q", got)
	}
	// The stream must still be aligned after an arity error.
	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Fatalf("PING after arity error: %q", got)
	}
	// Crash survivability is protocol-independent: the RESP view of the
	// store must come back intact.
	if got := c.cmd(t, "CRASH"); !strings.HasPrefix(got, "$ OK RECOVERED EPOCH ") {
		t.Fatalf("CRASH: %q", got)
	}
	if got := c.cmd(t, "GET", "1"); got != "$ 50" {
		t.Fatalf("GET after crash: %q", got)
	}
}

// TestTooLargeRequestNative is the regression test for the old
// bufio.Scanner 64 KiB token limit, which silently dropped the
// connection with no error. Now: a request within the ceiling
// (proto.DefaultMaxRequest) works no matter how big, one over it is
// answered with an error, and the native connection keeps serving
// afterwards.
func TestTooLargeRequestNative(t *testing.T) {
	s := startServer(t)
	c := dial(t, s.Addr().String())

	// Within the ceiling — and comfortably beyond bufio.Scanner's old
	// 4 KiB initial buffer.
	var b strings.Builder
	b.WriteString("mset")
	for k := 0; b.Len() < 6<<10; k++ {
		fmt.Fprintf(&b, " %d %d", 1000+k, k)
	}
	if got := c.cmd(t, b.String()); !strings.HasPrefix(got, "STORED ") {
		t.Fatalf("large in-limit mset: %q", got)
	}

	// Over the ceiling: answered, not dropped.
	b.Reset()
	b.WriteString("mset")
	for k := 0; b.Len() <= proto.DefaultMaxRequest; k++ {
		fmt.Fprintf(&b, " %d %d", 5000+k, k)
	}
	if got := c.cmd(t, b.String()); got != "CLIENT_ERROR request too large" {
		t.Fatalf("oversized mset: %q", got)
	}

	// The connection survives and resynchronizes at the next newline.
	if got := c.cmd(t, "set 7 77"); got != "STORED" {
		t.Fatalf("set after oversized: %q", got)
	}
	if got := c.cmd(t, "get 7"); got != "VALUE 7 77" {
		t.Fatalf("get after oversized: %q", got)
	}
}

// TestScannerLimitGone sends a single request far beyond bufio.Scanner's
// old 64 KiB default token cap; under the default 1 MiB ceiling it must
// simply work.
func TestScannerLimitGone(t *testing.T) {
	s := startServer(t)
	c := dial(t, s.Addr().String())
	var b strings.Builder
	b.WriteString("mset")
	for k := 0; b.Len() < 128<<10; k++ {
		fmt.Fprintf(&b, " %d 1", 10000+k)
	}
	if got := c.cmd(t, b.String()); !strings.HasPrefix(got, "STORED ") {
		t.Fatalf("128KiB mset: %q", got)
	}
}

// TestTooLargeRequestRESP: RESP frames cannot be skipped without
// trusting the oversized header, so the server answers the error and
// closes the connection instead of desynchronizing. The frame is wider
// than the decoder's buffer ever grows (twice the ceiling), so it is
// never seen whole.
func TestTooLargeRequestRESP(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	var b strings.Builder
	payload := strings.Repeat("x", 2*proto.DefaultMaxRequest+1)
	fmt.Fprintf(&b, "*3\r\n$3\r\nSET\r\n$1\r\n1\r\n$%d\r\n%s\r\n", len(payload), payload)
	// The server may close before the frame's tail is written: the
	// write's error is not the test's.
	go conn.Write([]byte(b.String()))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("read error reply: %v", err)
	}
	if got := strings.TrimRight(line, "\r\n"); got != "-ERR request too large" {
		t.Fatalf("oversized RESP set: %q", got)
	}
	// The server tears the connection down (EOF, or RST when it closes
	// with our unread frame bytes still pending) — never more replies.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("connection still serving after oversized RESP frame, want teardown")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection neither served nor closed after oversized RESP frame")
	}
}

// TestPipeliningProperty is the pipelining property test: N commands
// written in one segment produce exactly N replies, in request order,
// for randomized command mixes — and the decoder's batch telemetry
// shows the burst was decoded as a group rather than line by line.
func TestPipeliningProperty(t *testing.T) {
	s := startServer(t, WithShards(4))
	c := dial(t, s.Addr().String())
	rng := rand.New(rand.NewSource(7))

	vals := map[uint64]uint64{}
	for round := 0; round < 20; round++ {
		n := 2 + rng.Intn(30)
		var req strings.Builder
		want := make([]string, n)
		for i := 0; i < n; i++ {
			k := uint64(rng.Intn(50))
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64() % 1000
				fmt.Fprintf(&req, "set %d %d\r\n", k, v)
				vals[k] = v
				want[i] = "STORED"
			case 1:
				fmt.Fprintf(&req, "get %d\r\n", k)
				if v, ok := vals[k]; ok {
					want[i] = fmt.Sprintf("VALUE %d %d", k, v)
				} else {
					want[i] = "NOT_FOUND"
				}
			default:
				fmt.Fprintf(&req, "incr %d 1\r\n", k)
				vals[k]++
				want[i] = fmt.Sprintf("%d", vals[k])
			}
		}
		if _, err := c.conn.Write([]byte(req.String())); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		for i, w := range want {
			line, err := c.r.ReadString('\n')
			if err != nil {
				t.Fatalf("round %d reply %d/%d: %v", round, i, n, err)
			}
			if got := strings.TrimRight(line, "\r\n"); got != w {
				t.Fatalf("round %d reply %d = %q, want %q", round, i, got, w)
			}
		}
	}

	// The bursts must have decoded as multi-request batches: the
	// native-protocol decoded-batch histogram saw groups, not only
	// singletons. (Timing can split a burst across reads, so assert the
	// max, not every observation.)
	db := s.tel.DecodedBatch[telemetry.ProtoNative].Snapshot()
	if db.Count() == 0 {
		t.Fatal("no decoded-batch observations")
	}
	if db.Max() < 2 {
		t.Fatalf("decoded batch max = %v, want >= 2 (bursts never batched)", db.Max())
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
}
