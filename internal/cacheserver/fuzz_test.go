package cacheserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tsp/internal/proto"
)

// newDispatchServer builds a small server for driving the codec loop
// directly, without going through TCP: the parsers and execution paths
// are what is under test, not the socket loop. The epoch clock runs at
// 1ms so the durability-tier grammar (relaxed/fire suffixes, wait)
// reaches the overlay and barrier paths instead of degrading to
// durable; every wait the soup can express is bounded by the clock, so
// the liveness invariant holds.
func newDispatchServer(tb testing.TB) (*Server, *connState) {
	tb.Helper()
	s, err := New(WithShards(2), WithBatchMax(4), WithQueueDepth(2), WithDeviceWords(1<<16),
		WithEpochInterval(time.Millisecond))
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	tb.Cleanup(func() { s.Close() })
	return s, s.newConnState()
}

// serveInput drives the full codec loop — Decoder → serveBatch →
// Encoder — over in-memory bytes: the socketless analogue of handle,
// one simulated connection per call.
func serveInput(s *Server, cs *connState, ad proto.Adapter, input []byte) string {
	dec := proto.NewDecoder(bytes.NewReader(input), ad, proto.DefaultMaxRequest)
	var out bytes.Buffer
	enc := proto.NewEncoder(&out, ad, writeBufBytes)
	for {
		batch, err := dec.Next()
		if len(batch) > 0 {
			quit := s.serveBatch(cs, enc, batch)
			enc.Flush()
			if quit {
				return out.String()
			}
		}
		if err != nil {
			enc.Flush()
			return out.String()
		}
	}
}

// checkQueuesDrained fails if any shard queue keeps holding a request
// — a leaked future would wedge the worker's next drain accounting and,
// on a real connection, hang the client forever. It polls because the
// epoch clock submits its drains through the same queue: a background
// group may be passing through at the instant of the check, but only a
// stranded one stays.
func checkQueuesDrained(t *testing.T, s *Server, ctx string) {
	t.Helper()
	for _, sh := range s.shards {
		waitFor(t, 5*time.Second, fmt.Sprintf("shard %d queue to drain after %s", sh.idx, ctx), func() bool {
			return len(sh.queue) == 0
		})
	}
}

// FuzzNativeLoop throws arbitrary bytes at the native-protocol codec
// loop. The invariants are liveness ones: the loop must return (no
// panic, no deadlock against the batch workers, no infinite decode
// loop) and must not leave a request stranded in any shard queue.
func FuzzNativeLoop(f *testing.F) {
	for _, seed := range []string{
		"get 1", "set 1 2", "incr 1 2", "delete 1",
		"mget 1 2 3", "mset 1 2 3 4",
		"mget " + strings.Repeat("7 ", 64),
		"mset " + strings.Repeat("9 9 ", 64),
		"stats", "stats shards", "stats reset", "stats bogus",
		"crash 99", "crash -1", "crash 0 0",
		"", "   ", "\t", "set", "set 1", "set a b", "mset 1",
		"get 18446744073709551615", "get 18446744073709551616",
		"GET 1", "Set 1 2", "frobnicate", "quit", "ping",
		"get \x00", "set \xff\xfe 1", "incr 1 ☃",
		"set 1 2\r\nget 1\r\nmget 1 2\r\nquit",
		"set 1 2\nset 3",
		// Durability-tier grammar: valid suffixes, suffixes on commands
		// that take none, and the wait barrier's whole argument space.
		"set 1 2 relaxed", "set 1 2 fire", "set 1 2 durable",
		"incr 1 2 relaxed", "delete 1 fire", "mset 1 2 3 4 relaxed",
		"zadd 1 2 relaxed", "zincr 1 2 fire", "zdel 1 relaxed",
		"get 1 relaxed", "set 1 2 bogus", "set 1 relaxed",
		"wait", "wait 0", "wait 1", "wait 1 5", "wait 0 0",
		"wait 18446744073709551615", "wait 99 1",
		"wait repl", "wait repl 5", "wait repl 0", "wait -1",
		"wait relaxed", "wait 1 2 3",
		"set 1 2 relaxed\r\nwait\r\nget 1",
		"set 1 2 relaxed\r\ncrash\r\nget 1",
	} {
		f.Add([]byte(seed + "\r\n"))
	}
	s, cs := newDispatchServer(f)
	f.Fuzz(func(t *testing.T, input []byte) {
		serveInput(s, cs, proto.Native{}, input)
		checkQueuesDrained(t, s, fmt.Sprintf("%q", input))
	})
}

// FuzzRESPLoop is the same campaign against the RESP adapter: valid
// arrays, inline commands, torn frames, lying length headers, and raw
// garbage must never panic, hang, or strand a queue entry — at worst
// the codec answers an error and tears the connection down.
func FuzzRESPLoop(f *testing.F) {
	for _, seed := range []string{
		"*2\r\n$3\r\nGET\r\n$1\r\n1\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\n1\r\n$1\r\n2\r\n",
		"*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$3\r\nbar\r\n",
		"*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n",
		"*1\r\n$4\r\nPING\r\n",
		"*1\r\n$4\r\nINFO\r\n",
		"*1\r\n$4\r\nQUIT\r\n",
		"*3\r\n$6\r\nINCRBY\r\n$1\r\n1\r\n$1\r\n5\r\n",
		"*3\r\n$4\r\nMSET\r\n$1\r\n1\r\n$1\r\n2\r\n",
		"*2\r\n$4\r\nMGET\r\n$1\r\n1\r\n",
		"*2\r\n$3\r\nDEL\r\n$1\r\n1\r\n",
		"PING\r\n",
		"GET 1\r\n",
		"*0\r\n",
		"*1\r\n$3\r\nGET\r\n",   // arity error
		"*2\r\n$3\r\nGET\r\n",   // torn frame
		"*2\r\n$300\r\nGET\r\n", // lying bulk length
		"*-1\r\n",
		"*999999999999999999\r\n",
		"$5\r\nhello\r\n", // bulk outside array
		"\x00\x01\x02",
		"*2\r\n$3\r\nGET\r\n$1\r\n1\r\n*1\r\n$4\r\nPING\r\n", // pipelined
		// Durability tiers and WAIT in RESP: trailing tier bulk on SET,
		// WAIT numreplicas timeout (0 = epoch barrier, >0 = repl acks).
		"*4\r\n$3\r\nSET\r\n$1\r\n1\r\n$1\r\n2\r\n$7\r\nrelaxed\r\n",
		"*4\r\n$3\r\nSET\r\n$1\r\n1\r\n$1\r\n2\r\n$4\r\nfire\r\n",
		"*4\r\n$3\r\nSET\r\n$1\r\n1\r\n$1\r\n2\r\n$5\r\nbogus\r\n",
		"*3\r\n$4\r\nWAIT\r\n$1\r\n0\r\n$1\r\n5\r\n",
		"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$1\r\n1\r\n",
		"*3\r\n$4\r\nWAIT\r\n$2\r\n-1\r\n$1\r\n0\r\n",
		"*1\r\n$4\r\nWAIT\r\n",
		"*2\r\n$4\r\nWAIT\r\n$1\r\n0\r\n",
	} {
		f.Add([]byte(seed))
	}
	s, cs := newDispatchServer(f)
	f.Fuzz(func(t *testing.T, input []byte) {
		serveInput(s, cs, proto.RESP{}, input)
		checkQueuesDrained(t, s, fmt.Sprintf("%q", input))
	})
}

// TestRandomLinesBothAdapters is the deterministic slice of the fuzz
// campaign, run on every test invocation: thousands of seeded-random
// token soups — including valid commands, torn fragments, and real
// crash commands interleaved with mutations — must never panic,
// deadlock, or corrupt the store, on either adapter. Afterwards the
// server must still serve correctly and verify clean.
func TestRandomLinesBothAdapters(t *testing.T) {
	s, cs := newDispatchServer(t)
	rng := rand.New(rand.NewSource(42))
	tokens := []string{
		"get", "set", "incr", "delete", "mget", "mset", "stats", "shards",
		"reset", "crash", "quit", "frobnicate", "ping",
		"relaxed", "durable", "fire", "wait", "repl",
		"0", "1", "2", "7", "99", "-1", "0x10", "18446744073709551615",
		"18446744073709551616", "abc", "", " ",
		"*2", "$3", "\r", "*", "$",
	}
	for i := 0; i < 3000; i++ {
		n := rng.Intn(6)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = tokens[rng.Intn(len(tokens))]
		}
		line := strings.Join(parts, " ") + "\r\n"
		ad := proto.Adapter(proto.Native{})
		if i%2 == 1 {
			ad = proto.RESP{}
		}
		serveInput(s, cs, ad, []byte(line))
		checkQueuesDrained(t, s, fmt.Sprintf("iteration %d %q", i, line))
	}
	if got := serveInput(s, cs, proto.Native{}, []byte("set 12345 678\r\n")); got != "STORED\r\n" {
		t.Fatalf("set after soup: %q", got)
	}
	if got := serveInput(s, cs, proto.Native{}, []byte("get 12345\r\n")); got != "VALUE 12345 678\r\n" {
		t.Fatalf("get after soup: %q", got)
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after soup: %v", err)
	}
}

// TestInterleavedPipelinedConnections drives several connections that
// each write bursts of pipelined commands (some malformed, some wide
// enough to be chunked through the pipeline) and checks every
// connection gets exactly one in-order response per command — the
// per-connection FIFO the batch pipeline must preserve while
// coalescing across connections.
func TestInterleavedPipelinedConnections(t *testing.T) {
	s := startServer(t, WithShards(2), WithBatchMax(4), WithQueueDepth(2))
	const clients, bursts = 4, 20
	errs := make(chan error, clients)
	conns := make([]*client, clients)
	for g := range conns {
		conns[g] = dial(t, s.Addr().String())
	}
	for g := 0; g < clients; g++ {
		go func(g int) {
			c := conns[g]
			base := 100 + g // one key per client: dependent command chain
			for b := 1; b <= bursts; b++ {
				var req strings.Builder
				fmt.Fprintf(&req, "incr %d 1\r\n", base)
				fmt.Fprintf(&req, "bogus %d\r\n", b)
				fmt.Fprintf(&req, "mset 1000 1 2000 2 3000 3 4000 4 5000 5 6000 6\r\n")
				fmt.Fprintf(&req, "get %d\r\n", base)
				if _, err := c.conn.Write([]byte(req.String())); err != nil {
					errs <- err
					return
				}
				want := []string{
					fmt.Sprintf("%d", b),
					"ERROR unknown command",
					"STORED 6",
					fmt.Sprintf("VALUE %d %d", base, b),
				}
				for i, w := range want {
					line, err := c.r.ReadString('\n')
					if err != nil {
						errs <- fmt.Errorf("client %d burst %d response %d: %w", g, b, i, err)
						return
					}
					if got := strings.TrimSpace(line); got != w {
						errs <- fmt.Errorf("client %d burst %d response %d = %q, want %q", g, b, i, got, w)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
}
