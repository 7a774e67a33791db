package cacheserver

import (
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsp/internal/proto"
)

// resident is the number of keys loaded before measurement. Every
// deployment shape carries the same resident set; what changes with the
// shard count is how much of it each stack holds.
const resident = 1 << 18

// preloadResident loads the resident key set with a few parallel loader
// connections before measurement starts.
func preloadResident(b *testing.B, s *Server) {
	b.Helper()
	const loaders = 8
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			serve := burstConn(s)
			for k := l; k < resident; k += loaders {
				if resp := serve(fmt.Appendf(nil, "set %d 1\r\n", k)); resp != "STORED\r\n" {
					b.Errorf("preload: %s", resp)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	if b.Failed() {
		b.FailNow()
	}
}

// benchmarkShards measures the in-process command path (parse,
// shard-route, locked map operation) over a large resident key set.
// A shard is a fixed-size storage stack — one runtime, one
// heap-allocator mutex, one 4096-bucket striped map — so a single-shard
// deployment concentrates the whole resident set in one map (64-entry
// average chains here) and funnels every fortified mutation through one
// runtime and one allocator lock. Sharding divides all of it: with four
// shards each map holds a quarter of the keys (16-entry chains) and the
// serialization points quadruple. The chain-length effect shows on any
// host; the lock effects add on multi-core ones. Each goroutine plays
// one connection with its own connState, the same shape the
// multi-client tests drive over the wire.
func benchmarkShards(b *testing.B, nShards int) {
	s, err := New(
		WithShards(nShards),
		WithMaxConns(64),
		WithDeviceWords(1<<22),
	)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()

	preloadResident(b, s)

	var gid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		serve := burstConn(s)
		rng := gid.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			// splitmix64 step: key choice uncorrelated with shard hash.
			rng += 0x9e3779b97f4a7c15
			x := rng
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			k := x % resident
			var resp string
			if x>>60 < 4 { // 1 in 4: fortified overwrite
				resp = serve(fmt.Appendf(nil, "set %d %d\r\n", k, rng))
			} else { // 3 in 4: read
				resp = serve(fmt.Appendf(nil, "get %d\r\n", k))
			}
			if len(resp) >= 12 && resp[:12] == "SERVER_ERROR" {
				b.Fatal(resp)
			}
		}
	})
}

// The acceptance comparison: with >= 4 benchmark goroutines
// (go test -bench Shards -cpu 4,8) the multi-shard configurations must
// beat the single-shard one, whose global stack serializes all
// fortified mutations and concentrates the whole key population in one
// fixed-size map.
func BenchmarkShards1(b *testing.B) { benchmarkShards(b, 1) }
func BenchmarkShards2(b *testing.B) { benchmarkShards(b, 2) }
func BenchmarkShards4(b *testing.B) { benchmarkShards(b, 4) }
func BenchmarkShards8(b *testing.B) { benchmarkShards(b, 8) }

// benchmarkMutations measures a pure-mutation workload, reporting the
// client-observed set latency quantiles from the servers' own
// per-command histograms next to the usual ns/op. Run with -cpu 8 or
// higher: batching pays off when concurrent requests actually coalesce
// into shared critical sections, which the reported ops/batch metric
// makes visible.
func benchmarkMutations(b *testing.B, nShards int) {
	s, err := New(
		WithShards(nShards),
		WithMaxConns(64),
		WithDeviceWords(1<<22),
	)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()

	var gid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		serve := burstConn(s)
		rng := gid.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			rng += 0x9e3779b97f4a7c15
			x := rng
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			k := x % (1 << 16)
			if resp := serve(fmt.Appendf(nil, "set %d %d\r\n", k, rng)); resp != "STORED\r\n" {
				b.Fatal(resp)
			}
		}
	})
	b.StopTimer()
	reportLatency(b, s, "cmd_set", "")
	reportOpsPerBatch(b, s)
}

// benchmarkMsets measures the batched mutation workload: every request
// rewrites an 8-key group. Each per-shard group runs inside ONE
// outermost critical section (plus whatever other groups the drain
// coalesces in). This is where the per-group amortization shows as
// throughput.
func benchmarkMsets(b *testing.B, nShards int) {
	s, err := New(
		WithShards(nShards),
		WithMaxConns(64),
		WithDeviceWords(1<<22),
	)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()

	var gid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		serve := burstConn(s)
		rng := gid.Add(1) * 0x9e3779b97f4a7c15
		var sb strings.Builder
		for pb.Next() {
			rng += 0x9e3779b97f4a7c15
			x := rng
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			base := x % (1 << 16)
			sb.Reset()
			sb.WriteString("mset")
			for i := uint64(0); i < 8; i++ {
				fmt.Fprintf(&sb, " %d %d", base+i, rng)
			}
			sb.WriteString("\r\n")
			if resp := serve([]byte(sb.String())); resp != "STORED 8\r\n" {
				b.Fatal(resp)
			}
		}
	})
	b.StopTimer()
	reportLatency(b, s, "cmd_mset", "")
	reportOpsPerBatch(b, s)
}

// benchmarkMsetsPinned is benchmarkMsets with every request's 8 keys
// pinned to ONE shard (rotating per request). A pinned group takes the
// single-shard fast path — one commit group, one drain lock —
// where the spread group barriers on every touched shard's drain and
// so inherits the slowest queue's convoy. The p95 gap between this
// cell and MsetsBatched at the same shard count is that convoy,
// isolated; see EXPERIMENTS.md.
func benchmarkMsetsPinned(b *testing.B, nShards int) {
	s, err := New(
		WithShards(nShards),
		WithMaxConns(64),
		WithDeviceWords(1<<22),
	)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()

	// Partition the keyspace by owning shard so a request can draw all
	// 8 keys from a single shard's pool.
	byShard := make([][]uint64, nShards)
	for k := uint64(0); k < 1<<16; k++ {
		idx := s.shardOf(k).idx
		byShard[idx] = append(byShard[idx], k)
	}

	var gid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		serve := burstConn(s)
		rng := gid.Add(1) * 0x9e3779b97f4a7c15
		var sb strings.Builder
		for pb.Next() {
			rng += 0x9e3779b97f4a7c15
			x := rng
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			pool := byShard[x%uint64(nShards)]
			base := x % uint64(len(pool)-8)
			sb.Reset()
			sb.WriteString("mset")
			for i := uint64(0); i < 8; i++ {
				fmt.Fprintf(&sb, " %d %d", pool[base+i], rng)
			}
			sb.WriteString("\r\n")
			if resp := serve([]byte(sb.String())); resp != "STORED 8\r\n" {
				b.Fatal(resp)
			}
		}
	})
	b.StopTimer()
	reportLatency(b, s, "cmd_mset", "")
	reportOpsPerBatch(b, s)
}

func BenchmarkMsetsBatchedShards1(b *testing.B) { benchmarkMsets(b, 1) }
func BenchmarkMsetsBatchedShards4(b *testing.B) { benchmarkMsets(b, 4) }
func BenchmarkMsetsBatchedShards8(b *testing.B) { benchmarkMsets(b, 8) }

func BenchmarkMsetsPinnedShards4(b *testing.B) { benchmarkMsetsPinned(b, 4) }
func BenchmarkMsetsPinnedShards8(b *testing.B) { benchmarkMsetsPinned(b, 8) }

func BenchmarkSetsBatchedShards1(b *testing.B) { benchmarkMutations(b, 1) }
func BenchmarkSetsBatchedShards4(b *testing.B) { benchmarkMutations(b, 4) }
func BenchmarkSetsBatchedShards8(b *testing.B) { benchmarkMutations(b, 8) }

// benchmarkSetsRepl measures the pure-set workload with the preventive
// replication tier on or off. With replication on, an in-process
// follower applies every committed group, and the primary pays the
// tier's commit-path tax: every committed batch is appended to the
// replication log under the shard read lock. The streaming and the
// follower's own Atlas work happen off the measured path; the reported
// lag quantiles show how far the copy trails.
func benchmarkSetsRepl(b *testing.B, replicated bool) {
	popts := []Option{
		WithShards(4),
		WithMaxConns(64),
		WithDeviceWords(1 << 22),
	}
	if replicated {
		popts = append(popts, WithReplListen("127.0.0.1:0"))
	}
	s, err := New(popts...)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	if replicated {
		f, err := New(
			WithReplicaOf(s.ReplAddr().String()),
			WithShards(4),
			WithMaxConns(64),
			WithDeviceWords(1<<22),
		)
		if err != nil {
			b.Fatalf("New follower: %v", err)
		}
		defer f.Close()
	}

	var gid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		serve := burstConn(s)
		rng := gid.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			rng += 0x9e3779b97f4a7c15
			x := rng
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			k := x % (1 << 16)
			if resp := serve(fmt.Appendf(nil, "set %d %d\r\n", k, rng)); resp != "STORED\r\n" {
				b.Fatal(resp)
			}
		}
	})
	b.StopTimer()
	reportLatency(b, s, "cmd_set", "")
	reportLatency(b, s, "repl_lag", "lag_")
}

// The replication overhead comparison (make bench-micro): the same
// workload, shapes, and concurrency, differing only in whether a
// follower is streaming.
func BenchmarkSetsReplOn(b *testing.B)  { benchmarkSetsRepl(b, true) }
func BenchmarkSetsReplOff(b *testing.B) { benchmarkSetsRepl(b, false) }

// benchmarkGets measures the pure-read command path over the resident
// set: every get is a seqlock-validated walk — no Atlas mutex, no
// commit group — which is what the recovery-observer argument says a
// reader owes (run with -cpu 8: the lock-free path scales with readers).
func benchmarkGets(b *testing.B, nShards int) {
	s, err := New(
		WithShards(nShards),
		WithMaxConns(64),
		WithDeviceWords(1<<22),
	)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	preloadResident(b, s)

	var gid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		serve := burstConn(s)
		rng := gid.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			rng += 0x9e3779b97f4a7c15
			x := rng
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			k := x % resident
			if resp := serve(fmt.Appendf(nil, "get %d\r\n", k)); len(resp) >= 12 && resp[:12] == "SERVER_ERROR" {
				b.Fatal(resp)
			}
		}
	})
	b.StopTimer()
	reportLatency(b, s, "cmd_get", "")
}

// The pure-get scaling run (make bench-micro): identical workload and
// concurrency, differing only in the shard count.
func BenchmarkGetsOptimisticShards1(b *testing.B) { benchmarkGets(b, 1) }
func BenchmarkGetsOptimisticShards4(b *testing.B) { benchmarkGets(b, 4) }
func BenchmarkGetsOptimisticShards8(b *testing.B) { benchmarkGets(b, 8) }

// benchmarkReadMix measures the 90/10 get/set mix — the read-heavy
// shape the optimistic path exists for, with enough writes that
// readers actually collide with stripe critical sections and the
// fallback machinery gets exercised on the measured path.
func benchmarkReadMix(b *testing.B, nShards int) {
	s, err := New(
		WithShards(nShards),
		WithMaxConns(64),
		WithDeviceWords(1<<22),
	)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	preloadResident(b, s)

	var gid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		serve := burstConn(s)
		rng := gid.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			rng += 0x9e3779b97f4a7c15
			x := rng
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			k := x % resident
			var resp string
			if (x>>48)%10 == 0 { // 1 in 10: fortified overwrite
				resp = serve(fmt.Appendf(nil, "set %d %d\r\n", k, rng))
			} else { // 9 in 10: read
				resp = serve(fmt.Appendf(nil, "get %d\r\n", k))
			}
			if len(resp) >= 12 && resp[:12] == "SERVER_ERROR" {
				b.Fatal(resp)
			}
		}
	})
	b.StopTimer()
	reportLatency(b, s, "cmd_get", "get_")
	agg := serverStats(s)
	if total := agg["map_opt_gets"] + agg["map_opt_fallbacks"]; total > 0 {
		b.ReportMetric(float64(agg["map_opt_gets"])/float64(total), "opt_hit_rate")
	}
}

func BenchmarkReadMixOptimisticShards1(b *testing.B) { benchmarkReadMix(b, 1) }
func BenchmarkReadMixOptimisticShards4(b *testing.B) { benchmarkReadMix(b, 4) }
func BenchmarkReadMixOptimisticShards8(b *testing.B) { benchmarkReadMix(b, 8) }

// BenchmarkMget8Keys measures the pipelined batch read: one request
// fanned out across every shard concurrently.
func BenchmarkMget8Keys(b *testing.B) {
	s, err := New(WithShards(4), WithMaxConns(64), WithDeviceWords(1<<21))
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	serve := burstConn(s)
	serve([]byte("mset 1 1 2 2 3 3 4 4 5 5 6 6 7 7 8 8\r\n"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve([]byte("mget 1 2 3 4 5 6 7 8\r\n"))
	}
}

// serverStats is the server's `stats` reply read back as name → value.
func serverStats(s *Server) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(proto.StatsAggregate.Reply(s.statsSources()...).Msg, "\r\n") {
		if f := strings.Fields(line); len(f) == 3 {
			out[f[1]], _ = strconv.ParseFloat(f[2], 64)
		}
	}
	return out
}

// reportOpsPerBatch reports the mean operations per drained commit
// group.
func reportOpsPerBatch(b *testing.B, s *Server) {
	if st := serverStats(s); st["server_batches"] > 0 {
		b.ReportMetric(st["server_batched_ops"]/st["server_batches"], "ops/batch")
	}
}

// reportLatency reports the p50 and p95 of one duration histogram (a
// spelled row name such as "cmd_set"); a histogram with no observations
// reports nothing.
func reportLatency(b *testing.B, s *Server, series, prefix string) {
	if st := serverStats(s); st[series+"_count"] > 0 {
		b.ReportMetric(st[series+"_p50_us"], prefix+"p50_us")
		b.ReportMetric(st[series+"_p95_us"], prefix+"p95_us")
	}
}

// BenchmarkLoopbackEchoFloor is the floor under bench's rtt workload:
// the same closed loop — one connection at depth 1, four gets to a set —
// against a loopback server that decodes each request with proto and
// answers a fixed reply, with no store behind it. What a served rtt
// request costs above this is the server's software; this is the socket
// and the two wake-ups. It reports kreq_s and p50_us as bench does.
func BenchmarkLoopbackEchoFloor(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() { // the echo: it returns when the client hangs up
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := proto.NewDecoder(conn, proto.Native{}, 0)
		enc := proto.NewEncoder(conn, proto.Native{}, 0)
		reply := proto.Reply{Kind: proto.KRaw, Msg: "STORED"}
		for {
			batch, err := dec.Next()
			for range batch {
				_ = enc.Stage(&reply) // a failed write shows at Flush
			}
			if enc.Flush() != nil || err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		conn.Close()
		<-done
	}()
	reqs := [][]byte{[]byte("get 1\r\n"), []byte("get 2\r\n"), []byte("get 3\r\n"), []byte("get 4\r\n"), []byte("set 5 5\r\n")}
	buf := make([]byte, 64)
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		start := time.Now()
		if _, err := conn.Write(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
		for got := 0; got == 0 || buf[got-1] != '\n'; {
			n, err := conn.Read(buf[got:])
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e3, "kreq_s")
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50_us")
}
