package cacheserver

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tsp/internal/telemetry"
)

// statValue extracts "STAT <name> <value>" from a stats response.
func statValue(t *testing.T, lines []string, name string) uint64 {
	t.Helper()
	prefix := "STAT " + name + " "
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			v, err := strconv.ParseUint(strings.TrimPrefix(l, prefix), 10, 64)
			if err != nil {
				t.Fatalf("stat %s: %v (line %q)", name, err, l)
			}
			return v
		}
	}
	t.Fatalf("stat %s not in response:\n%s", name, strings.Join(lines, "\n"))
	return 0
}

// TestMsetIsOneBatchOneSection: with a single shard, an mset whose ops
// fit one batch group runs as exactly one drained batch inside exactly
// one Atlas critical section — the amortization the pipeline exists
// for.
func TestMsetIsOneBatchOneSection(t *testing.T) {
	s := startServer(t, WithShards(1))
	c := dial(t, s.Addr().String())
	sh := s.shards[0]

	batchesBefore := sh.tel.Server.Batches.Load()
	ocsBefore := sh.tel.Atlas.OCSCommits.Load()
	if got := c.cmd(t, "mset 1 10 2 20 3 30 4 40 5 50 6 60 7 70 8 80"); got != "STORED 8" {
		t.Fatalf("mset: %q", got)
	}
	if got := sh.tel.Server.Batches.Load() - batchesBefore; got != 1 {
		t.Fatalf("batches for one mset = %d, want 1", got)
	}
	if got := sh.tel.Atlas.OCSCommits.Load() - ocsBefore; got != 1 {
		t.Fatalf("OCS commits for one 8-op mset = %d, want 1 (one section per batch)", got)
	}
	if got := sh.tel.Server.BatchedOps.Load(); got < 8 {
		t.Fatalf("batched ops = %d, want >= 8", got)
	}
	if got := uint64(sh.tel.BatchSize.Snapshot().Max()); got < 8 {
		t.Fatalf("batch size max bucket = %d, want >= 8", got)
	}
}

// TestBatchMaxZeroRejected: the unbatched mode is gone — there is one
// write path, and its batch bound must admit at least one op.
func TestBatchMaxZeroRejected(t *testing.T) {
	if s, err := New(WithBatchMax(0)); err == nil {
		s.Close()
		t.Fatal("WithBatchMax(0) was accepted")
	}
}

// TestOversizedGroupChunksThroughPipeline: a group larger than
// batchMax is never executed in one section (that would overrun the
// undo-log ring the bound sizes); submit splits it into batchMax-sized
// sections — paying the per-batch amortization, which matters once
// pipelined clients present hundreds of ops in one decoded group — and
// the split is not a fallback.
func TestOversizedGroupChunksThroughPipeline(t *testing.T) {
	s := startServer(t, WithShards(1), WithBatchMax(4))
	c := dial(t, s.Addr().String())
	sh := s.shards[0]

	if got := c.cmd(t, "mset 1 1 2 2 3 3 4 4 5 5 6 6 7 7 8 8"); got != "STORED 8" {
		t.Fatalf("oversized mset: %q", got)
	}
	if got := sh.tel.Server.BatchFallbacks.Load(); got != 0 {
		t.Fatalf("fallbacks = %d, want 0 (oversized groups chunk, not degrade)", got)
	}
	if got := sh.tel.Server.Batches.Load(); got != 2 {
		t.Fatalf("batches = %d, want 2 (8 ops / batchMax 4)", got)
	}
	if got := sh.tel.Server.BatchedOps.Load(); got != 8 {
		t.Fatalf("batched ops = %d, want 8", got)
	}
	out := c.lines(t, "mget 1 2 3 4 5 6 7 8")
	for i := 0; i < 8; i++ {
		want := fmt.Sprintf("VALUE %d %d", i+1, i+1)
		if out[i] != want {
			t.Fatalf("mget line %d = %q, want %q", i, out[i], want)
		}
	}
}

// TestQueueFullFallsBackToSyncPath stalls the shard (write lock held,
// so whoever holds the drain lock blocks inside runBatch) while six
// clients submit two-op msets through a depth-1 queue. One submitter
// wins the drain lock and stalls in its section, one fills the queue,
// so at least three of the rest must take submit's counted
// queue-full arm — waiting for the drain lock themselves — and every
// write must still be acked and applied once the shard resumes.
func TestQueueFullFallsBackToSyncPath(t *testing.T) {
	s := startServer(t, WithShards(1), WithBatchMax(4), WithQueueDepth(1))
	sh := s.shards[0]

	sh.mu.Lock() // stall every section on this shard
	const n = 6
	conns := make([]net.Conn, n)
	readers := make([]*bufio.Reader, n)
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			sh.mu.Unlock()
			t.Fatalf("dial %d: %v", i, err)
		}
		defer conn.Close()
		conns[i] = conn
		readers[i] = bufio.NewReader(conn)
		fmt.Fprintf(conn, "mset %d %d %d %d\r\n", 2*i, 100+i, 2*i+1, 200+i)
	}
	// Every request reaches a scheduling decision while the shard is
	// stalled: one group inside the stalled section, one filling the
	// depth-1 queue, so at least three must have taken the counted
	// fallback. Fallbacks are counted at the decision, before the
	// submitter blocks on the drain lock, so the counter is pollable here.
	waitFor(t, 10*time.Second, "three queue-full fallbacks", func() bool {
		return sh.tel.Server.BatchFallbacks.Load() >= 3
	})
	sh.mu.Unlock()

	for i := 0; i < n; i++ {
		line, err := readers[i].ReadString('\n')
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got := strings.TrimSpace(line); got != "STORED 2" {
			t.Fatalf("client %d response: %q", i, got)
		}
	}
	if got := sh.tel.Server.BatchFallbacks.Load(); got < 1 {
		t.Fatalf("fallbacks = %d, want >= 1 (queue depth 1, six concurrent two-op writers)", got)
	}
	// Latency histograms recorded on every arm.
	if got := sh.tel.OpLatency.Snapshot().Count(); got < 1 {
		t.Fatal("no op latency observations")
	}
	var text strings.Builder
	telemetry.Text(&text, telemetry.RegistryRows.Bind(sh.tel))
	if got := statValue(t, strings.Split(text.String(), "\r\n"), "cmd_mset_count"); got != uint64(n) {
		t.Fatalf("mset command latency observations = %d, want %d", got, n)
	}
	c := dial(t, s.Addr().String())
	for i := 0; i < n; i++ {
		if got, want := c.cmd(t, "get %d", 2*i), fmt.Sprintf("VALUE %d %d", 2*i, 100+i); got != want {
			t.Fatalf("get %d: %q, want %q", 2*i, got, want)
		}
		if got, want := c.cmd(t, "get %d", 2*i+1), fmt.Sprintf("VALUE %d %d", 2*i+1, 200+i); got != want {
			t.Fatalf("get %d: %q, want %q", 2*i+1, got, want)
		}
	}
}

// TestPipelinedCommandsOrdered writes a burst of dependent commands in
// one TCP segment — single ops around an mset whose per-shard groups
// may exceed batchMax and chunk — and requires the responses in
// request order with the dependent values correct: scheduling must not
// reorder one connection's commands.
func TestPipelinedCommandsOrdered(t *testing.T) {
	s := startServer(t, WithShards(2), WithBatchMax(4))
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	var req strings.Builder
	req.WriteString("set 1 1\r\n")
	req.WriteString("incr 1 1\r\n")
	req.WriteString("mset 10 1 11 2 12 3 13 4 14 5 15 6\r\n") // 6 ops across 2 shards: a group over batchMax chunks
	req.WriteString("incr 1 1\r\n")
	req.WriteString("get 1\r\n")
	if _, err := conn.Write([]byte(req.String())); err != nil {
		t.Fatalf("write: %v", err)
	}
	want := []string{"STORED", "2", "STORED 6", "3", "VALUE 1 3"}
	r := bufio.NewReader(conn)
	for i, w := range want {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got := strings.TrimSpace(line); got != w {
			t.Fatalf("response %d = %q, want %q", i, got, w)
		}
	}
}

// TestCrashNeverTearsBatchGroup races an administrative power failure
// against an in-flight batch group, every round. The crash command
// rebuilds the stack under the shard WRITE lock while the worker runs
// each group under the read lock, so the failure must land between
// groups: whichever side wins the race, the group is applied whole —
// all eight keys reach the round's value, never a mix — and a group
// still queued at crash time executes against the recovered stack
// rather than being dropped.
func TestCrashNeverTearsBatchGroup(t *testing.T) {
	s := startServer(t, WithShards(1))
	sh := s.shards[0]
	c := dial(t, s.Addr().String())

	const rounds, width = 15, 8
	for r := uint64(1); r <= rounds; r++ {
		ops := make([]batchOp, width)
		for i := range ops {
			ops[i] = batchOp{kind: opSet, key: uint64(i), arg: r}
		}
		// Hand the group to the worker, not to a submitter's own
		// goroutine: queue it directly and ring.
		req := &batchReq{ops: ops, done: make(chan struct{})}
		sh.queue <- req
		sh.ringDoorbell()

		crashed := make(chan error, 1)
		go func() { crashed <- sh.crashAndRecover() }()
		<-req.done
		if err := <-crashed; err != nil {
			t.Fatalf("round %d: recovery failed: %v", r, err)
		}
		for i := range ops {
			if ops[i].err != nil {
				t.Fatalf("round %d: op %d failed: %v", r, i, ops[i].err)
			}
		}
		for i := 0; i < width; i++ {
			want := fmt.Sprintf("VALUE %d %d", i, r)
			if got := c.cmd(t, "get %d", i); got != want {
				t.Fatalf("round %d: key %d after crash = %q, want %q (torn group)", r, i, got, want)
			}
		}
	}
	if got := sh.tel.Recovery.Recoveries.Load(); got != rounds {
		t.Fatalf("recoveries = %d, want %d", got, rounds)
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
}

// TestCrashMidBatchCampaign is the table-driven crash-consistency
// campaign: concurrent writers drive the batch pipeline while an admin
// connection power-fails shards (one at a time or the whole machine).
// The durability contract is checked through the writers' own acks —
// the analogue of the harness's recovery-observer equations:
//
//   - incr workload: each writer owns one counter and requires every
//     response to be exactly previous+1. A response regression would
//     mean an ACKED increment was lost to a crash; a skip would mean
//     one applied twice (a half-rolled-back group). Afterwards the
//     stored value must equal the writer's last ack — acked == applied,
//     the Σc1/Σc2 sandwich with T = 0 in-flight at quiesce. Every
//     fourth round each writer also rewrites a five-key side group, so
//     multi-op batches keep forming mid-crash and increments race
//     real drains.
//   - mset workload: each writer rewrites its whole key group to the
//     round number through the cross-shard fan-out, so crashes land
//     between per-shard groups of the same command. Every ack covers
//     the whole group; at quiesce every key must hold the final round.
func TestCrashMidBatchCampaign(t *testing.T) {
	cases := []struct {
		name     string
		shards   int
		crashAll bool
		useMset  bool
	}{
		{"1shard_crashall_incr", 1, true, false},
		{"4shards_single_incr", 4, false, false},
		{"4shards_crashall_mset", 4, true, true},
		{"4shards_single_mset", 4, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, WithShards(tc.shards), WithMaxConns(16))
			const writers = 4
			stop := make(chan struct{})
			errs := make(chan error, writers)
			lastAck := make([]uint64, writers)
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
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
					base := uint64(10_000 + g*1000)
					for round := uint64(1); ; round++ {
						select {
						case <-stop:
							return
						default:
						}
						if tc.useMset {
							fmt.Fprintf(conn, "mset %d %d %d %d %d %d %d %d %d %d\r\n",
								base, round, base+1, round, base+2, round, base+3, round, base+4, round)
						} else {
							if round%4 == 0 {
								// Stir the pipeline: a five-key side group
								// every few rounds (more keys than shards, so
								// at least one shard receives a multi-op
								// group) keeps multi-op batches forming
								// mid-crash even in the incr workload.
								fmt.Fprintf(conn, "mset %d %d %d %d %d %d %d %d %d %d\r\n",
									base+500, round, base+501, round, base+502, round,
									base+503, round, base+504, round)
								stir, serr := r.ReadString('\n')
								if serr != nil {
									errs <- serr
									return
								}
								if got := strings.TrimSpace(stir); got != "STORED 5" {
									errs <- fmt.Errorf("writer %d stir round %d: %q", g, round, got)
									return
								}
							}
							fmt.Fprintf(conn, "incr %d 1\r\n", base)
						}
						line, err := r.ReadString('\n')
						if err != nil {
							errs <- err
							return
						}
						line = strings.TrimSpace(line)
						if tc.useMset {
							if line != "STORED 5" {
								errs <- fmt.Errorf("writer %d round %d: %q", g, round, line)
								return
							}
						} else {
							v, perr := strconv.ParseUint(line, 10, 64)
							if perr != nil {
								errs <- fmt.Errorf("writer %d round %d: %q", g, round, line)
								return
							}
							if v != round {
								errs <- fmt.Errorf("writer %d: ack %d after %d acked increments (lost or doubled write)", g, v, round-1)
								return
							}
						}
						lastAck[g] = round
					}
				}(g)
			}

			admin := dial(t, s.Addr().String())
			for round := 0; round < 3; round++ {
				if tc.crashAll {
					if got := admin.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED EPOCH ") {
						t.Fatalf("crash: %q", got)
					}
				} else {
					for i := 0; i < tc.shards; i++ {
						if got := admin.cmd(t, "crash %d", i); !strings.HasPrefix(got, fmt.Sprintf("OK RECOVERED SHARD %d EPOCH ", i)) {
							t.Fatalf("crash %d: %q", i, got)
						}
						waitProgress(t, s, 5)
					}
				}
				waitProgress(t, s, 10)
			}
			close(stop)
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatalf("writer error: %v", err)
			}

			// Quiesced: acked == applied, per writer.
			for g := 0; g < writers; g++ {
				base := uint64(10_000 + g*1000)
				if lastAck[g] == 0 {
					continue // writer never completed a round; nothing promised
				}
				if tc.useMset {
					for i := uint64(0); i < 5; i++ {
						want := fmt.Sprintf("VALUE %d %d", base+i, lastAck[g])
						if got := admin.cmd(t, "get %d", base+i); got != want {
							t.Fatalf("writer %d key %d: %q, want %q", g, base+i, got, want)
						}
					}
				} else {
					want := fmt.Sprintf("VALUE %d %d", base, lastAck[g])
					if got := admin.cmd(t, "get %d", base); got != want {
						t.Fatalf("writer %d counter: %q, want %q", g, got, want)
					}
				}
			}
			if err := s.VerifyAll(); err != nil {
				t.Fatalf("VerifyAll after campaign: %v", err)
			}
			var batches, recoveries uint64
			for _, sh := range s.shards {
				batches += sh.tel.Server.Batches.Load()
				recoveries += sh.tel.Recovery.Recoveries.Load()
			}
			if batches == 0 {
				t.Fatal("campaign never exercised the batch pipeline")
			}
			if recoveries == 0 {
				t.Fatal("campaign never recovered a shard")
			}
		})
	}
}

// TestStatsResetCommand: stats reset zeroes every counter and histogram
// over the wire but keeps stack_generation, which identifies the
// incarnation rather than the traffic.
func TestStatsResetCommand(t *testing.T) {
	// Epoch tiers off: the clock persists the frontier word every tick,
	// so a tick landing between `stats reset` and the readback would
	// legitimately make nvm_stores nonzero on a quiescent server.
	s := startServer(t, WithShards(2), WithEpochInterval(0))
	c := dial(t, s.Addr().String())
	c.cmd(t, "set 1 1")
	c.cmd(t, "mset 2 2 3 3 4 4 5 5")
	c.cmd(t, "get 1")
	c.cmd(t, "crash")

	before := c.lines(t, "stats")
	if got := statValue(t, before, "server_sets"); got != 5 {
		t.Fatalf("server_sets before reset = %d, want 5", got)
	}
	gen := statValue(t, before, "stack_generation")
	if gen < 4 { // 2 shards x (initial 1 + one crash)
		t.Fatalf("stack_generation before reset = %d, want >= 4", gen)
	}
	if got := statValue(t, before, "server_batches"); got == 0 {
		t.Fatal("no batches counted before reset")
	}

	if got := c.cmd(t, "stats reset"); got != "RESET" {
		t.Fatalf("stats reset: %q", got)
	}
	after := c.lines(t, "stats")
	for _, name := range []string{"server_gets", "server_sets", "op_count", "batch_size_count", "server_batches", "server_batched_ops", "nvm_stores", "recovery_count"} {
		if got := statValue(t, after, name); got != 0 {
			t.Errorf("%s after reset = %d, want 0", name, got)
		}
	}
	if got := statValue(t, after, "stack_generation"); got != gen {
		t.Errorf("stack_generation after reset = %d, want %d (must survive)", got, gen)
	}
	// The server keeps serving and counting after a reset, across a
	// crash.
	if got := c.cmd(t, "get 1"); got != "VALUE 1 1" {
		t.Fatalf("get after reset: %q", got)
	}
	if got := statValue(t, c.lines(t, "stats"), "server_gets"); got != 1 {
		t.Fatalf("server_gets after post-reset traffic = %d, want 1", got)
	}
}
