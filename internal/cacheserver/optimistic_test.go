package cacheserver

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tsp/internal/harness"
)

// TestOptimisticReadPathServes: reads on the default (optimistic)
// configuration are correct, land on the lock-free path, and never
// create batch pipeline work.
func TestOptimisticReadPathServes(t *testing.T) {
	s := startServer(t, WithShards(2))
	c := dial(t, s.Addr().String())
	for i := 0; i < 32; i++ {
		if got := c.cmd(t, "set %d %d", i, i*10); got != "STORED" {
			t.Fatalf("set: %q", got)
		}
	}
	stats := c.lines(t, "stats")
	batchesBefore := statValue(t, stats, "server_batches")
	optBefore := statValue(t, stats, "map_opt_gets")

	for i := 0; i < 32; i++ {
		if got := c.cmd(t, "get %d", i); got != fmt.Sprintf("VALUE %d %d", i, i*10) {
			t.Fatalf("get %d: %q", i, got)
		}
	}
	if got := c.cmd(t, "get 999"); got != "NOT_FOUND" {
		t.Fatalf("get miss: %q", got)
	}
	lines := mgetLines(t, c, 8)
	for i := 0; i < 8; i++ {
		if lines[i] != fmt.Sprintf("VALUE %d %d", i, i*10) {
			t.Fatalf("mget line %d: %q", i, lines[i])
		}
	}

	stats = c.lines(t, "stats")
	if got := statValue(t, stats, "server_batches"); got != batchesBefore {
		t.Fatalf("reads created %d batch groups; the optimistic path must bypass the pipeline", got-batchesBefore)
	}
	// 33 gets + 8 mget keys, all on a quiescent map: every one lock-free.
	if got := statValue(t, stats, "map_opt_gets"); got != optBefore+41 {
		t.Fatalf("map_opt_gets = %d, want %d", got, optBefore+41)
	}
	if got := statValue(t, stats, "read_count"); got != 34 {
		t.Fatalf("read_count = %d, want 34 (33 gets + 1 fully-optimistic mget)", got)
	}
	if got := statValue(t, stats, "cmd_get_count"); got != 33 {
		t.Fatalf("cmd_get_count = %d, want 33", got)
	}
}

// TestOptimisticReadsDisabled: WithOptimisticReads(false) routes every
// read through the locked machinery — the opt counters stay zero.
func TestOptimisticReadsDisabled(t *testing.T) {
	s := startServer(t, WithShards(2), WithOptimisticReads(false))
	c := dial(t, s.Addr().String())
	c.cmd(t, "set 1 100")
	if got := c.cmd(t, "get 1"); got != "VALUE 1 100" {
		t.Fatalf("get: %q", got)
	}
	mgetLines(t, c, 4)
	stats := c.lines(t, "stats")
	if got := statValue(t, stats, "map_opt_gets"); got != 0 {
		t.Fatalf("map_opt_gets = %d with optimistic reads disabled", got)
	}
	if got := statValue(t, stats, "read_count"); got != 0 {
		t.Fatalf("read_count = %d with optimistic reads disabled", got)
	}
}

// TestOptimisticReadsOnFollower: a read-only follower serves get/mget on
// the lock-free path without ever touching the drain lock — reads
// coexist with the replication applier instead of queueing behind it.
func TestOptimisticReadsOnFollower(t *testing.T) {
	primary, follower := startReplPair(t)
	pc := dial(t, primary.Addr().String())
	fc := dial(t, follower.Addr().String())

	const n = 64
	for i := 0; i < n; i++ {
		if got := pc.cmd(t, "set %d %d", i, i+1000); got != "STORED" {
			t.Fatalf("set: %q", got)
		}
	}
	waitReplFor(t, "follower convergence", func() bool { return converged(t, pc, fc, n) })

	// Quiescent now: no primary traffic, so the applier is idle and the
	// follower's batch count is stable.
	fstats := fc.lines(t, "stats")
	batchesBefore := statValue(t, fstats, "server_batches")
	optBefore := statValue(t, fstats, "map_opt_gets")

	// The follower still rejects writes (the read gate is untouched)...
	if got := fc.cmd(t, "set 1 2"); !strings.HasPrefix(got, "SERVER_ERROR read-only") {
		t.Fatalf("follower accepted a write: %q", got)
	}
	// ...while reads are served lock-free.
	for i := 0; i < n; i++ {
		if got := fc.cmd(t, "get %d", i); got != fmt.Sprintf("VALUE %d %d", i, i+1000) {
			t.Fatalf("follower get %d: %q", i, got)
		}
	}
	lines := mgetLines(t, fc, n)
	for i := 0; i < n; i++ {
		if lines[i] != fmt.Sprintf("VALUE %d %d", i, i+1000) {
			t.Fatalf("follower mget line %d: %q", i, lines[i])
		}
	}

	fstats = fc.lines(t, "stats")
	if got := statValue(t, fstats, "server_batches"); got != batchesBefore {
		t.Fatalf("follower reads took the drain lock: batches %d -> %d", batchesBefore, got)
	}
	if got := statValue(t, fstats, "map_opt_gets"); got != optBefore+2*n {
		t.Fatalf("map_opt_gets = %d, want %d", got, optBefore+2*n)
	}
}

// TestCmdLatencyCountedOncePerCommand: a multi-shard mget/mset is one
// command and must observe CmdLatency exactly once, not once per
// touched shard (the per-shard inflation this regression test pins).
func TestCmdLatencyCountedOncePerCommand(t *testing.T) {
	// Optimistic reads off so mget exercises the exec multi-shard path.
	s := startServer(t, WithShards(4), WithOptimisticReads(false))
	c := dial(t, s.Addr().String())

	// 32 keys spread across 4 shards: both commands touch several shards.
	var sb strings.Builder
	sb.WriteString("mset")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&sb, " %d %d", i, i)
	}
	if got := c.cmd(t, "%s", sb.String()); got != "STORED 32" {
		t.Fatalf("mset: %q", got)
	}
	mgetLines(t, c, 32)

	stats := c.lines(t, "stats")
	if got := statValue(t, stats, "cmd_mset_count"); got != 1 {
		t.Fatalf("cmd_mset_count = %d, want 1 (one command, one observation)", got)
	}
	if got := statValue(t, stats, "cmd_mget_count"); got != 1 {
		t.Fatalf("cmd_mget_count = %d, want 1 (one command, one observation)", got)
	}
}

// TestOptimisticReadsUnderWriteLoad is the no-livelock acceptance test:
// under a 100% write load on a single shard, every read still completes
// — the retry budget bounds the optimistic attempts and the locked path
// finishes the job, visible as a bounded fallback counter.
func TestOptimisticReadsUnderWriteLoad(t *testing.T) {
	s := startServer(t, WithShards(1), WithBuckets(64, 64)) // one stripe: every write collides
	addr := s.Addr().String()

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wc := dial(t, addr)
		wg.Add(1)
		go func(w int, wc *client) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := wc.cmd(t, "set %d %d", (w*1000+i)%64, i); got != "STORED" {
					t.Errorf("set: %q", got)
					return
				}
			}
		}(w, wc)
	}

	rc := dial(t, addr)
	const reads = 500
	for i := 0; i < reads; i++ {
		got := rc.cmd(t, "get %d", i%64)
		if !strings.HasPrefix(got, "VALUE") && got != "NOT_FOUND" {
			t.Fatalf("get under write load: %q", got)
		}
	}
	close(stop)
	wg.Wait()

	stats := rc.lines(t, "stats")
	optGets := statValue(t, stats, "map_opt_gets")
	retries := statValue(t, stats, "map_opt_retries")
	fallbacks := statValue(t, stats, "map_opt_fallbacks")
	t.Logf("under write load: opt_gets=%d retries=%d fallbacks=%d", optGets, retries, fallbacks)
	// Every read terminated (we got 500 responses); the retry budget is
	// the only thing bounding the optimistic attempts, so the attempt
	// count can never exceed budget * reads.
	if max := uint64(reads * 4); retries > max {
		t.Fatalf("opt_retries = %d > %d: retry budget not enforced", retries, max)
	}
	if optGets+fallbacks < reads {
		t.Fatalf("opt_gets+fallbacks = %d, want >= %d: some read bypassed both paths", optGets+fallbacks, reads)
	}
}

// TestCrashCampaignWithOptimisticReaders runs the Section 5.1-shaped
// workload (per-writer c1/high/c2 increment triples) against a server
// being crash-and-recovered mid-load while optimistic readers hammer
// the same keys lock-free, then checks Equations 1 and 2 on the final
// state — the recovery-observer argument end to end: lock-free readers
// add zero crash-consistency exposure.
func TestCrashCampaignWithOptimisticReaders(t *testing.T) {
	s := startServer(t, WithShards(2), WithDeviceWords(1<<18))
	addr := s.Addr().String()

	const (
		writers  = 4
		iters    = 120
		highKeys = 16
		crashes  = 3
	)
	highBase := harness.HighBase(writers)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wc := dial(t, addr)
		wg.Add(1)
		go func(w int, wc *client) {
			defer wg.Done()
			c1, c2 := harness.KeyC1(w), harness.KeyC2(w)
			for i := 0; i < iters; i++ {
				if got := wc.cmd(t, "incr %d 1", c1); strings.HasPrefix(got, "SERVER_ERROR") {
					t.Errorf("incr c1: %q", got)
					return
				}
				high := highBase + uint64((w*iters+i)%highKeys)
				if got := wc.cmd(t, "incr %d 1", high); strings.HasPrefix(got, "SERVER_ERROR") {
					t.Errorf("incr high: %q", got)
					return
				}
				if got := wc.cmd(t, "incr %d 1", c2); strings.HasPrefix(got, "SERVER_ERROR") {
					t.Errorf("incr c2: %q", got)
					return
				}
			}
		}(w, wc)
	}

	// Optimistic readers: per-key monotonicity of the c1 counters is the
	// linearizability property the seqlock must preserve across crashes.
	stopReaders := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rc := dial(t, addr)
		rg.Add(1)
		go func(rc *client) {
			defer rg.Done()
			last := make([]uint64, writers)
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				for w := 0; w < writers; w++ {
					got := rc.cmd(t, "get %d", harness.KeyC1(w))
					if got == "NOT_FOUND" {
						continue
					}
					fields := strings.Fields(got)
					if len(fields) != 3 || fields[0] != "VALUE" {
						t.Errorf("reader got %q", got)
						return
					}
					v, err := strconv.ParseUint(fields[2], 10, 64)
					if err != nil {
						t.Errorf("reader value: %v", err)
						return
					}
					if v < last[w] {
						t.Errorf("non-monotonic read of c1[%d]: %d after %d", w, v, last[w])
						return
					}
					last[w] = v
				}
			}
		}(rc)
	}

	// Crash injector: whole-server power failures while everything runs.
	cc := dial(t, addr)
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	for i := 0; i < crashes; i++ {
		// Pace each kill on actual write progress (or writer completion,
		// whichever first) so a crash always lands on live traffic.
		start := totalSets(s)
		waitFor(t, 10*time.Second, "write progress before crash", func() bool {
			select {
			case <-writersDone:
				return true
			default:
			}
			return totalSets(s)-start >= 50
		})
		if got := cc.cmd(t, "crash"); !strings.HasPrefix(got, "OK RECOVERED EPOCH ") {
			t.Fatalf("crash %d: %q", i, got)
		}
	}

	wg.Wait()
	close(stopReaders)
	rg.Wait()

	// The recovery observer's verdict on the quiescent store, over the
	// wire (Section 5.1, Equations 1 and 2).
	var sumC1, sumC2, sumHigh uint64
	get := func(key uint64) uint64 {
		got := cc.cmd(t, "get %d", key)
		if got == "NOT_FOUND" {
			return 0
		}
		fields := strings.Fields(got)
		v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", got, err)
		}
		return v
	}
	for w := 0; w < writers; w++ {
		c1, c2 := get(harness.KeyC1(w)), get(harness.KeyC2(w))
		if !(c2 <= c1 && c1 <= c2+1) {
			t.Fatalf("per-thread invariant violated for writer %d: c1=%d c2=%d", w, c1, c2)
		}
		sumC1 += c1
		sumC2 += c2
	}
	for k := uint64(0); k < highKeys; k++ {
		sumHigh += get(highBase + k)
	}
	diff := int64(sumC1) - int64(sumC2)
	if diff < 0 || diff > writers {
		t.Fatalf("Equation 1 violated: Σc1-Σc2 = %d, want [0,%d]", diff, writers)
	}
	if !(sumC1 >= sumHigh && sumHigh >= sumC2) {
		t.Fatalf("Equation 2 violated: Σc1=%d ΣH=%d Σc2=%d", sumC1, sumHigh, sumC2)
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	stats := cc.lines(t, "stats")
	if got := statValue(t, stats, "map_opt_gets"); got == 0 {
		t.Fatal("campaign readers never hit the optimistic path")
	}
	if got := statValue(t, stats, "recovery_count"); got < crashes {
		t.Fatalf("recovery_count = %d, want >= %d", got, crashes)
	}
}

// TestMGetSnapshotConsistency: an optimistic mget must be a cross-key
// SNAPSHOT, not merely a set of individually-valid reads. A writer
// loops msets that rewrite every key to one common value; a reader that
// catches key A from mset v and key B from mset v+1 has observed a
// mixture no locked reader could — per-key seqlock validation alone
// admits exactly that interleaving (read A, mset commits, read B). The
// group-level protections this test witnesses end to end: runBatch
// holds every stripe of an mset odd for its whole section, and
// readOptimistic's capture-all/revalidate-all protocol rejects any
// mget whose stripes moved between its first and last read.
func TestMGetSnapshotConsistency(t *testing.T) {
	s := startServer(t, WithShards(1))
	addr := s.Addr().String()

	// Enough keys that the walk from the mget's first read to its last
	// is a real window for a concurrent mset to land in.
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(i*97 + 3)
	}
	mset := func(v uint64) string {
		var sb strings.Builder
		sb.WriteString("mset")
		for _, k := range keys {
			fmt.Fprintf(&sb, " %d %d", k, v)
		}
		return sb.String()
	}
	mgetCmd := func() string {
		var sb strings.Builder
		sb.WriteString("mget")
		for _, k := range keys {
			fmt.Fprintf(&sb, " %d", k)
		}
		return sb.String()
	}()

	wc := dial(t, addr)
	stored := fmt.Sprintf("STORED %d", len(keys))
	if got := wc.cmd(t, "%s", mset(0)); got != stored {
		t.Fatalf("seed mset: %q", got)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for v := uint64(w*1_000_000 + 1); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := c.cmd(t, "%s", mset(v)); got != stored {
					t.Errorf("mset: %q", got)
					return
				}
			}
		}(w, c)
	}

	const readers = 3
	const reads = 800
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rc := dial(t, addr)
		rg.Add(1)
		go func(rc *client) {
			defer rg.Done()
			for i := 0; i < reads; i++ {
				lines := rc.lines(t, "%s", mgetCmd)
				if len(lines) != len(keys)+1 {
					t.Errorf("mget returned %d lines: %v", len(lines), lines)
					return
				}
				var first uint64
				for j, k := range keys {
					want := fmt.Sprintf("VALUE %d ", k)
					if !strings.HasPrefix(lines[j], want) {
						t.Errorf("mget line %d: %q", j, lines[j])
						return
					}
					v, err := strconv.ParseUint(strings.TrimPrefix(lines[j], want), 10, 64)
					if err != nil {
						t.Errorf("mget value: %v", err)
						return
					}
					if j == 0 {
						first = v
					} else if v != first {
						t.Errorf("torn mget snapshot: key %d = %d but key %d = %d", keys[0], first, k, v)
						return
					}
				}
			}
		}(rc)
	}
	rg.Wait()
	close(stop)
	wg.Wait()

	// The guarantee is only interesting if the lock-free path actually
	// served reads; an all-fallback run would pass vacuously.
	stats := wc.lines(t, "stats")
	if got := statValue(t, stats, "map_opt_gets"); got == 0 {
		t.Fatal("no mget ever hit the optimistic path")
	}
}

// TestMGetRejectsMidGroupCommit lands a full durable mset between two
// reads of one optimistic mget — deterministically, via the server's
// optReadHook — and asserts the group validation refuses to serve the
// result. This is the regression the capture-all/revalidate-all
// protocol exists for: both reads are INDIVIDUALLY valid (each key held
// a committed value at its read), but the pair never coexisted, and the
// old per-key validation would have returned the mixture. The timing
// race is unreachable on a single-core host, so the hook is what makes
// the hazard testable at all there.
func TestMGetRejectsMidGroupCommit(t *testing.T) {
	s := startServer(t, WithShards(1))
	wc := dial(t, s.Addr().String())
	const k1, k2 = 5, 9
	if got := wc.cmd(t, "mset %d 1 %d 1", k1, k2); got != "STORED 2" {
		t.Fatalf("seed mset: %q", got)
	}

	fired := false
	s.optReadHook = func(i int) {
		if fired {
			return
		}
		fired = true
		// A whole mset commits between the mget's two reads.
		if got := wc.cmd(t, "mset %d 2 %d 2", k1, k2); got != "STORED 2" {
			t.Errorf("mid-group mset: %q", got)
		}
	}
	defer func() { s.optReadHook = nil }()

	cs := s.newConnState()
	for _, k := range []uint64{k1, k2} {
		cs.refs = append(cs.refs, cs.plan.add(s.shardOf(k), batchOp{kind: opGet, key: k}, true))
	}
	served := s.readOptimistic(cs)
	if !fired {
		t.Fatal("interleaving hook never fired")
	}
	if served {
		t.Fatal("readOptimistic served the group: a mid-group commit must send the whole group to the locked fallback")
	}
}

// TestMultiFollowerFanout exercises the primary's one-to-many streaming
// (ROADMAP open item): two followers fed concurrently both converge,
// and after the primary dies either one can be promoted with Equations
// 1 and 2 intact — the replicated copy is always a group-prefix of the
// primary's commit order.
func TestMultiFollowerFanout(t *testing.T) {
	primary := startServer(t,
		WithReplListen("127.0.0.1:0"),
		WithShards(2),
		WithDeviceWords(1<<16),
	)
	replAddr := primary.ReplAddr().String()
	f1 := startServer(t, WithReplicaOf(replAddr), WithShards(2), WithDeviceWords(1<<16))
	f2 := startServer(t, WithReplicaOf(replAddr), WithShards(2), WithDeviceWords(1<<16))

	pc := dial(t, primary.Addr().String())
	waitReplFor(t, "both followers connected", func() bool {
		return primary.replPrimary.Followers() == 2
	})

	const (
		writers  = 3
		iters    = 50
		highKeys = 8
	)
	highBase := harness.HighBase(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wc := dial(t, primary.Addr().String())
		wg.Add(1)
		go func(w int, wc *client) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				wc.cmd(t, "incr %d 1", harness.KeyC1(w))
				wc.cmd(t, "incr %d 1", highBase+uint64((w*iters+i)%highKeys))
				wc.cmd(t, "incr %d 1", harness.KeyC2(w))
			}
		}(w, wc)
	}
	wg.Wait()

	nKeys := int(highBase) + highKeys
	f1c := dial(t, f1.Addr().String())
	f2c := dial(t, f2.Addr().String())
	waitReplFor(t, "follower 1 convergence", func() bool { return converged(t, pc, f1c, nKeys) })
	waitReplFor(t, "follower 2 convergence", func() bool { return converged(t, pc, f2c, nKeys) })

	// The primary's site is lost.
	primary.Close()

	checkInvariants := func(name string, c *client) {
		t.Helper()
		get := func(key uint64) uint64 {
			got := c.cmd(t, "get %d", key)
			if got == "NOT_FOUND" {
				return 0
			}
			fields := strings.Fields(got)
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", name, got, err)
			}
			return v
		}
		var sumC1, sumC2, sumHigh uint64
		for w := 0; w < writers; w++ {
			c1, c2 := get(harness.KeyC1(w)), get(harness.KeyC2(w))
			if !(c2 <= c1 && c1 <= c2+1) {
				t.Fatalf("%s: per-thread invariant violated: c1=%d c2=%d", name, c1, c2)
			}
			sumC1 += c1
			sumC2 += c2
		}
		for k := uint64(0); k < highKeys; k++ {
			sumHigh += get(highBase + k)
		}
		diff := int64(sumC1) - int64(sumC2)
		if diff < 0 || diff > writers {
			t.Fatalf("%s: Equation 1 violated: Σc1-Σc2 = %d", name, diff)
		}
		if !(sumC1 >= sumHigh && sumHigh >= sumC2) {
			t.Fatalf("%s: Equation 2 violated: Σc1=%d ΣH=%d Σc2=%d", name, sumC1, sumHigh, sumC2)
		}
		// Fully converged before the kill: the writers finished, so both
		// sums must agree exactly.
		if sumC1 != uint64(writers*iters) || sumC2 != uint64(writers*iters) {
			t.Fatalf("%s: Σc1=%d Σc2=%d, want both %d", name, sumC1, sumC2, writers*iters)
		}
	}

	// Promote each follower in turn; both must hold the invariants and
	// accept writes afterwards.
	for name, fc := range map[string]*client{"follower1": f1c, "follower2": f2c} {
		if got := fc.cmd(t, "promote"); got != "OK PROMOTED" {
			t.Fatalf("%s promote: %q", name, got)
		}
		checkInvariants(name, fc)
		if got := fc.cmd(t, "set 900000 1"); got != "STORED" {
			t.Fatalf("%s post-promote write: %q", name, got)
		}
	}
}
