package cacheserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tsp/internal/proto"
	"tsp/internal/telemetry"
)

// The commit plan's contract, checked against the one thing it must be
// indistinguishable from: the same commands served one at a time.

// serveBursts drives one simulated connection: every element of bursts
// is decoded (by a fresh decoder, whose read buffer holds it whole) and
// served as one batch. Returns the reply bytes.
func serveBursts(s *Server, bursts [][]byte) string {
	cs := s.newConnState()
	var out bytes.Buffer
	enc := proto.NewEncoder(&out, proto.Native{}, s.cfg.writeBuf)
	for _, b := range bursts {
		dec := proto.NewDecoder(bytes.NewReader(b), proto.Native{}, 0)
		for {
			batch, err := dec.Next()
			if len(batch) > 0 {
				s.serveBatch(cs, enc, batch)
				enc.Flush()
			}
			if err != nil {
				break
			}
		}
	}
	return out.String()
}

// regroup re-cuts a command stream into bursts of depth commands; a
// crash always travels alone, as a client that has just lost its
// server would send it.
func regroup(cmds []string, depth int) [][]byte {
	var bursts [][]byte
	var cur []byte
	n := 0
	flush := func() {
		if n > 0 {
			bursts = append(bursts, cur)
			cur, n = nil, 0
		}
	}
	for _, c := range cmds {
		if c == "crash" {
			flush()
		}
		cur = append(cur, c...)
		cur = append(cur, '\r', '\n')
		n++
		if n == depth || c == "crash" {
			flush()
		}
	}
	flush()
	return bursts
}

// planStream generates one writer's seeded command stream over its own
// keys (key%writers == w): plain set / incr / delete / get / mget /
// cross-shard mset / zadd, seq-tagged set, incr, delete, single- and
// cross-shard mset, word-for-word resends of the latest and of an older
// seq, and — when crashes is set — a crash followed by a resend of the
// last seq-tagged command.
func planStream(s *Server, seed int64, w, writers, n int, crashes bool) []string {
	rng := rand.New(rand.NewSource(seed))
	key := func() uint64 { return uint64(rng.Intn(24)*writers + w) }
	// sameShard returns k keys owned by one shard.
	sameShard := func(k int) []uint64 {
		first := key()
		out := []uint64{first}
		for len(out) < k {
			if c := key(); s.shardOf(c) == s.shardOf(first) {
				out = append(out, c)
			}
		}
		return out
	}
	pairs := func(keys []uint64) string {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, " %d %d", k, rng.Intn(1000))
		}
		return b.String()
	}
	cmds := []string{fmt.Sprintf("session %d", 100+w)}
	var sent []string // seq-tagged commands, in seq order
	tagged := func(c string) string {
		c = fmt.Sprintf("%s seq=%d", c, len(sent)+1)
		sent = append(sent, c)
		return c
	}
	for len(cmds) < n {
		var c string
		switch r := rng.Intn(100); {
		case r < 14:
			c = fmt.Sprintf("set %d %d", key(), rng.Intn(1000))
		case r < 26:
			c = fmt.Sprintf("incr %d %d", key(), 1+rng.Intn(9))
		case r < 32:
			c = fmt.Sprintf("delete %d", key())
		case r < 42:
			c = fmt.Sprintf("get %d", key())
		case r < 47:
			c = fmt.Sprintf("mget %d %d %d", key(), key(), key())
		case r < 53:
			c = "mset" + pairs([]uint64{key(), key(), key()})
		case r < 57:
			c = fmt.Sprintf("zadd %d %d", key(), rng.Intn(1000))
		case r < 66:
			c = tagged(fmt.Sprintf("set %d %d", key(), rng.Intn(1000)))
		case r < 78:
			c = tagged(fmt.Sprintf("incr %d %d", key(), 1+rng.Intn(9)))
		case r < 83:
			c = tagged(fmt.Sprintf("delete %d", key()))
		case r < 87:
			c = tagged("mset" + pairs(sameShard(3)))
		case r < 90:
			c = tagged("mset" + pairs([]uint64{key(), key(), key(), key()}))
		case r < 96 && len(sent) > 0:
			c = sent[len(sent)-1]
		case r < 98 && len(sent) > 2:
			c = sent[len(sent)-3]
		case crashes && len(sent) > 0:
			cmds = append(cmds, "crash")
			c = sent[len(sent)-1]
		default:
			continue
		}
		cmds = append(cmds, c)
	}
	return cmds
}

// sessionCounts sums the session verdict counters over every shard.
func sessionCounts(s *Server) (ops, dups, old uint64) {
	for _, sh := range s.shards {
		ops += sh.tel.Server.SessionOps.Load()
		dups += sh.tel.Server.SessionDups.Load()
		old += sh.tel.Server.SessionTooOld.Load()
	}
	return
}

// keyspace reads every shard's live contents whose keys keep admits
// (nil: all).
func keyspace(s *Server, keep func(uint64) bool) map[string]uint64 {
	out := map[string]uint64{}
	for _, sh := range s.shards {
		ops, _, _ := sh.state(keep)
		for _, p := range ops {
			out[fmt.Sprintf("%v/%d", p.List, p.Key)] = p.Val
		}
	}
	return out
}

// diffLines points at the first reply line two runs disagree on.
func diffLines(a, b string) string {
	al, bl := strings.Split(a, "\r\n"), strings.Split(b, "\r\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("reply line %d: depth-1 %q, burst %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("reply line counts differ: depth-1 %d, burst %d", len(al), len(bl))
}

// TestPlanBurstMatchesSequential is the differential test of the commit
// plan: the same seeded command streams served at depth 1 by one server
// and as depth-64 bursts by another must produce the same reply bytes,
// the same final keyspace and the same session verdict counts — one
// connection (with crashes between bursts, each followed by a resend of
// the last seq, which must replay), then two concurrent writers on
// disjoint keys.
func TestPlanBurstMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		writers int
		crashes bool
	}{
		{"one_connection", 1, true},
		{"two_writers", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				opts := []Option{WithShards(4), WithEpochInterval(0), WithDeviceWords(1 << 16)}
				seq, burst := startServer(t, opts...), startServer(t, opts...)
				replies := make([][2]string, tc.writers)
				var wg sync.WaitGroup
				for w := 0; w < tc.writers; w++ {
					cmds := planStream(seq, seed*10+int64(w), w, tc.writers, 700, tc.crashes)
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						replies[w][0] = serveBursts(seq, regroup(cmds, 1))
						replies[w][1] = serveBursts(burst, regroup(cmds, 64))
					}(w)
				}
				wg.Wait()
				for w := range replies {
					if replies[w][0] != replies[w][1] {
						t.Fatalf("seed %d writer %d: %s", seed, w, diffLines(replies[w][0], replies[w][1]))
					}
				}
				ks, kb := keyspace(seq, nil), keyspace(burst, nil)
				if len(ks) != len(kb) {
					t.Fatalf("seed %d: keyspace sizes differ: depth-1 %d, burst %d", seed, len(ks), len(kb))
				}
				for k, v := range ks {
					if kb[k] != v {
						t.Fatalf("seed %d: key %s = %d after bursts, %d at depth 1", seed, k, kb[k], v)
					}
				}
				so, sd, st := sessionCounts(seq)
				bo, bd, bt := sessionCounts(burst)
				if so != bo || sd != bd || st != bt {
					t.Fatalf("seed %d: session ops/dups/too-old = %d/%d/%d in bursts, %d/%d/%d at depth 1",
						seed, bo, bd, bt, so, sd, st)
				}
				if sd == 0 || st == 0 {
					t.Fatalf("seed %d: stream exercised %d dups and %d too-old verdicts, want both", seed, sd, st)
				}
				if err := burst.VerifyAll(); err != nil {
					t.Fatalf("seed %d: VerifyAll: %v", seed, err)
				}
			}
		})
	}
}

// TestPlanSessionVerdictsMatchSequential pins the verdict rule for
// seq-tagged commands that share a burst: the volatile pre-check reads
// the window as committed so far, so it may answer only when no earlier
// seq-tagged command of the burst is still pending on that shard —
// otherwise the executor, which sees the record those commands leave,
// decides. Each row sets the record with one depth-1 command, then
// sends the pending seqs and the new seq as ONE burst; the new seq's
// reply must be what sequential execution gives.
func TestPlanSessionVerdictsMatchSequential(t *testing.T) {
	const tooOld = "CLIENT_ERROR " + seqTooOldMsg
	for _, tc := range []struct {
		name    string
		record  int
		pending []int
		seq     int
		want    string
	}{
		// Key 7 starts absent and every command adds 1, so a fresh seq
		// answers the count of distinct seqs applied so far.
		{"dup_of_record", 5, nil, 5, "1"},
		{"older_than_record", 5, nil, 4, tooOld},
		{"fresh", 5, nil, 6, "2"},
		{"record_moved_by_pending", 5, []int{6}, 5, tooOld},
		{"dup_of_pending", 5, []int{6}, 6, "2"},
		{"dup_of_earlier_pending", 5, []int{6, 7}, 6, tooOld},
		{"dup_of_latest_pending", 5, []int{6, 7}, 7, "3"},
		{"fresh_after_pending", 5, []int{6, 7}, 8, "4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]string
			for mode, depth := range []int{1, 64} {
				s := startServer(t, WithShards(2), WithEpochInterval(0), WithDeviceWords(1<<16))
				cmds := []string{"session 9", fmt.Sprintf("incr 7 1 seq=%d", tc.record)}
				for _, p := range tc.pending {
					cmds = append(cmds, fmt.Sprintf("incr 7 1 seq=%d", p))
				}
				cmds = append(cmds, fmt.Sprintf("incr 7 1 seq=%d", tc.seq))
				// The handshake and the record-setting command go first, on
				// their own; the rest is the burst under test.
				bursts := append(regroup(cmds[:2], 1), regroup(cmds[2:], depth)...)
				lines := strings.Split(strings.TrimSuffix(serveBursts(s, bursts), "\r\n"), "\r\n")
				got[mode] = lines[len(lines)-1]
				wantDups, wantOld := uint64(0), uint64(0)
				switch {
				case tc.want == tooOld:
					wantOld = 1
				case tc.seq <= tc.record+len(tc.pending):
					wantDups = 1
				}
				if ops, dups, old := sessionCounts(s); ops != uint64(len(cmds)-1) || dups != wantDups || old != wantOld {
					t.Fatalf("depth %d: session ops/dups/too-old = %d/%d/%d, want %d/%d/%d",
						depth, ops, dups, old, len(cmds)-1, wantDups, wantOld)
				}
			}
			if got[0] != tc.want || got[1] != tc.want {
				t.Fatalf("reply at depth 1 %q, in a burst %q, want %q", got[0], got[1], tc.want)
			}
		})
	}
}

// TestPlanSessionedBurstSharesSections: seq tags are not sequence
// points. A depth-64 burst of durable sets, every one seq-tagged, on 4
// shards commits in at most one section per shard (it took 64 when each
// seq-tagged command was a section of its own).
func TestPlanSessionedBurstSharesSections(t *testing.T) {
	s := startServer(t, WithShards(4), WithEpochInterval(0))
	ocs := func() (n uint64) {
		for _, sh := range s.shards {
			n += sh.tel.Atlas.OCSCommits.Load()
		}
		return
	}
	cmds := []string{"session 3"}
	for k := 1; k <= 64; k++ {
		cmds = append(cmds, fmt.Sprintf("set %d %d seq=%d", k, k, k))
	}
	before := ocs()
	out := serveBursts(s, append(regroup(cmds[:1], 1), regroup(cmds[1:], 64)...))
	if want := "OK SESSION 3\r\n" + strings.Repeat("STORED\r\n", 64); out != want {
		t.Fatalf("replies: %q", out)
	}
	if got := ocs() - before; got > 4 {
		t.Fatalf("64 seq-tagged sets on 4 shards committed %d sections, want <= 4", got)
	}
	// Every record landed: a resend of each shard's latest seq replays.
	if _, dups, _ := sessionCounts(s); dups != 0 {
		t.Fatalf("session dups = %d before any resend", dups)
	}
	serveBursts(s, regroup([]string{"session 3", "set 64 64 seq=64"}, 64))
	if _, dups, _ := sessionCounts(s); dups != 1 {
		t.Fatalf("session dups = %d after one resend, want 1", dups)
	}
}

// TestPlanCutsAtCommandBoundaries: a burst that owes one shard more ops
// than a section holds is cut between commands, never inside one — ten
// 3-key msets with batchMax 8 commit as five sections of two whole
// msets each, where cutting at the bound would have made four (8+8+8+6)
// and torn three msets. A seq-tagged command in the middle keeps its
// ops and its record in one section too.
func TestPlanCutsAtCommandBoundaries(t *testing.T) {
	s := startServer(t, WithShards(1), WithBatchMax(8), WithEpochInterval(0))
	sh := s.shards[0]
	var cmds []string
	for c := 0; c < 10; c++ {
		cmds = append(cmds, fmt.Sprintf("mset %d 1 %d 2 %d 3", 3*c, 3*c+1, 3*c+2))
	}
	if got, want := serveBursts(s, regroup(cmds, 64)), strings.Repeat("STORED 3\r\n", 10); got != want {
		t.Fatalf("replies: %q", got)
	}
	if got := sh.tel.Server.Batches.Load(); got != 5 {
		t.Fatalf("sections = %d, want 5 (two whole msets each)", got)
	}
	if got := sh.tel.Server.BatchedOps.Load(); got != 30 {
		t.Fatalf("batched ops = %d, want 30", got)
	}
	if got := sh.tel.Server.BatchFallbacks.Load(); got != 0 {
		t.Fatalf("fallbacks = %d, want 0", got)
	}

	telemetry.Reset(telemetry.RegistryRows.Bind(sh.tel))
	cmds = []string{"session 5", "mset 1 1 2 2 3 3", "mset 4 4 5 5 6 6 seq=1", "mset 7 7 8 8 9 9"}
	if got, want := serveBursts(s, append(regroup(cmds[:1], 1), regroup(cmds[1:], 64)...)),
		"OK SESSION 5\r\n"+strings.Repeat("STORED 3\r\n", 3); got != want {
		t.Fatalf("replies around a sessioned mset: %q", got)
	}
	if got := sh.tel.Server.Batches.Load(); got != 2 {
		t.Fatalf("sections = %d, want 2 (3+3, then 3: the sessioned group is never split)", got)
	}
}
