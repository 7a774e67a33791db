package cacheserver

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"tsp/internal/proto"
)

// burstReader hands the decoder the same pipelined burst on every Read,
// so each Decoder.Next surfaces exactly one copy of it as one batch.
type burstReader struct{ burst []byte }

func (r *burstReader) Read(p []byte) (int, error) { return copy(p, r.burst), nil }

// TestWritePathAllocBudget pins the heap allocations of one trip
// through decoder → serveBatch → encoder for the shapes the write path
// is tuned for: a lone durable set on an idle shard (submit's
// own-goroutine arm: no queue hop, no channel, no group value
// allocated), a depth-64 pipelined burst fanned across four shards,
// and the same burst with every 8th command seq-tagged (the write_pipe
// shape; each trip resends the same seqs, so after the first they are
// duplicates or stale, answered by the volatile pre-check or the
// executor). The budgets are what this test measures: the commit plan
// and the reply being staged are scratch on the connection, so a trip
// allocates nothing but the text of the session handshake's reply.
// Epoch tiers are off so no background clock allocates into the
// measurement.
func TestWritePathAllocBudget(t *testing.T) {
	var burst, tagged strings.Builder
	tagged.WriteString("session 1\r\n")
	for k := 0; k < 64; k++ {
		fmt.Fprintf(&burst, "set %d %d\r\n", k, k)
		if k%8 == 7 {
			fmt.Fprintf(&tagged, "incr %d 1 seq=%d\r\n", k, k)
		} else {
			fmt.Fprintf(&tagged, "set %d %d\r\n", k, k)
		}
	}
	for _, tc := range []struct {
		name   string
		input  string
		budget float64
	}{
		{"lone_durable_set", "set 1 2\r\n", 0},
		{"depth64_burst", burst.String(), 0},
		{"depth64_burst_seq_every_8th", tagged.String(), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(WithShards(4), WithEpochInterval(0))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer s.Close()
			cs := s.newConnState()
			dec := proto.NewDecoder(&burstReader{burst: []byte(tc.input)}, proto.Native{}, 0)
			enc := proto.NewEncoder(io.Discard, proto.Native{}, s.cfg.writeBuf)
			trip := func() {
				batch, err := dec.Next()
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				s.serveBatch(cs, enc, batch)
				if err := enc.Flush(); err != nil {
					t.Fatalf("flush: %v", err)
				}
			}
			trip() // grow the per-connection scratch once
			if got := testing.AllocsPerRun(200, trip); got > tc.budget {
				t.Fatalf("allocs per trip = %.1f, budget %.0f", got, tc.budget)
			}
		})
	}
}

// TestRangeAllocBudget pins what a zrange allocates once the connection
// is warm: the per-shard runs and the merged result are scratch on the
// connection, so a trip allocates nothing (21 objects before the runs
// were kept: the runs slice, and each shard's run grown by append).
func TestRangeAllocBudget(t *testing.T) {
	s, err := New(WithShards(4), WithEpochInterval(0))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	var load strings.Builder
	for k := 0; k < 64; k++ {
		fmt.Fprintf(&load, "zadd %d %d\r\n", k*3, k)
	}
	cs := s.newConnState()
	enc := proto.NewEncoder(io.Discard, proto.Native{}, s.cfg.writeBuf)
	trip := func(input string) func() {
		dec := proto.NewDecoder(&burstReader{burst: []byte(input)}, proto.Native{}, 0)
		return func() {
			batch, err := dec.Next()
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			s.serveBatch(cs, enc, batch)
			if err := enc.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
		}
	}
	trip(load.String())()
	zrange := trip("zrange 10 1000 16\r\n")
	zrange() // grow the per-connection scratch once
	if got := testing.AllocsPerRun(200, zrange); got > 0 {
		t.Fatalf("allocs per zrange = %.1f, budget 0", got)
	}
}

// TestEpochCloseAllocBudget pins what an epoch close allocates. Over
// empty overlays — every close of an all-durable workload, 200 a second
// — only the wake broadcast's fresh channel (the channel and the cell
// the atomic pointer publishes). Over full ones, nothing that scales
// with the entries drained: the ops snapshot reuses the loop's
// per-shard buffer, so a second close of the same size adds only the
// fan-out's goroutines and the commit groups' fixed parts. The epoch
// loop is parked for an hour and nothing waits, so this goroutine can
// stand in for it as closeEpoch's one caller.
func TestEpochCloseAllocBudget(t *testing.T) {
	const perShard = 512
	s, err := New(WithShards(4), WithEpochInterval(time.Hour))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	if got := testing.AllocsPerRun(100, s.closeEpoch); got > 2 {
		t.Fatalf("close over empty overlays: %.1f allocs, want the broadcast channel's 2", got)
	}

	var keys []uint64
	for k, n := uint64(1), make([]int, len(s.shards)); len(keys) < perShard*len(n); k++ {
		if i := s.shardOf(k).idx; n[i] < perShard {
			n[i]++
			keys = append(keys, k)
		}
	}
	fill := func() {
		for _, k := range keys {
			s.shardOf(k).ovl.put(k, false, false, k, 0, 0, 0)
		}
	}
	fill()
	s.closeEpoch() // grows the buffers once
	first := make([]*batchOp, len(s.shards))
	for i, sh := range s.shards {
		if cap(sh.drainOps) < perShard {
			t.Fatalf("shard %d: ops buffer cap %d after draining %d entries", i, cap(sh.drainOps), perShard)
		}
		first[i] = &sh.drainOps[:1][0]
	}
	refill := testing.AllocsPerRun(10, fill)
	both := testing.AllocsPerRun(10, func() { fill(); s.closeEpoch() })
	for i, sh := range s.shards {
		if &sh.drainOps[:1][0] != first[i] {
			t.Fatalf("shard %d: a later close of the same size reallocated its ops buffer", i)
		}
	}
	// Growing one ops slice from nil to 512 entries is ten allocations;
	// a close that allocated any would exceed this budget.
	if got := both - refill; got > 4*float64(len(s.shards)) {
		t.Fatalf("close over %d entries a shard: %.1f allocs (fill alone %.1f)", perShard, got, refill)
	}
	t.Logf("close over %d entries a shard: %.1f allocs", perShard, both-refill)
	for _, sh := range s.shards {
		if n := sh.ovl.size.Load(); n != 0 {
			t.Fatalf("shard %d: %d entries left after the close", sh.idx, n)
		}
	}
}
