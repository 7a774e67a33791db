package cacheserver

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"tsp/internal/proto"
)

// burstReader hands the decoder the same pipelined burst on every Read,
// so each Decoder.Next surfaces exactly one copy of it as one batch.
type burstReader struct{ burst []byte }

func (r *burstReader) Read(p []byte) (int, error) { return copy(p, r.burst), nil }

// TestWritePathAllocBudget pins the heap allocations of one trip
// through decoder → serveBatch → encoder for the two shapes the write
// path is tuned for: a lone durable set on an idle shard (submit's
// own-goroutine arm: no queue hop, no channel, no group value
// allocated) and a depth-64 pipelined burst fanned across four shards.
// The budgets are what the commit before the single write path
// measured with this same test — the one executor may not cost more
// than the paths it replaced (it measures 1 and 75: the section
// closure for the lone set; for the burst, one staged reply per
// command plus the four-way split). Epoch tiers are off so no
// background clock allocates into the measurement.
func TestWritePathAllocBudget(t *testing.T) {
	var burst strings.Builder
	for k := 0; k < 64; k++ {
		fmt.Fprintf(&burst, "set %d %d\r\n", k, k)
	}
	for _, tc := range []struct {
		name   string
		input  string
		budget float64
	}{
		{"lone_durable_set", "set 1 2\r\n", 2},
		{"depth64_burst", burst.String(), 114},
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
