package cacheserver

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCountsExactAtReplyTime: a section's counts are published before
// any of its replies is staged, so once a pipelined burst's last reply
// has been read, `stats` on another connection already shows the
// burst's op counts, its per-command latency counts and the Atlas and
// map counts exactly — the same numbers the registries hold after the
// server has shut down.
func TestCountsExactAtReplyTime(t *testing.T) {
	s := startServer(t, WithShards(2), WithEpochInterval(time.Hour))
	c, st := dial(t, s.Addr().String()), dial(t, s.Addr().String())
	before := st.lines(t, "stats")
	// stat is statValue with absence read as zero: a labelled histogram
	// renders only once it has observed something.
	stat := func(lines []string, name string) uint64 {
		for _, l := range lines {
			if v, ok := strings.CutPrefix(l, "STAT "+name+" "); ok {
				n, _ := strconv.ParseUint(v, 10, 64)
				return n
			}
		}
		return 0
	}

	var burst strings.Builder
	for k := 1; k <= 16; k++ {
		fmt.Fprintf(&burst, "set %d %d\r\n", k, 10*k)
	}
	for k := 9; k <= 24; k++ {
		fmt.Fprintf(&burst, "get %d\r\n", k)
	}
	burst.WriteString("incr 1 5\r\nincr 100 7\r\ndelete 2\r\ndelete 200\r\nmset 300 1 301 2\r\nmget 1 300 999\r\nget 3\r\n")
	if _, err := c.conn.Write([]byte(burst.String())); err != nil {
		t.Fatalf("write: %v", err)
	}
	var last string
	for i := 0; i < 16+16+2+2+1+4+1; i++ {
		last = c.line(t)
	}
	if last != "VALUE 3 30" {
		t.Fatalf("last reply %q, want VALUE 3 30", last)
	}
	after := st.lines(t, "stats")

	for name, want := range map[string]uint64{
		"server_sets": 16 + 2 + 2, "server_gets": 16 + 3 + 1, "server_hits": 8 + 2 + 1,
		"server_deletes": 2, "server_durable_ops": 16 + 2 + 2 + 1,
		"map_puts": 16 + 2, "map_incs": 2, "map_deletes": 2,
		"cmd_set_count": 16, "cmd_get_count": 17, "cmd_incr_count": 2,
		"cmd_delete_count": 2, "cmd_mset_count": 1, "cmd_mget_count": 1,
	} {
		if got := stat(after, name) - stat(before, name); got != want {
			t.Errorf("%s moved by %d over the burst, want %d", name, got, want)
		}
	}
	if got := stat(after, "map_gets") + stat(after, "map_opt_gets") -
		stat(before, "map_gets") - stat(before, "map_opt_gets"); got != 20 {
		t.Errorf("map reads moved by %d over the burst, want 20", got)
	}

	s.Close()
	settled := s.shards[0].tel.Counters().Add(s.shards[1].tel.Counters())
	for _, name := range []string{"atlas_log_appends", "atlas_ocs_commits", "map_gets", "map_puts",
		"map_incs", "map_deletes", "server_gets", "server_hits", "server_sets", "server_deletes", "server_batches"} {
		if got, want := statValue(t, after, name), settled[name]; got != want {
			t.Errorf("%s: stats showed %d at reply time, %d once the server stopped", name, got, want)
		}
	}
}
