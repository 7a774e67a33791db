package telemetry

import (
	"slices"
	"sync/atomic"
)

// ReplStats aggregates the replication tier's counters and the
// ack-driven lag histogram. Unlike the per-stack Registry sections it
// is server-wide — replication streams span shards — so the cache
// server owns one instance, rendered through ReplRows, whose help says
// what each field counts.
type ReplStats struct {
	GroupsStreamed, OpsStreamed, AcksReceived  Counter // a primary's stream
	Snapshots, SnapshotKeys                    Counter // a primary's state transfers
	GroupsApplied, OpsApplied, SnapshotsLoaded Counter // a follower's apply side
	Reconnects                                 Counter // a follower's redials

	Lag Histogram // a primary's commit-to-ack lag

	// The gauges are the stream's state, which the server sets before
	// it renders: its role (see SetRole), a primary's follower count and
	// log position, a follower's applied position.
	Role, Followers, LogGen, LogSeq, PosGen, PosSeq atomic.Uint64
}

// NewReplStats returns a zeroed bundle.
func NewReplStats() *ReplStats {
	return &ReplStats{}
}

// replRoles are the repl_role_<role> label values; Role holds a
// role's index plus one.
var replRoles = []string{"primary", "follower", "promoted"}

// SetRole sets the Role gauge from a role's name (0 for none).
func (r *ReplStats) SetRole(role string) { r.Role.Store(uint64(slices.Index(replRoles, role) + 1)) }

// ReplRows is the replication section's rows, rendered while the server
// has a replication role.
var ReplRows = newTable(ScopeServer, []Row[ReplStats]{
	{Desc: Desc{Name: "repl_role_<role>", Kind: KindGauge, Help: "1 for the server's replication role, 0 for the others"},
		labels: fixed[ReplStats](oneLabel(replRoles...)),
		read: func(r *ReplStats, i int, c *cell) {
			if r.Role.Load() == uint64(i+1) {
				c.v = 1
			}
		}},
	gauge("repl_followers", "followers attached to this primary", func(r *ReplStats) *atomic.Uint64 { return &r.Followers }),
	gauge("repl_log_gen", "the primary log's generation", func(r *ReplStats) *atomic.Uint64 { return &r.LogGen }),
	gauge("repl_log_seq", "the primary log's last sequence number", func(r *ReplStats) *atomic.Uint64 { return &r.LogSeq }),
	gauge("repl_pos_gen", "the generation a follower has applied", func(r *ReplStats) *atomic.Uint64 { return &r.PosGen }),
	gauge("repl_pos_seq", "the sequence number a follower has applied", func(r *ReplStats) *atomic.Uint64 { return &r.PosSeq }),
	counter("repl_groups_streamed", "committed groups sent to followers", func(r *ReplStats) *Counter { return &r.GroupsStreamed }),
	counter("repl_ops_streamed", "ops inside streamed groups", func(r *ReplStats) *Counter { return &r.OpsStreamed }),
	counter("repl_acks_received", "cumulative acks received from followers", func(r *ReplStats) *Counter { return &r.AcksReceived }),
	counter("repl_snapshots", "full state transfers served", func(r *ReplStats) *Counter { return &r.Snapshots }),
	counter("repl_snapshot_keys", "pairs sent in state transfers", func(r *ReplStats) *Counter { return &r.SnapshotKeys }),
	counter("repl_groups_applied", "groups a follower applied", func(r *ReplStats) *Counter { return &r.GroupsApplied }),
	counter("repl_ops_applied", "ops a follower applied", func(r *ReplStats) *Counter { return &r.OpsApplied }),
	counter("repl_snapshots_loaded", "full state transfers a follower installed", func(r *ReplStats) *Counter { return &r.SnapshotsLoaded }),
	counter("repl_reconnects", "follower dial attempts after the first", func(r *ReplStats) *Counter { return &r.Reconnects }),
	histogram("repl_lag", KindDuration, "a group's commit to its follower ack, at the primary", func(r *ReplStats) *Histogram { return &r.Lag }),
})
