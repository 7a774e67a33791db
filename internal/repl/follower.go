package repl

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsp/internal/telemetry"
)

// Applier is the surface a follower applies replicated state through.
// The cache server implements it over the same sharded stack API that
// serves clients, so replicated data lands with identical persistence
// semantics. Calls arrive from a single goroutine, in stream order.
type Applier interface {
	// Wipe deletes all local keys; called when a state transfer begins
	// so the transferred state replaces, not merges with, whatever the
	// follower held. Session dedup windows are NOT wiped: records
	// already inherited must keep suppressing retries across a
	// re-snapshot (upserts are guarded by sequence, so replaying the
	// incoming window over them converges).
	Wipe() error
	// Apply applies one state frame or committed group: the ops in
	// order, each session mark atomically with the ops on the mark's
	// shard, and a non-zero evicted-seq floor merged into the local
	// dedup window.
	Apply(ops []Op, marks []SessRec, floor uint64) error
}

// FollowerConfig configures a replication client.
type FollowerConfig struct {
	// Addr is the primary's replication listener address. Required.
	Addr string
	// Applier receives replicated state. Required.
	Applier Applier
	// Tel receives the follower-side replication counters. Optional
	// (nil-safe: a fresh bundle is substituted).
	Tel *telemetry.ReplStats
	// Logf, when set, receives human-readable connection events.
	Logf func(format string, args ...any)
}

// Follower maintains a connection to a primary, applying the streamed
// groups and snapshots and acknowledging applied sequence numbers. It
// redials with backoff on any error; its position survives reconnects
// so catch-up inside the primary's log window avoids a state transfer.
type Follower struct {
	cfg     FollowerConfig
	wg      sync.WaitGroup
	stopped atomic.Bool

	mu    sync.Mutex
	conn  net.Conn
	gen   uint64 // position applied through; 0 ⇒ needs snapshot
	seq   uint64
	epoch uint64 // highest durability epoch seen on an applied group
}

// StartFollower begins replicating from the primary at cfg.Addr.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Addr == "" || cfg.Applier == nil {
		return nil, fmt.Errorf("repl: FollowerConfig needs Addr and Applier")
	}
	if cfg.Tel == nil {
		cfg.Tel = telemetry.NewReplStats()
	}
	f := &Follower{cfg: cfg}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Position returns the (generation, sequence) the follower has applied
// through; generation 0 means it has no usable position and will
// request a snapshot on its next connection.
func (f *Follower) Position() (gen, seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen, f.seq
}

// LastEpoch returns the highest durability epoch stamped on any group
// this follower has applied (0 before the first epoch-stamped group).
// After promotion it tells an operator how far the primary's relaxed
// frontier had propagated here.
func (f *Follower) LastEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Stop severs the connection and waits for the replication goroutine
// to exit. The follower does not reconnect afterwards; promotion stops
// replication exactly this way before writes are enabled.
func (f *Follower) Stop() {
	if !f.stopped.CompareAndSwap(false, true) {
		return
	}
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// run is the dial-stream-redial loop.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := 25 * time.Millisecond
	first := true
	for !f.stopped.Load() {
		if !first {
			f.cfg.Tel.Reconnects.Inc()
		}
		first = false
		conn, err := net.DialTimeout("tcp", f.cfg.Addr, 2*time.Second)
		if err != nil {
			f.sleep(backoff)
			if backoff *= 2; backoff > 500*time.Millisecond {
				backoff = 500 * time.Millisecond
			}
			continue
		}
		backoff = 25 * time.Millisecond
		f.mu.Lock()
		if f.stopped.Load() {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conn = conn
		f.mu.Unlock()
		if err := f.stream(conn); err != nil && !f.stopped.Load() {
			f.logf("repl: follower: %v (reconnecting)", err)
		}
		conn.Close()
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}
}

// sleep waits d or until Stop, polling cheaply.
func (f *Follower) sleep(d time.Duration) {
	const step = 10 * time.Millisecond
	for d > 0 && !f.stopped.Load() {
		s := step
		if d < s {
			s = d
		}
		time.Sleep(s)
		d -= s
	}
}

// stream runs one connection: hello with the current position, then
// apply frames until error or stop.
func (f *Follower) stream(conn net.Conn) error {
	gen, seq := f.Position()
	w := NewWriter(conn)
	if err := w.Hello(gen, seq); err != nil {
		return err
	}
	f.logf("repl: follower connected to %s at gen %d seq %d", f.cfg.Addr, gen, seq)

	rd := NewReader(conn)
	// Position announced by an in-flight snapshot; committed only at
	// FrameSnapshotEnd so a transfer severed halfway leaves the
	// follower positionless and forces a fresh snapshot on reconnect.
	var pendGen, pendSeq uint64
	for {
		m, err := rd.Next()
		if err != nil {
			return err
		}
		switch m.Frame {
		case FrameSnapshotBegin:
			pendGen, pendSeq = m.Gen, m.Seq
			// Invalidate the position before touching local state: from
			// here until SnapshotEnd the local copy matches no log
			// position.
			f.setPosition(0, 0)
			if err := f.cfg.Applier.Wipe(); err != nil {
				return err
			}
		case FrameState:
			if err := f.cfg.Applier.Apply(m.Ops, m.Marks, m.Floor); err != nil {
				return err
			}
		case FrameSnapshotEnd:
			f.setPosition(pendGen, pendSeq)
			f.cfg.Tel.SnapshotsLoaded.Inc()
			if err := w.Ack(pendGen, pendSeq); err != nil {
				return err
			}
		case FrameGroup:
			if err := f.cfg.Applier.Apply(m.Ops, m.Marks, 0); err != nil {
				// Local apply failure means the copy may have diverged;
				// drop the position so reconnect takes a fresh snapshot.
				f.setPosition(0, 0)
				return err
			}
			f.cfg.Tel.GroupsApplied.Inc()
			f.cfg.Tel.OpsApplied.Add(uint64(len(m.Ops)))
			f.mu.Lock()
			f.seq = m.Seq
			ackGen := f.gen
			if m.Epoch > f.epoch {
				f.epoch = m.Epoch
			}
			f.mu.Unlock()
			if err := w.Ack(ackGen, m.Seq); err != nil {
				return err
			}
		default:
			return fmt.Errorf("repl: unexpected frame type %d", m.Frame)
		}
	}
}

func (f *Follower) setPosition(gen, seq uint64) {
	f.mu.Lock()
	f.gen = gen
	f.seq = seq
	f.mu.Unlock()
}
