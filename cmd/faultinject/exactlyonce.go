package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"tsp/internal/cacheserver"
)

// The exactly-once campaign drives a replicated primary/follower pair
// through a retry storm: every writer binds a session, tags every
// mutation with a seq, and SENDS EVERY REQUEST TWICE — the resend is
// the lost-ack retry every unreliable network eventually forces. Mid-
// storm the primary is power-failed and recovered; after the storm the
// follower is promoted and the writers replay their last request
// against it. The contract under test (see internal/cacheserver's
// session.go):
//
//   - every tier: a seq tag makes the write durable, so a resend NEVER
//     re-applies — it replays the recorded ack verbatim, across the
//     crash and on the promoted follower alike. A resend answering
//     anything else is a lost or double application, the bug this
//     campaign exists to catch.
//   - always:   after the storm, a read returns exactly the last
//     acknowledged value; nothing applied twice anywhere.
//
// Increments are the probe because they are not idempotent: one extra
// application is arithmetically visible forever.

// eoDelta is every increment's delta; acked totals are multiples of it.
const eoDelta = 3

// eoOps is the number of (request, resend) pairs each writer issues per
// cycle.
const eoOps = 12

// eoWriter is one session's state through a cycle.
type eoWriter struct {
	c    *durClient
	sess uint64
	key  uint64
	cmd  string // "incr" or "zincr"
	get  string // matching read command
	tier string // "" (durable) or " relaxed"
	seq  uint64
	last uint64 // value of the most recent (re)send's ack
}

// eoVal parses an incr/zincr ack: a bare integer on every tier, since a
// seq-tagged ack is the durable ack and carries no `@<epoch>` receipt.
func eoVal(rep string) (uint64, error) {
	v, err := strconv.ParseUint(rep, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("ack %q: %w", rep, err)
	}
	return v, nil
}

// sendTwice issues one seq-tagged increment and immediately retries it
// (the simulated lost ack): the retry must replay the first ack.
func (w *eoWriter) sendTwice() error {
	w.seq++
	line := fmt.Sprintf("%s %d %d seq=%d%s", w.cmd, w.key, eoDelta, w.seq, w.tier)
	rep1, err := w.c.cmd(line)
	if err != nil {
		return err
	}
	v1, err := eoVal(rep1)
	if err != nil {
		return fmt.Errorf("session %d seq %d: %w", w.sess, w.seq, err)
	}
	rep2, err := w.c.cmd(line)
	if err != nil {
		return err
	}
	v2, err := eoVal(rep2)
	if err != nil {
		return fmt.Errorf("session %d seq %d retry: %w", w.sess, w.seq, err)
	}
	if v2 != v1 {
		return fmt.Errorf("session %d seq %d:%s retry answered %d, first ack %d", w.sess, w.seq, w.tier, v2, v1)
	}
	w.last = v2
	return nil
}

// replayLast resends the writer's most recent request on conn c,
// returning the answered value.
func (w *eoWriter) replayLast(c *durClient) (uint64, error) {
	line := fmt.Sprintf("%s %d %d seq=%d%s", w.cmd, w.key, eoDelta, w.seq, w.tier)
	rep, err := c.cmd(line)
	if err != nil {
		return 0, err
	}
	return eoVal(rep)
}

// runExactlyOnceCycle boots a fresh primary/follower pair, runs the
// retry storm with one full-server crash at the halfway mark, then
// promotes the follower and holds both servers to the contract.
func runExactlyOnceCycle(cycle, writers int, seed int64) error {
	primary, err := cacheserver.New(
		cacheserver.WithShards(2),
		cacheserver.WithMaxConns(writers+4),
		cacheserver.WithReplListen("127.0.0.1:0"),
		cacheserver.WithEpochInterval(durEpochInterval),
	)
	if err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	go primary.Serve()
	defer primary.Close()
	follower, err := cacheserver.New(
		cacheserver.WithShards(2),
		cacheserver.WithMaxConns(writers+4),
		cacheserver.WithReplicaOf(primary.ReplAddr().String()),
		cacheserver.WithEpochInterval(durEpochInterval),
	)
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	go follower.Serve()
	defer follower.Close()
	addr := primary.Addr().String()

	// One writer per session: a third each durable incr, relaxed incr,
	// and durable zincr (the ordered keyspace rides the same window).
	ws := make([]*eoWriter, writers)
	for i := range ws {
		w := &eoWriter{
			sess: uint64(i + 1),
			key:  uint64(seed&0xff)<<40 | uint64(cycle)<<32 | uint64(i+1)<<8 | 1,
			cmd:  "incr", get: "get",
		}
		switch i % 3 {
		case 1:
			w.tier = " relaxed"
		case 2:
			w.cmd, w.get = "zincr", "zget"
		}
		c, err := durDial(addr)
		if err != nil {
			return err
		}
		defer c.conn.Close()
		if rep, err := c.cmd(fmt.Sprintf("session %d", w.sess)); err != nil || !strings.HasPrefix(rep, "OK SESSION") {
			return fmt.Errorf("session handshake: %q, %v", rep, err)
		}
		w.c = c
		ws[i] = w
	}

	// The storm: each writer signals the halfway mark; the main flow
	// power-fails every shard while the second half is still arriving.
	var half, all sync.WaitGroup
	errs := make(chan error, writers)
	half.Add(writers)
	all.Add(writers)
	for _, w := range ws {
		go func(w *eoWriter) {
			defer all.Done()
			for op := 0; op < eoOps; op++ {
				if op == eoOps/2 {
					half.Done()
				}
				if err := w.sendTwice(); err != nil {
					errs <- err
					// The halfway signal must fire even on early exit.
					if op < eoOps/2 {
						half.Done()
					}
					return
				}
			}
		}(w)
	}
	half.Wait()
	ctl, err := durDial(addr)
	if err != nil {
		return err
	}
	defer ctl.conn.Close()
	rep, err := ctl.cmd("crash")
	if err != nil {
		return err
	}
	if !strings.HasPrefix(rep, "OK RECOVERED EPOCH ") {
		return fmt.Errorf("crash reply: %q", rep)
	}
	all.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}

	// Settle: one replay per writer (the post-crash retry), which must
	// answer the last ack, then the read must agree with it exactly.
	for _, w := range ws {
		v, err := w.replayLast(w.c)
		if err != nil {
			return err
		}
		if v != w.last {
			return fmt.Errorf("session %d:%s replay answered %d, last ack %d", w.sess, w.tier, v, w.last)
		}
		rep, err := w.c.cmd(fmt.Sprintf("%s %d", w.get, w.key))
		if err != nil {
			return err
		}
		want := fmt.Sprintf("VALUE %d %d", w.key, w.last)
		if rep != want {
			return fmt.Errorf("session %d: read %q, want %q", w.sess, rep, want)
		}
	}

	// Failover: wait for the follower to converge, promote it, and
	// replay every writer's last request there. The records rode the
	// replication stream, so the promoted follower must suppress the
	// duplicates exactly as the primary would have.
	fc, err := durDial(follower.Addr().String())
	if err != nil {
		return err
	}
	defer fc.conn.Close()
	deadline := time.Now().Add(15 * time.Second)
	for _, w := range ws {
		want := fmt.Sprintf("VALUE %d %d", w.key, w.last)
		for {
			rep, err := fc.cmd(fmt.Sprintf("%s %d", w.get, w.key))
			if err != nil {
				return err
			}
			if rep == want {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("session %d: follower stuck at %q, want %q", w.sess, rep, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if rep, err := fc.cmd("promote"); err != nil || rep != "OK PROMOTED" {
		return fmt.Errorf("promote: %q, %v", rep, err)
	}
	for _, w := range ws {
		if rep, err := fc.cmd(fmt.Sprintf("session %d", w.sess)); err != nil || !strings.HasPrefix(rep, "OK SESSION") {
			return fmt.Errorf("follower session handshake: %q, %v", rep, err)
		}
		v, err := w.replayLast(fc)
		if err != nil {
			return err
		}
		if v != w.last {
			return fmt.Errorf("session %d: promoted follower answered replay with %d, want %d", w.sess, v, w.last)
		}
		// Fresh traffic continues on the new primary with the next seq.
		w.seq++
		line := fmt.Sprintf("%s %d %d seq=%d", w.cmd, w.key, eoDelta, w.seq)
		rep, err := fc.cmd(line)
		if err != nil {
			return err
		}
		v, err = eoVal(rep)
		if err != nil {
			return err
		}
		if v != w.last+eoDelta {
			return fmt.Errorf("session %d: fresh seq on follower answered %d, want %d", w.sess, v, w.last+eoDelta)
		}
	}
	return primary.VerifyAll()
}

// runExactlyOnce runs the campaign: n cycles, each against a fresh
// replicated pair. Reported in the scenario table's format; returns
// false if any cycle broke the exactly-once contract.
func runExactlyOnce(n, threads int, seed int64) bool {
	writers := threads
	if writers < 3 {
		writers = 3
	}
	consistent := 0
	var firstErr error
	for cycle := 0; cycle < n; cycle++ {
		if err := runExactlyOnceCycle(cycle, writers, seed); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		consistent++
	}
	campTel.Record(n, consistent)
	campTel.Crashes.Add(uint64(n))
	status := "OK"
	if consistent != n {
		status = "FAILED"
	}
	fmt.Printf("%-55s %3d/%3d consistent  %s\n", "exactly-once retries (repl pair) + crash + promote", consistent, n, status)
	if firstErr != nil {
		fmt.Printf("    failure: %v\n", firstErr)
	}
	return consistent == n
}
