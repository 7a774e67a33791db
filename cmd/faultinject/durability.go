package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"tsp/internal/cacheserver"
)

// The durability-tier campaign crashes the full cache server — not just
// a storage stack — under mixed-tier traffic arriving over real TCP:
// durable writers whose every ack is a commitment, relaxed writers whose
// acks carry `@<epoch>` receipts redeemable against the crash reply's
// persistent frontier, and barrier writers who close each relaxed burst
// with `wait`. Each cycle crashes every shard mid-conversation — one more
// barrier parked across the crash, so it lands inside the close that
// barrier demanded — parses the `OK RECOVERED EPOCH <p>` receipt, and
// holds each tier to its contract:
//
//   - durable:   every acked write survives, exactly (last ack == read).
//   - wait:      every barrier-covered relaxed write survives.
//   - relaxed:   the recovered value is one of the acked values; every
//     write whose stamp was at or below the frontier p survives; only
//     writes stamped above p — at most one epoch interval's worth, the
//     paper's timeliness bound — may be shed.
//
// Values per key are strictly increasing, so "survives" is checkable as
// an interval bound on the single recovered value, the same discipline
// the multi-engine campaign uses.

// durSlots is the per-writer key-slot count.
const durSlots = 8

// durEpochInterval is the campaign server's epoch period: short, so
// every cycle spans many epoch closes.
const durEpochInterval = 2 * time.Millisecond

// durSlot tracks one key's acked history. For durable and wait-covered
// keys only the last covered value matters; relaxed keys keep every
// (value, stamp) ack so the frontier bound can be evaluated after the
// crash reveals p.
type durSlot struct {
	key     uint64
	acks    []durAck // relaxed: every ack this cycle, stamps nondecreasing
	covered uint64   // durable/wait: last value guaranteed to survive
	wrote   bool     // any covered write ever issued (absence illegal after)
	prev    uint64   // relaxed: value recovered last cycle (now durable)
}

type durAck struct {
	val   uint64
	epoch uint64
}

// durClient is one writer's connection with line-oriented helpers.
type durClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func durDial(addr string) (*durClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &durClient{conn: conn, r: bufio.NewReader(conn)}, nil
}

// cmd writes one request line and returns the single reply line.
func (c *durClient) cmd(line string) (string, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\r\n", line); err != nil {
		return "", err
	}
	rep, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(rep, "\r\n"), nil
}

// parseStamp extracts the epoch from a "STORED @<e>" ack.
func parseStamp(rep string) (uint64, error) {
	i := strings.LastIndexByte(rep, '@')
	if i < 0 {
		return 0, fmt.Errorf("ack %q carries no epoch stamp", rep)
	}
	return strconv.ParseUint(rep[i+1:], 10, 64)
}

// runDurabilityOnce drives one crash cycle's writers against the shared
// server, crashes, and verifies every tier's contract. The slot state
// persists across cycles (values keep climbing); acks reset because a
// crash resolves them.
func runDurabilityOnce(addr string, cycle int, durable, relaxed, barrier [][]durSlot, next *uint64) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(durable)+len(relaxed)+len(barrier))

	// Durable writers: request/response sets, every ack a commitment.
	for w := range durable {
		wg.Add(1)
		go func(slots []durSlot) {
			defer wg.Done()
			c, err := durDial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.conn.Close()
			for op := 0; op < 6*durSlots; op++ {
				st := &slots[op%durSlots]
				v := *next + uint64(cycle*1000+op)
				rep, err := c.cmd(fmt.Sprintf("set %d %d", st.key, v))
				if err != nil {
					errs <- err
					return
				}
				if !strings.HasPrefix(rep, "STORED") {
					errs <- fmt.Errorf("durable set: %q", rep)
					return
				}
				st.covered, st.wrote = v, true
			}
		}(durable[w])
	}

	// Relaxed writers: every ack records its epoch stamp for the
	// post-crash frontier check.
	for w := range relaxed {
		wg.Add(1)
		go func(slots []durSlot) {
			defer wg.Done()
			c, err := durDial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.conn.Close()
			for op := 0; op < 24*durSlots; op++ {
				st := &slots[op%durSlots]
				v := *next + uint64(cycle*1000+op)
				rep, err := c.cmd(fmt.Sprintf("set %d %d relaxed", st.key, v))
				if err != nil {
					errs <- err
					return
				}
				e, err := parseStamp(rep)
				if err != nil {
					errs <- err
					return
				}
				st.acks = append(st.acks, durAck{val: v, epoch: e})
			}
		}(relaxed[w])
	}

	// Barrier writers: relaxed bursts closed by one wait each. Once the
	// wait returns, the whole burst is crash-proof.
	for w := range barrier {
		wg.Add(1)
		go func(slots []durSlot) {
			defer wg.Done()
			c, err := durDial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.conn.Close()
			for burst := 0; burst < 4; burst++ {
				staged := make([]uint64, durSlots)
				for i := range slots {
					v := *next + uint64(cycle*1000+burst*durSlots+i)
					rep, err := c.cmd(fmt.Sprintf("set %d %d relaxed", slots[i].key, v))
					if err != nil {
						errs <- err
						return
					}
					if _, err := parseStamp(rep); err != nil {
						errs <- err
						return
					}
					staged[i] = v
				}
				if _, err := c.cmd("wait"); err != nil {
					errs <- err
					return
				}
				for i := range slots {
					slots[i].covered, slots[i].wrote = staged[i], true
				}
			}
		}(barrier[w])
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	*next += uint64(1000000)

	// Crash every shard and redeem the receipt — while a second
	// connection parks in `wait`: its barrier demands a close of whatever
	// the relaxed writers left pending, so every cycle races the crash
	// against a demanded drain running on every shard at once. Whichever
	// wins, the tier contracts below are the check; the barrier itself
	// covers no write, so any well-formed answer to it is legal.
	ctl, err := durDial(addr)
	if err != nil {
		return err
	}
	defer ctl.conn.Close()
	parked, err := durDial(addr)
	if err != nil {
		return err
	}
	defer parked.conn.Close()
	if _, err := fmt.Fprintf(parked.conn, "wait 0 2000\r\n"); err != nil {
		return err
	}
	rep, err := ctl.cmd("crash")
	if err != nil {
		return err
	}
	waited, err := parked.r.ReadString('\n')
	if err != nil {
		return fmt.Errorf("wait parked across the crash: %w", err)
	}
	waited = strings.TrimRight(waited, "\r\n")
	if _, err := strconv.ParseUint(waited, 10, 64); err != nil && waited != "SERVER_ERROR wait timeout" {
		return fmt.Errorf("wait parked across the crash: %q", waited)
	}
	if !strings.HasPrefix(rep, "OK RECOVERED EPOCH ") {
		return fmt.Errorf("crash reply: %q", rep)
	}
	frontier, err := strconv.ParseUint(strings.TrimPrefix(rep, "OK RECOVERED EPOCH "), 10, 64)
	if err != nil {
		return fmt.Errorf("crash reply %q: %w", rep, err)
	}

	read := func(key uint64) (uint64, bool, error) {
		rep, err := ctl.cmd(fmt.Sprintf("get %d", key))
		if err != nil {
			return 0, false, err
		}
		if rep == "NOT_FOUND" {
			return 0, false, nil
		}
		f := strings.Fields(rep)
		if len(f) != 3 || f[0] != "VALUE" {
			return 0, false, fmt.Errorf("get %d: %q", key, rep)
		}
		v, err := strconv.ParseUint(f[2], 10, 64)
		return v, true, err
	}

	// Covered tiers (durable acks, wait-covered bursts): exact survival.
	for _, group := range [][][]durSlot{durable, barrier} {
		for _, slots := range group {
			for i := range slots {
				st := &slots[i]
				got, found, err := read(st.key)
				if err != nil {
					return err
				}
				if st.wrote && !found {
					return fmt.Errorf("key %#x: covered value %d lost entirely", st.key, st.covered)
				}
				if found && got != st.covered {
					return fmt.Errorf("key %#x: covered value %d, recovered %d", st.key, st.covered, got)
				}
			}
		}
	}

	// Relaxed tier: the frontier bound. mustSurvive is the largest value
	// stamped at or below p; the recovered value must be an acked value
	// at or above it (losses are only ever a suffix stamped above p).
	for _, slots := range relaxed {
		for i := range slots {
			st := &slots[i]
			var mustSurvive, lastAcked uint64
			ackedSet := map[uint64]uint64{} // val -> stamp
			for _, a := range st.acks {
				ackedSet[a.val] = a.epoch
				if a.epoch <= frontier && a.val > mustSurvive {
					mustSurvive = a.val
				}
				if a.val > lastAcked {
					lastAcked = a.val
				}
			}
			got, found, err := read(st.key)
			if err != nil {
				return err
			}
			if !found {
				if mustSurvive > 0 {
					return fmt.Errorf("key %#x: value %d stamped <= frontier %d lost", st.key, mustSurvive, frontier)
				}
				if st.prev > 0 {
					return fmt.Errorf("key %#x: previously recovered (durable) value %d vanished", st.key, st.prev)
				}
				st.acks = st.acks[:0]
				continue
			}
			stamp, acked := ackedSet[got]
			switch {
			case acked:
				// This cycle's ack: must cover the frontier and not exceed
				// what was acknowledged.
				if got < mustSurvive {
					return fmt.Errorf("key %#x: recovered %d (stamp %d) below frontier-covered value %d (frontier %d)",
						st.key, got, stamp, mustSurvive, frontier)
				}
				if got > lastAcked {
					return fmt.Errorf("key %#x: recovered %d above last ack %d", st.key, got, lastAcked)
				}
			case got == st.prev && mustSurvive == 0:
				// The whole cycle's relaxed suffix was stamped above the
				// frontier and legally shed; the prior survivor resurfaced.
			default:
				return fmt.Errorf("key %#x: recovered %d was never acked (frontier %d, must-survive %d, prev %d)",
					st.key, got, frontier, mustSurvive, st.prev)
			}
			st.prev = got
			st.acks = st.acks[:0]
		}
	}
	return nil
}

// runDurability runs the mixed-tier campaign: one shared server, n crash
// cycles, writer state persisting across cycles so later cycles verify
// earlier cycles' survivors too. Reported in the scenario table's
// format; returns false if any cycle broke a tier's contract.
func runDurability(n, threads int, seed int64) bool {
	srv, err := cacheserver.New(
		cacheserver.WithShards(2),
		cacheserver.WithMaxConns(threads+4),
		cacheserver.WithEpochInterval(durEpochInterval),
	)
	if err != nil {
		fmt.Printf("%-55s FAILED to start: %v\n", "durability tiers (cacheserver) + crash", err)
		return false
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()

	perTier := threads / 3
	if perTier < 1 {
		perTier = 1
	}
	mkSlots := func(tier uint64, writers int) [][]durSlot {
		out := make([][]durSlot, writers)
		for w := range out {
			out[w] = make([]durSlot, durSlots)
			for i := range out[w] {
				out[w][i].key = tier<<60 | uint64(seed&0xff)<<40 | uint64(w)<<32 | uint64(i+1)
			}
		}
		return out
	}
	durable := mkSlots(1, perTier)
	relaxed := mkSlots(2, perTier)
	barrier := mkSlots(3, perTier)

	next := uint64(seed%1000) + 1
	consistent := 0
	var firstErr error
	for cycle := 0; cycle < n; cycle++ {
		if err := runDurabilityOnce(addr, cycle, durable, relaxed, barrier, &next); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		consistent++
	}

	// Final integrity pass: the recovered stacks must still satisfy the
	// map and skip-list invariants after the whole crash storm.
	verifyErr := srv.VerifyAll()

	campTel.Record(n, consistent)
	campTel.Crashes.Add(uint64(n))
	status := "OK"
	if consistent != n || verifyErr != nil {
		status = "FAILED"
	}
	fmt.Printf("%-55s %3d/%3d consistent  %s\n", "durability tiers (cacheserver) + crash", consistent, n, status)
	if firstErr != nil {
		fmt.Printf("    failure: %v\n", firstErr)
	}
	if verifyErr != nil {
		fmt.Printf("    verify: %v\n", verifyErr)
	}
	return consistent == n && verifyErr == nil
}
