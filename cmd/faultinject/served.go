package main

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tsp/internal/cacheserver"
	"tsp/internal/cluster"
)

// errKilled is a step's error once mid has killed its server: it ends
// that writer, not the storm.
var errKilled = errors.New("server killed")

// storm runs writers at once, each taking steps 0 to ops-1. mid, unless
// nil, runs once every writer is halfway (or has stopped), alongside
// the second half. It returns the first error but errKilled.
func storm(writers, ops int, step func(g, op int) error, mid func() error) error {
	var half, all sync.WaitGroup
	half.Add(writers)
	all.Add(writers)
	errs := make(chan error, writers+1) // one per writer and one for mid
	for g := 0; g < writers; g++ {
		go func() {
			defer all.Done()
			op := 0
			for ; op < ops; op++ {
				if op == ops/2 {
					half.Done()
				}
				if err := step(g, op); err != nil {
					if err != errKilled {
						errs <- err
					}
					break
				}
			}
			if op < ops/2 {
				half.Done()
			}
		}()
	}
	if mid != nil {
		half.Wait()
		if err := mid(); err != nil {
			errs <- err
		}
	}
	all.Wait()
	close(errs)
	return <-errs
}

// serve starts a two-shard server whose epoch clock ticks every 2 ms,
// so a cycle spans many epoch closes.
func serve(opts ...cacheserver.Option) (*cacheserver.Server, error) {
	srv, err := cacheserver.New(append([]cacheserver.Option{
		cacheserver.WithShards(2), cacheserver.WithEpochInterval(2 * time.Millisecond)}, opts...)...)
	if err == nil {
		go srv.Serve()
	}
	return srv, err
}

// durSlots is each durability writer's key count.
const durSlots = 8

// runDurability crashes one server n times. Its writers' histories
// carry from cycle to cycle, so a later cycle checks an earlier one's
// survivors too. A third of the writers each set durably (6 rounds of
// their slots a cycle), set relaxed (24 rounds), and set relaxed
// closing each round with `wait` (4 rounds).
func runDurability(n, threads int, seed int64) bool {
	const name = "durability tiers (cacheserver) + crash"
	srv, err := serve(cacheserver.WithMaxConns(threads + 4))
	if err != nil {
		return report(name, n, func(int) error { return err })
	}
	defer srv.Close()
	addr := srv.Addr().String()
	perTier := max(threads/3, 1)
	hists := make([][]keyHist, 3*perTier) // writer g's tier is g/perTier
	for g := range hists {
		hists[g] = make([]keyHist, durSlots)
		for i := range hists[g] {
			hists[g][i].key = uint64(g/perTier+1)<<60 | uint64(seed&0xff)<<40 | uint64(g%perTier)<<32 | uint64(i+1)
		}
	}
	rounds := []int{6, 24, 4}
	return report(name, n, func(cycle int) error {
		var cs conns
		defer cs.close()
		ws := make([]*client, len(hists))
		for g := range ws {
			c, err := cs.dial(addr)
			if err != nil {
				return err
			}
			ws[g] = c
		}
		base := uint64(seed%1000+1) + uint64(cycle)*1_001_000
		if err := storm(len(ws), 24*durSlots, func(g, op int) error {
			h, c, v, tier := &hists[g][op%durSlots], ws[g], base+uint64(op), g/perTier
			switch {
			case op >= rounds[tier]*durSlots:
				return nil
			case tier == 0:
				return c.set(h, v, "")
			case tier == 1 || op%durSlots < durSlots-1:
				return c.set(h, v, " relaxed")
			}
			if err := c.set(h, v, " relaxed"); err != nil {
				return err
			}
			if _, err := c.cmd("wait"); err != nil {
				return err
			}
			for i := range hists[g] {
				hists[g][i].cover()
			}
			return nil
		}, nil); err != nil {
			return err
		}

		// The parked barrier covers no write: any well-formed answer to
		// it is legal.
		ctl, err := cs.dial(addr)
		if err != nil {
			return err
		}
		parked, err := cs.dial(addr)
		if err == nil {
			_, err = fmt.Fprintf(parked.conn, "wait 0 2000\r\n")
		}
		if err != nil {
			return err
		}
		p, err := ctl.crash()
		if err != nil {
			return err
		}
		rep, err := parked.line()
		if _, perr := strconv.ParseUint(rep, 10, 64); err != nil || perr != nil && rep != "SERVER_ERROR wait timeout" {
			return fmt.Errorf("wait parked across the crash: %q, %v", rep, err)
		}
		for g := range hists {
			for i := range hists[g] {
				got, err := ctl.read("get", hists[g][i].key)
				if err == nil {
					err = hists[g][i].check(got, p)
				}
				if err != nil {
					return err
				}
			}
		}
		if cycle == n-1 {
			return srv.VerifyAll()
		}
		return nil
	})
}

// sessions binds one writer per session on addr: a third each durable
// incr, relaxed incr and durable zincr, writer i on key base|(i+1)<<8.
func sessions(cs *conns, addr string, n int, base uint64) ([]*writer, error) {
	ws := make([]*writer, n)
	for i := range ws {
		w := &writer{keyHist: keyHist{key: base | uint64(i+1)<<8}, sess: uint64(i + 1), cmd: "incr", get: "get"}
		switch i % 3 {
		case 1:
			w.tier = " relaxed"
		case 2:
			w.cmd, w.get = "zincr", "zget"
		}
		c, err := cs.dial(addr)
		if err == nil {
			_, err = c.expect("OK SESSION", "session %d", w.sess)
		}
		if err != nil {
			return nil, err
		}
		w.c, ws[i] = c, w
	}
	return ws, nil
}

// sessionStorm runs ops sends of every writer with crash, which returns
// the receipt's frontier, at the halfway mark. Then each writer's last
// seq is resent, and a read after a `wait` is checked.
func sessionStorm(ws []*writer, ops int, crash func() (uint64, error)) error {
	var p uint64
	mid := func() (err error) {
		p, err = crash()
		return err
	}
	if err := storm(len(ws), ops, func(g, _ int) error { return ws[g].send() }, mid); err != nil {
		return err
	}
	for _, w := range ws {
		if err := w.resend(w.c, "after the crash"); err != nil {
			return err
		}
		if _, err := w.c.cmd("wait"); err != nil {
			return err
		}
		got, err := w.c.read(w.get, w.key)
		if err == nil {
			err = w.check(got, p)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runExactlyOnce runs n cycles, each on a fresh primary/follower pair.
func runExactlyOnce(n, threads int, seed int64) bool {
	writers := max(threads, 3)
	return report("exactly-once retries (repl pair) + crash + promote", n, func(cycle int) error {
		var cs conns
		defer cs.close()
		primary, err := serve(cacheserver.WithMaxConns(writers+4), cacheserver.WithReplListen("127.0.0.1:0"))
		if err != nil {
			return fmt.Errorf("primary: %w", err)
		}
		defer primary.Close()
		follower, err := serve(cacheserver.WithMaxConns(writers+4), cacheserver.WithReplicaOf(primary.ReplAddr().String()))
		if err != nil {
			return fmt.Errorf("follower: %w", err)
		}
		defer follower.Close()
		addr := primary.Addr().String()
		ws, err := sessions(&cs, addr, writers, uint64(seed&0xff)<<40|uint64(cycle)<<32|1)
		if err != nil {
			return err
		}
		if err := sessionStorm(ws, 12, func() (uint64, error) {
			ctl, err := cs.dial(addr)
			if err != nil {
				return 0, err
			}
			return ctl.crash()
		}); err != nil {
			return err
		}

		// Promote the follower once it has every last ack: each resend must
		// answer it there too, and the next seq must apply once.
		fc, err := cs.dial(follower.Addr().String())
		if err != nil {
			return err
		}
		deadline := time.Now().Add(15 * time.Second)
		for _, w := range ws {
			got, err := fc.read(w.get, w.key)
			for ; err == nil && got != w.floor && time.Now().Before(deadline); got, err = fc.read(w.get, w.key) {
				time.Sleep(2 * time.Millisecond)
			}
			if err != nil || got != w.floor {
				return fmt.Errorf("session %d: follower at %d, want %d: %v", w.sess, got, w.floor, err)
			}
		}
		if _, err := fc.expect("OK PROMOTED", "promote"); err != nil {
			return err
		}
		for _, w := range ws {
			if _, err := fc.expect("OK SESSION", "session %d", w.sess); err != nil {
				return err
			}
			if err := w.resend(fc, "on the promoted follower"); err != nil {
				return err
			}
			w.c = fc
			if err := w.send(); err != nil {
				return fmt.Errorf("fresh seq on the promoted follower: %w", err)
			}
		}
		return primary.VerifyAll()
	})
}

// clMoveSlots of node A's slots move to each of the other two nodes.
const clMoveSlots = 16

// runCluster runs n cycles, each on fresh nodes A (slots 0-31), B
// (32-63) and C (none) behind a proxy.
func runCluster(n, threads int, seed int64) bool {
	writers := max(threads, 6)
	return report("cluster storm + node crash + slot rebalance", n, func(cycle int) error {
		var cs conns
		defer cs.close()
		nodes := make([]*cacheserver.Server, 3)
		addrs := make([]string, 3)
		for i, slots := range []string{"0-31", "32-63", "none"} {
			srv, err := serve(cacheserver.WithMaxConns(writers+8), cacheserver.WithClusterSlots(slots))
			if err != nil {
				return fmt.Errorf("node %c: %w", 'a'+i, err)
			}
			defer srv.Close()
			nodes[i], addrs[i] = srv, srv.Addr().String()
		}
		proxy, err := cluster.New(cluster.Config{Addr: "127.0.0.1:0", Nodes: addrs})
		if err != nil {
			return fmt.Errorf("proxy: %w", err)
		}
		defer proxy.Close()
		target := func(slot int) string { return addrs[2-slot/clMoveSlots] } // low slots to C, the rest to B
		ws, err := sessions(&cs, proxy.Addr(), writers, uint64(seed&0xff)<<40|uint64(cycle)<<32|3)
		if err != nil {
			return err
		}
		ctl, err := cs.dial(addrs[0])
		if err != nil {
			return err
		}
		if err := sessionStorm(ws, 16, func() (uint64, error) {
			p, err := ctl.crash()
			if err != nil {
				return 0, err
			}
			mig, err := cs.dial(proxy.Addr())
			for slot := 0; err == nil && slot < 2*clMoveSlots; slot++ {
				if _, err = mig.expect("OK MIGRATED", "migrate %d %s", slot, target(slot)); err == nil {
					campTel.Migrations.Inc()
				}
			}
			return p, err
		}); err != nil {
			return err
		}

		// Node A answers MOVED, naming the new owner, for every key it had.
		for _, w := range ws {
			if slot := cluster.SlotOf(w.key); slot < 2*clMoveSlots {
				want := fmt.Sprintf("MOVED %d %s", slot, target(slot))
				if rep, err := ctl.cmd("get %d", w.key); err != nil || rep != want {
					return fmt.Errorf("old owner answered %q, %v for slot %d, want %q", rep, err, slot, want)
				}
			}
		}
		for i, srv := range nodes {
			if err := srv.VerifyAll(); err != nil {
				return fmt.Errorf("node %c: %w", 'a'+i, err)
			}
		}
		return nil
	})
}
