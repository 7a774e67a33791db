package main

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tsp/internal/harness"
)

// The site-disaster row kills a real process: a tspcached primary,
// SIGKILLed mid-storm, whose NVM dies with it, so what survives is what
// replication already put on its follower. T writers run the Section
// 5.1 loop (set c1,t = i; incr a seeded key of H; set c2,t = i) while
// readers poll c1 on the optimistic get path and must never see one
// regress. From its last loop before the halfway mark on, each of a
// writer's loops sends its set c2,t with a `wait repl`, which must
// answer 1 and covers its acks. The kill comes once every writer has
// had one answered, so each writer's latest cover is at most a loop old
// when the primary dies. The promoted follower must hold Equations
// 1 and 2 with Σc1 > 0 and every counter read to its history, then read
// back the same after a `crash`. Before the storm, checkReplAck holds a
// `wait repl` to its answer with the follower stopped.
const (
	sdReaders  = 4   // optimistic reader connections
	sdHighKeys = 64  // |H|
	sdOps      = 400 // loop iterations (or reads) per writer (or reader)
)

// unreplicated stamps an ack the primary sent that no follower has
// confirmed: a `wait repl` covers it, and until then a check at
// frontier 0, the site disaster's, lets it die with the primary.
const unreplicated = math.MaxUint64

// runSiteDisaster builds tspcached once and runs n cycles, each on a
// fresh pair of tspcached children (tspcached's default four shards).
func runSiteDisaster(n, threads int, seed int64) bool {
	const name = "site disaster (tspcached pair) + SIGKILL + promote"
	dir, err := os.MkdirTemp("", "faultinject")
	if err != nil {
		return report(name, n, func(int) error { return err })
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "tspcached")
	if out, err := exec.Command("go", "build", "-o", bin, "tsp/cmd/tspcached").CombinedOutput(); err != nil {
		return report(name, n, func(int) error { return fmt.Errorf("build tspcached: %v\n%s", err, out) })
	}
	return report(name, n, func(cycle int) error {
		return siteDisaster(bin, threads, seed+int64(cycle)*7919)
	})
}

func siteDisaster(bin string, threads int, seed int64) error {
	slots := strconv.Itoa(threads + sdReaders + 4)
	primary, pa, err := spawn(bin, []string{"tspcached listening on ", "replication: primary streaming on "},
		"-addr", "127.0.0.1:0", "-repl-listen", "127.0.0.1:0", "-conns", slots)
	if err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	defer halt(primary)
	follower, fa, err := spawn(bin, []string{"tspcached listening on "},
		"-addr", "127.0.0.1:0", "-replica-of", pa[1], "-conns", slots)
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	defer halt(follower)

	var cs conns
	defer cs.close()
	cl := make([]*client, threads+sdReaders) // writers, then readers
	for i := range cl {
		if cl[i], err = cs.dial(pa[0]); err != nil {
			return err
		}
	}
	if err := checkReplAck(cl[0], follower, harness.HighBase(threads)+sdHighKeys, uint64(seed)); err != nil {
		return err
	}
	hists := make([][2]keyHist, threads) // c1,t and c2,t
	for t := range hists {
		hists[t] = [2]keyHist{{key: harness.KeyC1(t)}, {key: harness.KeyC2(t)}}
	}
	last := make([]uint64, sdReaders*threads) // each reader's last c1,t
	set := func(c *client, h *keyHist, v uint64) error {
		h.issue(v)
		if _, err := c.expect("STORED", "set %d %d", h.key, v); err != nil {
			return err
		}
		h.ack(v, unreplicated)
		return nil
	}
	step := func(g, op int) error {
		c := cl[g]
		if g >= threads { // a reader's last step polls until the kill
			if op == sdOps/2-1 && g == threads {
				if gets, err := c.stat("map_opt_gets"); err != nil || gets == 0 {
					return fmt.Errorf("the primary served %d optimistic gets: %v", gets, err)
				}
			}
			l := last[(g-threads)*threads:][:threads]
			for t := op % threads; ; t = (t + 1) % threads {
				v, err := c.read("get", harness.KeyC1(t))
				if err != nil || v < l[t] {
					return cmp.Or(err, fmt.Errorf("reader %d: c1,%d regressed from %d to %d", g-threads, t, l[t], v))
				}
				if l[t] = v; op < sdOps-1 {
					return nil
				}
			}
		}
		h, i := &hists[g], uint64(op+1)
		err := set(c, &h[0], i)
		if err == nil {
			hk := ((uint64(seed)<<32 | uint64(g)<<16 | uint64(op)) * 0x9e3779b97f4a7c15 >> 32) % sdHighKeys
			_, err = c.cmd("incr %d 1", harness.HighBase(threads)+hk)
		}
		if err == nil && op < sdOps/2-1 {
			err = set(c, &h[1], i)
		}
		if err != nil || op < sdOps/2-1 {
			return err
		}
		// set c2,t and the wait go out in one write: the cover is
		// answered with the set, a round trip sooner, which would be time
		// for the follower to catch up before the kill.
		h[1].issue(i)
		var stored, rep string
		_, err = fmt.Fprintf(c.conn, "set %d %d\r\nwait repl 5000\r\n", h[1].key, i)
		if err == nil {
			stored, err = c.line()
		}
		if err == nil {
			rep, err = c.line()
		}
		if err == nil && (stored != "STORED" || rep != "1") {
			err = fmt.Errorf("set c2,%d and wait repl answered %q, %q", g, stored, rep)
		}
		if err != nil {
			return err
		}
		h[1].ack(i, unreplicated)
		h[0].cover()
		h[1].cover()
		return nil
	}

	var killed atomic.Bool
	if err := storm(threads+sdReaders, sdOps, func(g, op int) error {
		err := step(g, op)
		if err != nil && killed.Load() && (errors.Is(err, io.EOF) || errors.As(err, new(*net.OpError))) {
			return errKilled
		}
		return err
	}, func() error {
		killed.Store(true)
		halt(primary)
		return nil
	}); err != nil {
		return err
	}

	fc, err := cs.dial(fa[0])
	if err == nil {
		_, err = fc.expect("OK PROMOTED", "promote")
	}
	if err != nil {
		return err
	}
	// Observe reads c1,t and c2,t, keys 2t and 2t+1, then H; each
	// counter read is held to its history as well.
	judge := func(p uint64) (harness.InvariantReport, error) {
		return harness.Observe(threads, sdHighKeys, func(k uint64) (uint64, error) {
			got, err := fc.read("get", k)
			if err == nil && k < harness.HighBase(threads) {
				err = hists[k/2][k%2].check(got, p)
			}
			return got, err
		}, nil)
	}
	v, err := judge(0)
	if err == nil && (!v.OK() || v.SumC1 == 0) {
		err = fmt.Errorf("promoted copy: %s", v)
	}
	if err != nil {
		return err
	}
	p, err := fc.crash()
	if err != nil {
		return err
	}
	after, err := judge(p)
	if err == nil && after != v {
		err = fmt.Errorf("promoted copy read %s, then %s after its crash", v, after)
	}
	return err
}

// checkReplAck holds the replication ack to its contract directly,
// where the storm only samples it: with the follower stopped (SIGSTOP,
// reaped as stopped before the set goes out), nothing can acknowledge a
// fresh set, so its `wait repl` must time out; once the follower runs
// again, a second wait must answer 1. key lies outside the keys the
// invariants read.
func checkReplAck(c *client, follower *exec.Cmd, key, v uint64) error {
	pid := follower.Process.Pid
	defer syscall.Kill(pid, syscall.SIGCONT)
	var ws syscall.WaitStatus
	if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
		return err
	}
	if _, err := syscall.Wait4(pid, &ws, syscall.WUNTRACED, nil); err != nil || !ws.Stopped() {
		return fmt.Errorf("stopping the follower: %v (wait status %v)", err, ws)
	}
	if _, err := c.expect("STORED", "set %d %d", key, v); err != nil {
		return err
	}
	if rep, err := c.cmd("wait repl 50"); err != nil || rep != "SERVER_ERROR wait timeout" {
		return cmp.Or(err, fmt.Errorf("wait repl answered %q with the follower stopped", rep))
	}
	syscall.Kill(pid, syscall.SIGCONT)
	if rep, err := c.cmd("wait repl 5000"); err != nil || rep != "1" {
		return cmp.Or(err, fmt.Errorf("wait repl answered %q once the follower ran again", rep))
	}
	return nil
}

// spawn starts bin with args and returns, once the child has printed
// each banner line in order, the address each one names.
func spawn(bin string, banners []string, args ...string) (*exec.Cmd, []string, error) {
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		return nil, nil, err
	}
	// A child that never prints its banners is killed, which ends the scan.
	defer time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() }).Stop()
	sc := bufio.NewScanner(out)
	var addrs []string
	for len(addrs) < len(banners) && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), banners[len(addrs)]); ok {
			addr, _, _ := strings.Cut(rest, " (")
			addrs = append(addrs, addr)
		}
	}
	if len(addrs) < len(banners) {
		halt(cmd)
		return nil, nil, fmt.Errorf("exited before printing %q", banners[len(addrs)])
	}
	go io.Copy(io.Discard, out) // a child never blocks on a full pipe
	return cmd, addrs, nil
}

// halt SIGKILLs a child and reaps it.
func halt(cmd *exec.Cmd) {
	cmd.Process.Kill()
	cmd.Wait()
}
