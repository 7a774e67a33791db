// Command repldemo runs the replication acceptance campaign end to
// end, with real processes and a real SIGKILL: the site-disaster drill
// that the in-process tests cannot stage.
//
// The campaign builds tspcached, starts a primary (with a replication
// listener) and a follower as separate OS processes, and drives the
// paper's Section 5.1 workload against the primary over TCP: T writer
// threads each looping "set c1,t = i; incr a random high key; set
// c2,t = i". Every committed batch group streams to the follower.
// Alongside the writers, -readers optimistic reader connections hammer
// the c1 counters on the lock-free seqlock get path and assert each
// counter only ever moves forward — the recovery-observer argument
// exercised live: the readers take no Atlas mutex, so nothing they do
// can perturb the persistence the invariants depend on, and the
// primary's stats must show the reads really were served lock-free
// (map_opt_gets > 0).
// After the load window it captures the primary's replication stats —
// follower count, groups streamed, and the ack-measured lag
// percentiles — then delivers the disaster: SIGKILL to the primary,
// the one failure class in the paper's taxonomy that no local rescue
// or recovery answers (Section 3; the machine, and its NVM, are gone).
// The follower is promoted over the wire and the recovery observer's
// two invariants are checked on the promoted copy:
//
//	Equation 1:  0 <= Σ c1,t − Σ c2,t <= T
//	Equation 2:  Σ c1,t >= Σ_{k∈H} map[k] >= Σ c2,t
//
// These hold on the follower because replication preserves each
// client's commit order: a writer only issues its next command after
// the previous reply, and the reply is sent only after the committed
// group is appended to the replication log, so the follower's state is
// always a prefix of a history the invariants hold on. As a coda the
// promoted copy takes a simulated power failure ("crash") and the
// invariants are re-checked after local recovery — the promoted
// follower is a full TSP stack, not a cold standby.
//
// Usage (or just `make demo-repl`):
//
//	go run ./cmd/repldemo [-threads 8] [-readers 4] [-high-keys 64] [-shards 4] [-load 2s]
//
// Exits 0 when every check passes, 1 otherwise.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsp/internal/harness"
)

func main() { os.Exit(run()) }

// wire is a minimal synchronous client for the cache text protocol.
type wire struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialWire(addr string) (*wire, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wire{conn: conn, r: bufio.NewReader(conn)}, nil
}

// cmd sends one command and returns the first response line.
func (w *wire) cmd(format string, args ...any) (string, error) {
	if _, err := fmt.Fprintf(w.conn, format+"\r\n", args...); err != nil {
		return "", err
	}
	line, err := w.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// lines sends one command and reads response lines until END.
func (w *wire) lines(format string, args ...any) ([]string, error) {
	if _, err := fmt.Fprintf(w.conn, format+"\r\n", args...); err != nil {
		return nil, err
	}
	var out []string
	for {
		line, err := w.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		out = append(out, line)
		if line == "END" {
			return out, nil
		}
	}
}

func (w *wire) close() { w.conn.Close() }

// stat extracts one STAT field from a stats response.
func stat(lines []string, key string) (string, bool) {
	prefix := "STAT " + key + " "
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return strings.TrimPrefix(l, prefix), true
		}
	}
	return "", false
}

// getVal reads one key, mapping NOT_FOUND to 0 (a key the killed
// primary never replicated simply does not exist on the follower).
func getVal(w *wire, k uint64) (uint64, error) {
	resp, err := w.cmd("get %d", k)
	if err != nil {
		return 0, err
	}
	if resp == "NOT_FOUND" {
		return 0, nil
	}
	f := strings.Fields(resp)
	if len(f) != 3 || f[0] != "VALUE" {
		return 0, fmt.Errorf("get %d: unexpected response %q", k, resp)
	}
	return strconv.ParseUint(f[2], 10, 64)
}

// proc is one tspcached child process with its parsed stdout lines.
type proc struct {
	cmd      *exec.Cmd
	addr     string // client listen address
	replAddr string // primary's replication listener ("" for followers)
}

// startServer launches bin with args, scans its stdout for the listen
// banner (and, when expectRepl, the replication banner), and echoes the
// rest of the child's output with a prefix.
func startServer(bin, tag string, expectRepl bool, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd}
	sc := bufio.NewScanner(out)
	deadline := time.After(30 * time.Second)
	got := make(chan error, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			fmt.Printf("  [%s] %s\n", tag, line)
			if rest, ok := strings.CutPrefix(line, "tspcached listening on "); ok {
				p.addr, _, _ = strings.Cut(rest, " (")
			}
			if rest, ok := strings.CutPrefix(line, "replication: primary streaming on "); ok {
				p.replAddr = rest
			}
			if p.addr != "" && (!expectRepl || p.replAddr != "") {
				got <- nil
				// Keep draining so the child never blocks on stdout.
				for sc.Scan() {
					fmt.Printf("  [%s] %s\n", tag, sc.Text())
				}
				return
			}
		}
		got <- fmt.Errorf("%s exited before announcing its listen address", tag)
	}()
	select {
	case err := <-got:
		if err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, err
		}
		return p, nil
	case <-deadline:
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("timed out waiting for %s to start", tag)
	}
}

func run() int {
	threads := flag.Int("threads", 8, "writer threads (T in Equations 1 and 2)")
	readers := flag.Int("readers", 4, "optimistic reader connections polling the c1 counters during load")
	highKeys := flag.Int("high-keys", 64, "high keys (the H range Equation 2 sums)")
	shards := flag.Int("shards", 4, "shards on both primary and follower")
	load := flag.Duration("load", 2*time.Second, "load window before the site disaster")
	flag.Parse()

	fmt.Println("== repldemo: preventive replication acceptance campaign")

	tmp, err := os.MkdirTemp("", "repldemo")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "tspcached")
	fmt.Println("building tspcached...")
	build := exec.Command("go", "build", "-o", bin, "tsp/cmd/tspcached")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n", err)
		return 1
	}

	conns := strconv.Itoa(*threads + *readers + 4)
	nShards := strconv.Itoa(*shards)
	primary, err := startServer(bin, "primary", true,
		"-addr", "127.0.0.1:0", "-repl-listen", "127.0.0.1:0",
		"-shards", nShards, "-conns", conns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// The primary dies by SIGKILL mid-campaign; this catches early-exit
	// paths only.
	primaryAlive := true
	defer func() {
		if primaryAlive {
			primary.cmd.Process.Kill()
			primary.cmd.Wait()
		}
	}()

	follower, err := startServer(bin, "follower", false,
		"-addr", "127.0.0.1:0", "-replica-of", primary.replAddr,
		"-shards", nShards, "-conns", conns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		follower.cmd.Process.Kill()
		follower.cmd.Wait()
	}()

	// The Section 5.1 workload: each writer is one connection looping
	// set-c1 / incr-H / set-c2, synchronously — the next command goes
	// out only after the previous reply, which is what pins the
	// replication log to each writer's program order.
	fmt.Printf("loading: %d writers x (set c1 / incr H / set c2) against the primary\n", *threads)
	var (
		wg         sync.WaitGroup
		totalIters atomic.Uint64
	)
	stop := make(chan struct{})
	for t := 0; t < *threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			w, err := dialWire(primary.addr)
			if err != nil {
				return
			}
			defer w.close()
			rng := uint64(t)<<32 + 0x9e3779b97f4a7c15
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.cmd("set %d %d", harness.KeyC1(t), i); err != nil {
					return // the primary is gone: the disaster landed
				}
				rng += 0x9e3779b97f4a7c15
				x := rng
				x ^= x >> 30
				x *= 0xbf58476d1ce4e5b9
				x ^= x >> 27
				x *= 0x94d049bb133111eb
				x ^= x >> 31
				hk := harness.HighBase(*threads) + x%uint64(*highKeys)
				if _, err := w.cmd("incr %d 1", hk); err != nil {
					return
				}
				if _, err := w.cmd("set %d %d", harness.KeyC2(t), i); err != nil {
					return
				}
				totalIters.Add(1)
			}
		}(t)
	}

	// The lock-free observers: each reader polls the c1 counters on the
	// optimistic get path. A writer only ever advances its c1, so any
	// validated read that regresses is a torn or stale read escaping the
	// seqlock validation.
	var (
		totalReads atomic.Uint64
		readerFail atomic.Value // first violation message, if any
	)
	for r := 0; r < *readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w, err := dialWire(primary.addr)
			if err != nil {
				return
			}
			defer w.close()
			last := make([]uint64, *threads)
			for t := 0; ; t = (t + 1) % *threads {
				select {
				case <-stop:
					return
				default:
				}
				v, err := getVal(w, harness.KeyC1(t))
				if err != nil {
					return // the primary is gone: the disaster landed
				}
				if v < last[t] {
					readerFail.Store(fmt.Sprintf(
						"reader %d: c1,%d regressed %d -> %d", r, t, last[t], v))
					return
				}
				last[t] = v
				totalReads.Add(1)
			}
		}(r)
	}

	time.Sleep(*load)

	// The acceptance gate on the primary side: a connected follower and
	// nonzero ack-measured lag percentiles, read while the writers are
	// still loading.
	pstats, err := dialWire(primary.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dial primary for stats: %v\n", err)
		return 1
	}
	var lagP50, lagP95, lagP99, streamed, optGets string
	statsDeadline := time.Now().Add(15 * time.Second)
	for {
		lines, err := pstats.lines("stats")
		if err != nil {
			fmt.Fprintf(os.Stderr, "primary stats: %v\n", err)
			return 1
		}
		followers, _ := stat(lines, "repl_followers")
		lagN, _ := stat(lines, "repl_lag_count")
		lagP50, _ = stat(lines, "repl_lag_p50_us")
		lagP95, _ = stat(lines, "repl_lag_p95_us")
		lagP99, _ = stat(lines, "repl_lag_p99_us")
		streamed, _ = stat(lines, "repl_groups_streamed")
		optGets, _ = stat(lines, "map_opt_gets")
		if followers == "1" && lagN != "" && lagN != "0" {
			break
		}
		if time.Now().After(statsDeadline) {
			fmt.Fprintf(os.Stderr, "primary never reported a follower with lag samples (followers=%q lag_p50=%q)\n",
				followers, lagP50)
			return 1
		}
		time.Sleep(50 * time.Millisecond)
	}
	pstats.close()
	fmt.Printf("primary before the kill: repl_groups_streamed=%s lag p50=%sus p95=%sus p99=%sus map_opt_gets=%s\n",
		streamed, lagP50, lagP95, lagP99, optGets)
	if *readers > 0 && (optGets == "" || optGets == "0") {
		fmt.Fprintln(os.Stderr, "FAIL: readers ran but the primary served no optimistic gets")
		return 1
	}

	// The site disaster: SIGKILL, no shutdown path, no final flush. The
	// writers see connection errors and wind down like killed clients.
	fmt.Println("delivering the site disaster: SIGKILL to the primary")
	primary.cmd.Process.Kill()
	primary.cmd.Wait()
	primaryAlive = false
	close(stop)
	wg.Wait()
	fmt.Printf("writers stopped after %d completed iterations; readers validated %d lock-free reads\n",
		totalIters.Load(), totalReads.Load())
	if msg := readerFail.Load(); msg != nil {
		fmt.Fprintf(os.Stderr, "FAIL: %s\n", msg)
		return 1
	}

	fw, err := dialWire(follower.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dial follower: %v\n", err)
		return 1
	}
	defer fw.close()
	resp, err := fw.cmd("promote")
	if err != nil || resp != "OK PROMOTED" {
		fmt.Fprintf(os.Stderr, "promote: %q err=%v\n", resp, err)
		return 1
	}
	fmt.Println("follower promoted")

	read := func(k uint64) (uint64, error) { return getVal(fw, k) }
	v, err := harness.Observe(*threads, *highKeys, read, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invariant read: %v\n", err)
		return 1
	}
	fmt.Printf("invariants on the promoted copy:  %s\n", v)
	if !v.OK() || v.SumC1 == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: invariants violated on the promoted copy (or the copy is empty)")
		return 1
	}

	// Coda: the promoted copy is a full TSP stack — crash it locally and
	// re-verify after recovery.
	resp, err = fw.cmd("crash")
	if err != nil || !strings.HasPrefix(resp, "OK RECOVERED") {
		fmt.Fprintf(os.Stderr, "crash on promoted copy: %q err=%v\n", resp, err)
		return 1
	}
	v2, err := harness.Observe(*threads, *highKeys, read, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invariant read after crash: %v\n", err)
		return 1
	}
	fmt.Printf("invariants after crash+recovery:  %s\n", v2)
	if !v2.OK() || v2.SumC1 != v.SumC1 || v2.SumC2 != v.SumC2 || v2.SumHigh != v.SumHigh {
		fmt.Fprintln(os.Stderr, "FAIL: promoted copy lost data across local crash recovery")
		return 1
	}

	fmt.Println("PASS: site disaster survived by prevention; promoted copy upholds Equations 1 and 2")
	return 0
}
