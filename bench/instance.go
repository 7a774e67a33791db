package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tsp/internal/cacheserver"
	"tsp/internal/cluster"
	"tsp/internal/telemetry"
)

// Shape of the two workloads that are not a plain ring of bursts.
const (
	groupBursts = 64 // relaxed_wait: set bursts between two wait barriers

	cycleDurable   = 512 // recover: durable sets per crash cycle
	cycleRelaxed   = 256 // recover: relaxed sets per crash cycle
	cycleBystander = 256 // recover: untouched keys read back with the rest
	cycleKeys      = cycleDurable + cycleRelaxed + cycleBystander
)

// recorder collects one connection's samples. Its slices are sized at
// set-up so that appending during a pass does not allocate.
type recorder struct {
	lat    []float64    // ns per request, one sample per timed burst
	getRTT []float64    // depth-1 bursts that were a get
	setRTT []float64    // depth-1 bursts that were a set
	waits  []float64    // ns per wait barrier (relaxed_wait)
	spans  []burstTimes // one per burst of a traced pass
	notes  []string     // the first few mismatches, for the operator
}

func (r *recorder) note(format string, args ...any) {
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// loadConn is one load-generating connection with the input it replays.
type loadConn struct {
	*client
	st  *stream
	se  session
	rec recorder
	exp []byte
}

// instance is one workload set up and ready to run passes: its servers,
// its connections, its generated input and the model of its keyspace.
type instance struct {
	sp      spec
	servers []*cacheserver.Server
	proxy   *cluster.Proxy
	load    []*loadConn
	ctl     []*client // one control connection per server, for stats
	pctl    *client   // control connection to the proxy, for route stats
	model   *model

	next int // which 1/ringPasses of the ring the next pass sends

	// recover's cycle state: where its walk of the keyspace stands, and
	// the receipts of the cycle's relaxed sets.
	walk   cycleWalk
	stamps []uint64
}

// cycleWalk generates recover's input: a seeded permutation of the
// keyspace walked one window per cycle, and a value counter that never
// repeats, so a lost write can never hide behind an equal old value.
type cycleWalk struct {
	perm    []uint32
	pos     int
	nextVal uint64
}

func newCycleWalk(seed int64) cycleWalk {
	w := cycleWalk{perm: make([]uint32, hashKeys), nextVal: 2 * hashKeys} // above every preloaded value
	for i, k := range rand.New(rand.NewSource(seed)).Perm(hashKeys) {
		w.perm[i] = uint32(k)
	}
	return w
}

// next fills keys with the next cycle's window (the keys it sets, then
// its bystanders) and fresh with the values it sets them to.
func (w *cycleWalk) next(keys, fresh []uint64) {
	for i := range keys {
		keys[i] = uint64(w.perm[(w.pos+i)%hashKeys])
	}
	w.pos = (w.pos + len(fresh)) % hashKeys
	for i := range fresh {
		fresh[i] = w.nextVal
		w.nextVal++
	}
}

// stream is the data requests of the next `cycles` cycles in bursts of
// depth, as crashCycles sends them (the crash command between a cycle's
// sets and its gets is no data request): the input recover's replay
// feeds to the modules.
func (w cycleWalk) stream(depth, cycles int) *stream {
	st := &stream{}
	keys := make([]uint64, cycleKeys)
	fresh := make([]uint64, cycleDurable+cycleRelaxed)
	bursts := func(n int, add func(i int)) {
		for at := 0; at < n; at += depth {
			bu := burst{wire: [2]uint32{uint32(len(st.wire))}, reqs: [2]uint32{uint32(len(st.reqs))}}
			for i := at; i < at+depth; i++ {
				add(i)
			}
			bu.wire[1], bu.reqs[1] = uint32(len(st.wire)), uint32(len(st.reqs))
			st.bursts = append(st.bursts, bu)
		}
	}
	for cy := 0; cy < cycles; cy++ {
		w.next(keys, fresh)
		bursts(len(fresh), func(i int) {
			kind := opSet
			if i >= cycleDurable {
				kind = opRelaxedSet
			}
			st.add(kind, keys[i], fresh[i])
		})
		bursts(len(keys), func(i int) { st.add(opGet, keys[i]) })
	}
	return st
}

// passResult is what one pass of an instance measured.
type passResult struct {
	requests int
	failed   int
	wall     time.Duration
	cpu      time.Duration // user+system time of the whole process
	p50, p90 float64       // ns per request over the pass's timed bursts
	// gcCycles is how many garbage collections the Go runtime completed
	// during the pass and allocBytes what the process (client and servers
	// share it) allocated: a pass that holds no collection has not paid
	// for its allocations.
	gcCycles, allocBytes uint64
	// jiffies is the host CPU time that went by during the pass, all
	// CPUs; stolen is the part the hypervisor gave to other tenants.
	jiffies, stolen uint64
}

func (p passResult) kreqPerSec() float64 {
	return float64(p.requests) / p.wall.Seconds() / 1e3
}

// passRequests is how many requests one pass of sp sends.
func passRequests(sp *spec) int {
	n := sp.bursts / ringPasses
	switch sp.name {
	case "relaxed_wait":
		return sp.conns * n * (groupBursts*sp.depth + 1)
	case "recover":
		return n * (cycleDurable + cycleRelaxed + 1 + cycleKeys)
	}
	return sp.conns * n * sp.depth
}

func (sp *spec) uses(kind uint8) bool {
	for _, m := range sp.mix {
		if m.kind == kind {
			return true
		}
	}
	return false
}

func (sp *spec) usesZ() bool { return sp.uses(opZAdd) || sp.uses(opZRange) }

// setUp builds the workload's servers, connects, preloads the keyspace
// and generates the input. maxPasses sizes the sample buffers.
func setUp(sp spec, seed int64, epoch time.Time, maxPasses int) (*instance, error) {
	if sp.conns > runtime.NumCPU() {
		return nil, fmt.Errorf("%s needs %d client connections but the host has %d CPUs; the load generator would queue behind itself",
			sp.name, sp.conns, runtime.NumCPU())
	}
	in := &instance{sp: sp, model: newModel()}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()

	nservers := max(sp.nodes, 1)
	addrs := make([]string, nservers)
	for i := 0; i < nservers; i++ {
		opts := []cacheserver.Option{
			cacheserver.WithShards(sp.shards),
			cacheserver.WithMaxConns(8),
			cacheserver.WithEpochInterval(epochInterval),
		}
		if sp.nodes > 0 {
			lo, hi := i*cluster.NumSlots/sp.nodes, (i+1)*cluster.NumSlots/sp.nodes-1
			opts = append(opts, cacheserver.WithClusterSlots(fmt.Sprintf("%d-%d", lo, hi)))
		}
		if sp.allSlots {
			opts = append(opts, cacheserver.WithClusterSlots("all"))
		}
		srv, err := cacheserver.New(opts...)
		if err != nil {
			return nil, err
		}
		go func() { _ = srv.Serve() }()
		in.servers = append(in.servers, srv)
		addrs[i] = srv.Addr().String()
		ctl, err := dial(addrs[i], epoch)
		if err != nil {
			return nil, err
		}
		in.ctl = append(in.ctl, ctl)
	}
	target := addrs[0]
	if sp.nodes > 0 {
		p, err := cluster.New(cluster.Config{Nodes: addrs, Tel: &telemetry.RouteStats{}})
		if err != nil {
			return nil, err
		}
		in.proxy = p
		target = p.Addr()
		if in.pctl, err = dial(target, epoch); err != nil {
			return nil, err
		}
	}

	for c := 0; c < sp.conns; c++ {
		cl, err := dial(target, epoch)
		if err != nil {
			return nil, err
		}
		lc := &loadConn{client: cl}
		in.load = append(in.load, lc)
		samples := (sp.bursts/ringPasses + 1) * maxPasses
		switch sp.name {
		case "recover":
			lc.rec.lat = make([]float64, 0, samples)
		case "relaxed_wait":
			grp := sp
			grp.bursts *= groupBursts
			lc.st = genStream(&grp, c, seed)
			lc.rec.lat = make([]float64, 0, samples*groupBursts)
			lc.rec.waits = make([]float64, 0, samples)
		default:
			lc.st = genStream(&sp, c, seed)
			lc.rec.lat = make([]float64, 0, samples)
			if sp.depth == 1 {
				lc.rec.getRTT = make([]float64, 0, samples)
				lc.rec.setRTT = make([]float64, 0, samples)
			}
			if sp.uses(opSeqIncr) {
				if _, err := cl.command("session "+strconv.Itoa(c+1), false); err != nil {
					return nil, err
				}
			}
		}
	}
	if sp.name == "recover" {
		in.walk = newCycleWalk(seed)
		in.stamps = make([]uint64, cycleRelaxed)
	}
	if err := in.preload(); err != nil {
		return nil, fmt.Errorf("%s preload: %w", sp.name, err)
	}
	ok = true
	return in, nil
}

// close stops every connection, the proxy and the servers, and returns
// once their goroutines have ended.
func (in *instance) close() {
	for _, lc := range in.load {
		lc.close()
	}
	for _, c := range in.ctl {
		c.close()
	}
	if in.pctl != nil {
		in.pctl.close()
	}
	if in.proxy != nil {
		_ = in.proxy.Close()
	}
	for _, s := range in.servers {
		_ = s.Close()
	}
}

// preload writes the model's initial state through the front door:
// hash key k holds k+1, ordered key z holds z+1.
func (in *instance) preload() error {
	c := in.load[0].client
	c.arm()
	defer c.disarm()
	const pairs, depth = 32, 16
	var wire []byte
	for k := 0; k < hashKeys; {
		wire = wire[:0]
		for r := 0; r < depth; r++ {
			wire = append(wire, "mset"...)
			for p := 0; p < pairs; p, k = p+1, k+1 {
				wire = append(wire, ' ')
				wire = strconv.AppendUint(wire, uint64(k), 10)
				wire = append(wire, ' ')
				wire = strconv.AppendUint(wire, uint64(k)+1, 10)
			}
			wire = append(wire, '\r', '\n')
		}
		reply, _, err := c.exchange(wire, depth)
		if err != nil {
			return err
		}
		if want := bytes.Repeat([]byte("STORED 32\r\n"), depth); !bytes.Equal(reply, want) {
			return fmt.Errorf("mset answered %q", firstLine(reply))
		}
	}
	if !in.sp.usesZ() {
		return nil
	}
	for z := 0; z < zsetKeys; {
		wire = wire[:0]
		for r := 0; r < 64; r, z = r+1, z+1 {
			wire, _ = appendWire(wire, opZAdd, []uint64{uint64(z), uint64(z) + 1})
		}
		reply, _, err := c.exchange(wire, 64)
		if err != nil {
			return err
		}
		if want := bytes.Repeat([]byte("STORED\r\n"), 64); !bytes.Equal(reply, want) {
			return fmt.Errorf("zadd answered %q", firstLine(reply))
		}
	}
	return nil
}

func firstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i+1]
	}
	return b
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapActivity reads the runtime's counters of completed collections
// and allocated bytes, without stopping the world.
func heapActivity() (gcCycles, allocBytes uint64) {
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64(), sample[1].Value.Uint64()
}

// hostJiffies reads the guest kernel's CPU accounting: all jiffies so
// far, and those the hypervisor gave to other tenants (steal). It
// answers zeros where there is no /proc/stat.
func hostJiffies() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// pass runs the next pass: the next 1/ringPasses of the generated ring,
// each connection in its own closed loop. A pass is a fixed piece of
// work, and every ringPasses'th pass sends the same bytes again.
func (in *instance) pass(traced bool) (passResult, error) {
	lo := in.next * in.sp.bursts / ringPasses
	hi := (in.next + 1) * in.sp.bursts / ringPasses
	in.next = (in.next + 1) % ringPasses
	var res passResult
	for _, lc := range in.load {
		lc.trace = traced
		lc.arm()
	}
	errs := make([]error, len(in.load))
	failed := make([]int, len(in.load))
	reqs := make([]int, len(in.load))
	run := func(i int) {
		lc := in.load[i]
		switch in.sp.name {
		case "relaxed_wait":
			reqs[i], failed[i], errs[i] = in.relaxedGroups(lc, lo, hi)
		case "recover":
			reqs[i], failed[i], errs[i] = in.crashCycles(lc, hi-lo)
		default:
			reqs[i], failed[i], errs[i] = in.ringBursts(lc, lo, hi)
		}
	}
	total0, steal0 := hostJiffies()
	gc0, alloc0 := heapActivity()
	cpu0 := cpuTime()
	t0 := time.Now()
	if len(in.load) == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for i := range in.load {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i)
			}(i)
		}
		wg.Wait()
	}
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	gc1, alloc1 := heapActivity()
	res.gcCycles, res.allocBytes = gc1-gc0, alloc1-alloc0
	total1, steal1 := hostJiffies()
	res.jiffies, res.stolen = total1-total0, steal1-steal0
	for i, lc := range in.load {
		lc.disarm()
		if errs[i] != nil {
			return res, fmt.Errorf("%s conn %d: %w", in.sp.name, i, errs[i])
		}
		res.requests += reqs[i]
		res.failed += failed[i]
	}
	return res, nil
}

// ringBursts sends bursts lo..hi of the connection's stream, checking
// every reply byte against the model.
func (in *instance) ringBursts(lc *loadConn, lo, hi int) (requests, failed int, err error) {
	st := lc.st
	for bi := lo; bi < hi; bi++ {
		bu := &st.bursts[bi]
		var lines int
		lc.exp, lines = in.model.expect(st, bu, &lc.se, lc.exp[:0])
		reply, tm, err := lc.exchange(st.wire[bu.wire[0]:bu.wire[1]], lines)
		if err != nil {
			return requests, failed, err
		}
		nreq := int(bu.reqs[1] - bu.reqs[0])
		requests += nreq
		per := float64(tm.end-tm.start) / float64(nreq)
		lc.rec.lat = append(lc.rec.lat, per)
		if nreq == 1 && lc.rec.getRTT != nil {
			if st.reqs[bu.reqs[0]].kind == opGet {
				lc.rec.getRTT = append(lc.rec.getRTT, per)
			} else {
				lc.rec.setRTT = append(lc.rec.setRTT, per)
			}
		}
		if lc.trace {
			lc.rec.spans = append(lc.rec.spans, tm)
		}
		if !bytes.Equal(reply, lc.exp) {
			failed += min(diffLines(reply, lc.exp, &lc.rec), nreq)
		}
	}
	return requests, failed, nil
}

// diffLines counts the lines at which got departs from want, noting the
// first for the operator. A length mismatch counts every missing or
// surplus line.
func diffLines(got, want []byte, rec *recorder) int {
	g, w := bytes.Split(got, []byte("\r\n")), bytes.Split(want, []byte("\r\n"))
	bad := 0
	for i := 0; i < max(len(g), len(w)); i++ {
		if i >= len(g) || i >= len(w) || !bytes.Equal(g[i], w[i]) {
			if bad == 0 && i < len(g) && i < len(w) {
				rec.note("reply line %d: got %q, want %q", i, g[i], w[i])
			}
			bad++
		}
	}
	return max(bad, 1)
}

// stampedAck parses "STORED @<epoch>", the receipt of a relaxed set.
func stampedAck(line []byte) (epoch uint64, ok bool) {
	const prefix = "STORED @"
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return 0, false
	}
	e, err := strconv.ParseUint(string(line[len(prefix):]), 10, 64)
	return e, err == nil
}

// eachLine calls fn with every CRLF-terminated line of reply.
func eachLine(reply []byte, fn func(i int, line []byte)) {
	for i := 0; len(reply) > 0; i++ {
		j := bytes.IndexByte(reply, '\n')
		if j < 0 {
			fn(i, reply)
			return
		}
		fn(i, bytes.TrimSuffix(reply[:j], []byte("\r")))
		reply = reply[j+1:]
	}
}

// relaxedGroups runs groups lo..hi of relaxed_wait: groupBursts bursts
// of relaxed sets, every ack checked for its epoch receipt, then one
// wait barrier that must report a frontier covering every receipt seen.
func (in *instance) relaxedGroups(lc *loadConn, lo, hi int) (requests, failed int, err error) {
	st := lc.st
	for g := lo; g < hi; g++ {
		var newest uint64
		for b := 0; b < groupBursts; b++ {
			bu := &st.bursts[g*groupBursts+b]
			nreq := int(bu.reqs[1] - bu.reqs[0])
			reply, tm, err := lc.exchange(st.wire[bu.wire[0]:bu.wire[1]], nreq)
			if err != nil {
				return requests, failed, err
			}
			requests += nreq
			lc.rec.lat = append(lc.rec.lat, float64(tm.end-tm.start)/float64(nreq))
			if lc.trace {
				lc.rec.spans = append(lc.rec.spans, tm)
			}
			eachLine(reply, func(i int, line []byte) {
				e, ok := stampedAck(line)
				if !ok || i >= nreq {
					failed++
					lc.rec.note("relaxed set answered %q", line)
					return
				}
				newest = max(newest, e)
				a := st.argsOf(&st.reqs[int(bu.reqs[0])+i])
				in.model.val[a[0]], in.model.has[a[0]] = a[1], true
			})
		}
		reply, tm, err := lc.exchange([]byte("wait\r\n"), 1)
		if err != nil {
			return requests, failed, err
		}
		requests++
		lc.rec.waits = append(lc.rec.waits, float64(tm.end-tm.start))
		frontier, perr := strconv.ParseUint(string(bytes.TrimSpace(reply)), 10, 64)
		if perr != nil || frontier < newest {
			failed++
			lc.rec.note("wait answered %q after receipts up to @%d", bytes.TrimSpace(reply), newest)
		}
	}
	return requests, failed, nil
}

// crashCycles runs n cycles of recover. Each cycle writes a fresh
// window of keys (durable, then relaxed), power-fails every shard with
// the `crash` command — the one timed request — and reads the window
// and some bystanders back. A durable ack must have survived; a relaxed
// ack must have survived if its receipt is at or below the recovered
// frontier, and may read either value above it.
func (in *instance) crashCycles(lc *loadConn, n int) (requests, failed int, err error) {
	m := in.model
	keys := make([]uint64, cycleKeys)
	fresh := make([]uint64, cycleDurable+cycleRelaxed)
	var wire []byte
	for cy := 0; cy < n; cy++ {
		in.walk.next(keys, fresh)

		// Durable and relaxed sets, in bursts of depth.
		for at := 0; at < len(fresh); at += in.sp.depth {
			relaxed := at >= cycleDurable
			kind := opSet
			if relaxed {
				kind = opRelaxedSet
			}
			wire = wire[:0]
			for i := at; i < at+in.sp.depth; i++ {
				wire, _ = appendWire(wire, kind, []uint64{keys[i], fresh[i]})
			}
			reply, _, err := lc.exchange(wire, in.sp.depth)
			if err != nil {
				return requests, failed, err
			}
			requests += in.sp.depth
			eachLine(reply, func(i int, line []byte) {
				if i >= in.sp.depth {
					failed++
					return
				}
				if !relaxed {
					if string(line) != "STORED" {
						failed++
						lc.rec.note("durable set answered %q", line)
					}
					m.val[keys[at+i]] = fresh[at+i]
					return
				}
				e, ok := stampedAck(line)
				if !ok {
					failed++
					lc.rec.note("relaxed set answered %q", line)
				}
				in.stamps[at+i-cycleDurable] = e
			})
		}

		// The crash: every shard loses power, recovers, and verifies.
		reply, tm, err := lc.exchange([]byte("crash\r\n"), 1)
		if err != nil {
			return requests, failed, err
		}
		requests++
		lc.rec.lat = append(lc.rec.lat, float64(tm.end-tm.start))
		if lc.trace {
			lc.rec.spans = append(lc.rec.spans, tm)
		}
		var frontier uint64
		if n, _ := fmt.Sscanf(string(reply), "OK RECOVERED EPOCH %d", &frontier); n != 1 {
			failed++
			lc.rec.note("crash answered %q", bytes.TrimSpace(reply))
		}

		// Read everything back.
		for at := 0; at < len(keys); at += in.sp.depth {
			wire = wire[:0]
			for i := at; i < at+in.sp.depth; i++ {
				wire, _ = appendWire(wire, opGet, keys[i:i+1])
			}
			reply, _, err := lc.exchange(wire, in.sp.depth)
			if err != nil {
				return requests, failed, err
			}
			requests += in.sp.depth
			eachLine(reply, func(i int, line []byte) {
				if i >= in.sp.depth {
					failed++
					return
				}
				k := keys[at+i]
				var gotK, gotV uint64
				if n, _ := fmt.Sscanf(string(line), "VALUE %d %d", &gotK, &gotV); n != 2 || gotK != k {
					failed++
					lc.rec.note("key %d read %q after the crash", k, line)
					return
				}
				ri := at + i - cycleDurable // index among the relaxed sets
				switch {
				case ri < 0 || ri >= cycleRelaxed:
					if gotV != m.val[k] {
						failed++
						lc.rec.note("key %d read %d after the crash, want %d", k, gotV, m.val[k])
					}
				case gotV == fresh[at+i]:
					m.val[k] = gotV // the relaxed write survived
				case gotV == m.val[k] && in.stamps[ri] > frontier:
					// A licensed loss: the receipt was above the frontier.
				default:
					failed++
					lc.rec.note("relaxed key %d (receipt @%d, frontier %d) read %d", k, in.stamps[ri], frontier, gotV)
				}
			})
		}
	}
	return requests, failed, nil
}

// audit reads the whole keyspace back and compares it with the model,
// so a write whose effect no later request happened to read is still
// checked. It runs after the measured passes, outside all timing.
func (in *instance) audit() (requests, failed int, err error) {
	lc := in.load[0]
	lc.arm()
	defer lc.disarm()
	const per, depth = 16, 16
	var wire, want []byte
	for k := uint64(0); k < hashKeys; {
		wire, want = wire[:0], want[:0]
		for r := 0; r < depth; r++ {
			wire = append(wire, "mget"...)
			for j := 0; j < per; j, k = j+1, k+1 {
				wire = append(wire, ' ')
				wire = strconv.AppendUint(wire, k, 10)
				want = in.model.appendValue(want, k, true)
			}
			wire = append(wire, '\r', '\n')
			want = append(want, "END\r\n"...)
		}
		reply, _, err := lc.exchange(wire, depth*(per+1))
		if err != nil {
			return requests, failed, fmt.Errorf("audit: %w", err)
		}
		requests += depth
		if !bytes.Equal(reply, want) {
			failed += min(diffLines(reply, want, &lc.rec), depth)
		}
	}
	if !in.sp.usesZ() {
		return requests, failed, nil
	}
	for z := uint64(0); z < zsetKeys; z += zrangeWin {
		wire = append(wire[:0], "zrange "...)
		wire = strconv.AppendUint(wire, z, 10)
		wire = append(wire, ' ')
		wire = strconv.AppendUint(wire, z+zrangeWin, 10)
		wire = append(wire, '\r', '\n')
		want = want[:0]
		for j := z; j < z+zrangeWin; j++ {
			want = appendValueLine(want, j, in.model.zval[j])
		}
		want = append(want, "END\r\n"...)
		reply, _, err := lc.exchange(wire, zrangeWin+1)
		if err != nil {
			return requests, failed, fmt.Errorf("audit: %w", err)
		}
		requests++
		if !bytes.Equal(reply, want) {
			failed++
			diffLines(reply, want, &lc.rec)
		}
	}
	return requests, failed, nil
}
