package cacheserver

import (
	"fmt"
	"maps"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/nvm"
)

// The crash-point sweep. A seeded stream is served on one connection to
// a one-shard server, once crash-free (the reference) and then once per
// crash point k with nvm.Device.ArmCrashAfter(k) armed, until k is past
// the stream's last store. Every store of the burst — a section's log
// records and map words, a drain's payload, commit word and apply — is
// therefore a crash instant, and the served path's one rule is on trial:
// a section or drain commit that ran on a crashed device answers
// nothing. Each run is quiesced (the drain lock: an answered wait's
// apply may still run on the epoch goroutine), recovered through
// shard.crashAndRecover (its Map/List Verify; Device.Crash is a no-op on
// a crashed device, so the armed crash's rescue is the one that counts)
// and checked:
//
//   - the replies before the first SERVER_ERROR (a crash error or a wait
//     timeout) are what reached the client, and each equals the
//     reference's byte for byte;
//   - each keyspace equals its projection of the model after some
//     prefix of commit units at or after the last ack — a durable ack, a
//     wait answered with the frontier, or a relaxed ack stamped at or
//     below the frontier the crash reply would carry (durable
//     linearizability, per keyspace: a z-write is durable at its CAS, so
//     it may outlive the earlier hash writes of its section);
//   - the last seq-tagged command served, resent after recovery,
//     replays its ack if its effect survived and applies once if it did
//     not (detectability).

// sweepBatchMax makes the streams' wide msets span sections.
const sweepBatchMax = 16

// raceBuild is set under the race detector (see race_test.go), where a
// row walks its crash points at its raceStride.
var raceBuild bool

// sweepDurable reports whether cmd's reply, when it reaches the client,
// promises its effect durable: a wait answered with the frontier, or a
// mutation on the durable tier — which every z-write and seq-tagged
// write answers, whatever tier it names.
func sweepDurable(cmd string) bool {
	switch strings.Fields(cmd)[0] {
	case "wait", "zadd", "zincr", "zdel":
		return true
	case "set", "incr", "delete", "mset":
		return strings.Contains(cmd, "seq=") || !strings.HasSuffix(cmd, " relaxed") && !strings.HasSuffix(cmd, " fire")
	}
	return false
}

// sweepState is the shard's two keyspaces: hash and ordered.
type sweepState struct{ h, z map[uint64]uint64 }

func (st sweepState) clone() sweepState { return sweepState{maps.Clone(st.h), maps.Clone(st.z)} }

// sweepApply is the depth-1 model of one command: it applies cmd to st
// and calls unit after each commit unit — a mutation, or one
// section-sized chunk of an mset wider than sweepBatchMax, which commits
// chunk by chunk. rec is the session's last applied seq: a seq at or
// below it applies nothing. Returns the ack a fresh application answers
// ("" when nothing applied).
func sweepApply(st sweepState, cmd string, rec *uint64, unit func()) string {
	f := strings.Fields(cmd)
	var kv []uint64
	for _, a := range f[1:] {
		if s, ok := strings.CutPrefix(a, "seq="); ok {
			seq, _ := strconv.ParseUint(s, 10, 64)
			if seq <= *rec {
				return ""
			}
			*rec = seq
		} else if n, err := strconv.ParseUint(a, 10, 64); err == nil {
			kv = append(kv, n)
		}
	}
	m := st.h
	if f[0][0] == 'z' {
		m = st.z
	}
	switch f[0] {
	case "set", "zadd":
		m[kv[0]] = kv[1]
		unit()
		return "STORED"
	case "incr", "zincr":
		m[kv[0]] += kv[1]
		unit()
		return strconv.FormatUint(m[kv[0]], 10)
	case "delete", "zdel":
		_, ok := m[kv[0]]
		delete(m, kv[0])
		unit()
		if ok {
			return "DELETED"
		}
		return "NOT_FOUND"
	case "mset":
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
			if n := i/2 + 1; n%sweepBatchMax == 0 || 2*n == len(kv) {
				unit()
			}
		}
		return fmt.Sprintf("STORED %d", len(kv)/2)
	}
	return ""
}

// sweepModel runs the stream through sweepApply from start: states[q] is
// the state after q commit units, end[i] the unit count after command i.
func sweepModel(start sweepState, cmds []string) (states []sweepState, end []int) {
	st, rec := start.clone(), uint64(0)
	states = []sweepState{start.clone()}
	for _, c := range cmds {
		sweepApply(st, c, &rec, func() { states = append(states, st.clone()) })
		end = append(end, len(states)-1)
	}
	return states, end
}

// sweepMixStream is the mix row's seeded stream in bursts of 16: plain
// and seq-tagged set / incr / delete / mset on 24 hash keys, zadd / zincr
// / zdel on 16 ordered keys (some on the relaxed tier, which a z-write
// and a seq-tagged write answer durably), gets, resends of the latest
// seq (a replay), and one plain and one seq-tagged mset wider than a
// section.
func sweepMixStream(seed int64, n int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	key := func() uint64 { return 1 + uint64(rng.Intn(24)) }
	zkey := func() uint64 { return 1 + uint64(rng.Intn(16)) }
	tier := func(c string) string {
		if rng.Intn(4) == 0 {
			return c + " relaxed"
		}
		return c
	}
	mset := func(n int) string {
		c := "mset"
		for _, k := range rng.Perm(24)[:n] {
			c += fmt.Sprintf(" %d %d", k+1, rng.Intn(1000))
		}
		return c
	}
	var cmds []string
	seq, last := 0, ""
	tagged := func(c string) string {
		seq++
		last = tier(fmt.Sprintf("%s seq=%d", c, seq))
		return last
	}
	for len(cmds) < n {
		var c string
		switch r := rng.Intn(100); {
		case len(cmds) == n/3:
			c = mset(sweepBatchMax + 4)
		case len(cmds) == 2*n/3:
			c = tagged(mset(sweepBatchMax + 4))
		case r < 12:
			c = fmt.Sprintf("set %d %d", key(), rng.Intn(1000))
		case r < 24:
			c = fmt.Sprintf("incr %d %d", key(), 1+rng.Intn(9))
		case r < 30:
			c = fmt.Sprintf("delete %d", key())
		case r < 36:
			c = fmt.Sprintf("get %d", key())
		case r < 44:
			c = mset(3)
		case r < 52:
			c = tier(fmt.Sprintf("zadd %d %d", zkey(), rng.Intn(1000)))
		case r < 58:
			c = tier(fmt.Sprintf("zincr %d %d", zkey(), 1+rng.Intn(9)))
		case r < 61:
			c = fmt.Sprintf("zdel %d", zkey())
		case r < 64:
			c = fmt.Sprintf("zget %d", zkey())
		case r < 72:
			c = tagged(fmt.Sprintf("set %d %d", key(), rng.Intn(1000)))
		case r < 82:
			c = tagged(fmt.Sprintf("incr %d %d", key(), 1+rng.Intn(9)))
		case r < 86:
			c = tagged(fmt.Sprintf("delete %d", key()))
		case r < 91:
			c = tagged(mset(3))
		case r < 96 && last != "":
			c = last
		default:
			continue
		}
		cmds = append(cmds, c)
	}
	var bursts [][]string
	for len(cmds) > 0 {
		n := min(16, len(cmds))
		bursts, cmds = append(bursts, cmds[:n]), cmds[n:]
	}
	return bursts
}

// sweepWaitStream is the relaxed row: two runs of blind relaxed and fire
// writes and a relaxed incr, each ended by a wait (20 ms: on a crashed
// shard it times out), with a seq-tagged incr and a zadd between them in
// a burst of their own. Every relaxed write is followed by a wait before
// any durable write, so a crash that sheds the overlay still leaves a
// prefix.
func sweepWaitStream() [][]string {
	run := func(n, base int) []string {
		var c []string
		for i := 0; i < n; i++ {
			k := 1 + (base+i*7)%24
			switch i % 4 {
			case 0, 1:
				c = append(c, fmt.Sprintf("set %d %d relaxed", k, base+i))
			case 2:
				c = append(c, fmt.Sprintf("mset %d %d %d %d relaxed", k, i, 1+(k+11)%24, base))
			default:
				c = append(c, fmt.Sprintf("delete %d fire", k))
			}
		}
		return append(c, fmt.Sprintf("incr %d 3 relaxed", 1+base%24), fmt.Sprintf("get %d", 1+base%24), "wait 0 20")
	}
	return [][]string{run(16, 100), {"incr 5 2 seq=1", "zadd 3 9"}, run(8, 200)}
}

// sweepRun is one row's fixed inputs: the warm-up state, the stream and
// its model, and the crash-free reference replies.
type sweepRun struct {
	opts   []Option
	bursts [][]byte
	cmds   []string
	states []sweepState
	end    []int
	ref    []string
}

// sweepWarmup binds the session and makes one durable write before any
// crash is armed: the shard's first section registers its Atlas thread
// and allocates its log ring, set-up no crash point needs to visit.
var sweepWarmup = []byte("session 7\r\nset 999 1\r\n")

// newSweepRun models a row's stream and serves it crash-free for the
// reference replies; the reference's final keyspace must be the model's.
func newSweepRun(t *testing.T, mode atlas.Mode, bursts [][]string) *sweepRun {
	r := &sweepRun{opts: []Option{WithShards(1), WithMode(mode), WithBatchMax(sweepBatchMax),
		WithEpochInterval(time.Hour), WithDeviceWords(1 << 16)}}
	for _, b := range bursts {
		r.cmds = append(r.cmds, b...)
		r.bursts = append(r.bursts, []byte(strings.Join(b, "\r\n")+"\r\n"))
	}
	r.states, r.end = sweepModel(sweepState{h: map[uint64]uint64{999: 1}, z: map[uint64]uint64{}}, r.cmds)
	s, serve := r.start(t)
	defer s.Close()
	for _, b := range r.bursts {
		r.ref = append(r.ref, replyLines(serve(b))...)
	}
	if len(r.ref) != len(r.cmds) {
		t.Fatalf("reference: %d reply lines for %d commands", len(r.ref), len(r.cmds))
	}
	if got := sweepRead(s.shards[0]); !maps.Equal(got.h, r.states[len(r.states)-1].h) ||
		!maps.Equal(got.z, r.states[len(r.states)-1].z) {
		t.Fatalf("reference keyspace %v disagrees with the model's %v", got, r.states[len(r.states)-1])
	}
	return r
}

// start builds a fresh server and warms its connection up.
func (r *sweepRun) start(t *testing.T) (*Server, func([]byte) string) {
	s, err := New(r.opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	serve := burstConn(s)
	if got := serve(sweepWarmup); got != "OK SESSION 7\r\nSTORED\r\n" {
		t.Fatalf("warm-up: %q", got)
	}
	return s, serve
}

// replyLines splits a burst's replies, one line per sweep command.
func replyLines(out string) []string {
	if out == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(out, "\r\n"), "\r\n")
}

// sweepRead reads the shard's keyspaces (sh.state takes the drain lock).
func sweepRead(sh *shard) sweepState {
	st := sweepState{h: map[uint64]uint64{}, z: map[uint64]uint64{}}
	ops, _, _ := sh.state(nil)
	for _, op := range ops {
		if op.List {
			st.z[op.Key] = op.Val
		} else {
			st.h[op.Key] = op.Val
		}
	}
	return st
}

// The checks a crash point can fail, by what they protect.
const (
	sweepReplies = iota // the replies, recovery's Verify passes, VerifyAll
	sweepHash           // the hash keyspace is a prefix at or after the last ack
	sweepOrdered        // the ordered keyspace is, and the skip list verifies
	sweepResend         // the resent seq resolves to one application
	sweepChecks
)

// sweepPoint is what one crash point found: whether the armed crash
// fired, and the first violation of each check ("" for none).
type sweepPoint struct {
	fired bool
	fail  [sweepChecks]string
}

// crashedUnderDrainLock reports whether the shard's device has crashed,
// once any apply still running on the epoch goroutine has finished.
func crashedUnderDrainLock(sh *shard) bool {
	sh.combineMu.Lock()
	defer sh.combineMu.Unlock()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.stk.Dev.Crashed()
}

// point serves the stream with a crash armed after k stores, recovers
// and checks. Serving stops at the first burst that begins on a crashed
// device: a dead server answers nothing more.
func (r *sweepRun) point(t *testing.T, k uint64, crash nvm.CrashOptions) (p sweepPoint) {
	s, serve := r.start(t)
	defer s.Close()
	sh := s.shards[0]
	if crash.Keep != nil {
		// An image starts from a clean device: the lines the warm-up
		// left dirty (its records, its key, its session) persist what
		// they hold, and would only dilute the images among the
		// stream's own lines.
		sh.stk.Dev.FlushAll()
	}
	sh.stk.Dev.ArmCrashAfter(k, crash)
	var lines []string
	for _, b := range r.bursts {
		if crashedUnderDrainLock(sh) {
			break
		}
		lines = append(lines, replyLines(serve(b))...)
	}
	sh.combineMu.Lock()
	sh.mu.RLock()
	p.fired = sh.stk.Dev.Crashed()
	sh.mu.RUnlock()
	frontier := s.perEpoch.Load() // what `crash` would answer
	err := sh.crashAndRecover()
	sh.combineMu.Unlock()
	if err != nil {
		if strings.Contains(err.Error(), "list verify") {
			p.fail[sweepOrdered] = err.Error()
		} else {
			p.fail[sweepReplies] = err.Error()
		}
		return p
	}
	if err := s.VerifyAll(); err != nil {
		p.fail[sweepReplies] = err.Error()
		return p
	}

	// The replies before the first SERVER_ERROR reached the client.
	if !p.fired && len(lines) != len(r.ref) {
		p.fail[sweepReplies] = fmt.Sprintf("no crash fired, yet %d of %d replies", len(lines), len(r.ref))
		return p
	}
	low := 0 // the first model state the acks allow
	for i, l := range lines {
		if p.fired && strings.HasPrefix(l, "SERVER_ERROR") {
			break
		}
		if l != r.ref[i] {
			p.fail[sweepReplies] = fmt.Sprintf("reply %d to %q: %q, crash-free %q", i, r.cmds[i], l, r.ref[i])
			return p
		}
		if at := strings.LastIndex(l, " @"); at >= 0 {
			if e, _ := strconv.ParseUint(l[at+2:], 10, 64); e <= frontier {
				low = r.end[i]
			}
		} else if sweepDurable(r.cmds[i]) {
			low = r.end[i]
		}
	}
	high := r.end[len(lines)-1]

	// The prefixes each keyspace equals.
	got := sweepRead(sh)
	var hq, zq []int
	for q := low; q <= high; q++ {
		if maps.Equal(got.h, r.states[q].h) {
			hq = append(hq, q)
		}
		if maps.Equal(got.z, r.states[q].z) {
			zq = append(zq, q)
		}
	}
	if len(zq) == 0 {
		p.fail[sweepOrdered] = fmt.Sprintf("ordered keyspace %v matches no prefix in [%d, %d]", got.z, low, high)
	}
	if len(hq) == 0 {
		p.fail[sweepHash] = fmt.Sprintf("hash keyspace %v matches no prefix in [%d, %d]", got.h, low, high)
		return p
	}
	p.fail[sweepResend] = r.resend(sh, s, len(lines)-1, got, hq, zq)
	return p
}

// resend resends the last seq-tagged command served — the client's most
// recent request, whose reply it may never have seen — on a fresh
// connection and checks it resolves to one application: a replay of its
// ack if its effect survived (some prefix its keyspace equals covers
// it), else one application to the recovered state.
func (r *sweepRun) resend(sh *shard, s *Server, last int, got sweepState, hq, zq []int) string {
	j := last
	for j >= 0 && !strings.Contains(r.cmds[j], "seq=") {
		j--
	}
	if j < 0 {
		return ""
	}
	first := j // the seq's first send: a resend in the stream applied nothing
	for i := j - 1; i >= 0; i-- {
		if r.cmds[i] == r.cmds[j] {
			first = i
		}
	}
	serve := burstConn(s)
	serve([]byte("session 7\r\n"))
	rep := strings.TrimSuffix(serve([]byte(r.cmds[j]+"\r\n")), "\r\n")
	after := sweepRead(sh)
	fresh := got.clone()
	want := sweepApply(fresh, r.cmds[j], new(uint64), func() {})
	qs := hq
	if r.cmds[j][0] == 'z' {
		qs = zq
	}
	for _, q := range qs {
		if q >= r.end[first] && rep == r.ref[j] && maps.Equal(after.h, got.h) && maps.Equal(after.z, got.z) ||
			q < r.end[first] && rep == want && maps.Equal(after.h, fresh.h) && maps.Equal(after.z, fresh.z) {
			return ""
		}
	}
	return fmt.Sprintf("resent %q at prefixes %v (it ends at %d): %q, keyspaces %v",
		r.cmds[j], qs, r.end[first], rep, after)
}

// sweepImage is one crash image a row tries at a crash point: keep
// chooses each dirty line's prefix (nvm.CrashOptions.Keep).
type sweepImage struct {
	name string
	keep func(line uint64, stores int) int
}

func keepAll(_ uint64, stores int) int { return stores }
func keepNone(uint64, int) int         { return 0 }

// sweepLine is a dirty line at the crash and its store boundaries.
type sweepLine struct {
	line   uint64
	stores int
}

// sweepImages returns the images tried at crash point k once the base
// image has found the dirty lines: all and none, three seeded fractions,
// the subsets of the lines kept whole (each one when there are at most
// 8 lines, else 64 seeded), and each line cut at each of its inner
// boundaries with every other line at the base. Lines a run finds that
// the base did not are kept whole by a subset, at the base by a cut.
func sweepImages(k uint64, base func(uint64, int) int, lines []sweepLine) []sweepImage {
	ims := []sweepImage{{"all", keepAll}, {"none", keepNone}}
	for _, f := range []float64{0.25, 0.5, 0.75} {
		rng := rand.New(rand.NewSource(int64(k)))
		ims = append(ims, sweepImage{fmt.Sprintf("fraction %v", f), func(_ uint64, n int) int {
			if rng.Float64() < f {
				return n
			}
			return 0
		}})
	}
	subset := func(mask func(i int) bool) {
		whole := map[uint64]bool{}
		var name []string
		for i, l := range lines {
			if mask(i) {
				whole[l.line] = true
				name = append(name, strconv.FormatUint(l.line, 10))
			}
		}
		ims = append(ims, sweepImage{"lines {" + strings.Join(name, " ") + "} whole", func(l uint64, n int) int {
			if whole[l] {
				return n
			}
			return 0
		}})
	}
	if len(lines) <= 8 {
		for m := 1; m < 1<<len(lines)-1; m++ {
			subset(func(i int) bool { return m>>i&1 != 0 })
		}
	} else {
		rng := rand.New(rand.NewSource(int64(k)))
		for range 64 {
			subset(func(int) bool { return rng.Intn(2) == 0 })
		}
	}
	for _, l := range lines {
		for j := 1; j < l.stores; j++ {
			ims = append(ims, sweepImage{fmt.Sprintf("line %d cut at %d of %d", l.line, j, l.stores), func(line uint64, n int) int {
				if line == l.line {
					return min(j, n)
				}
				return base(line, n)
			}})
		}
	}
	return ims
}

// TestCrashPointSweep sweeps every crash point of each row's stream. A
// row either passes every check at every point, or names the one check
// a known defect fails at some point while every other check passes
// everywhere, or (a crash TSP does not tolerate) must be caught by some
// check somewhere. The known defects:
//
//   - nontsp with no rescue keeps the hash keyspace, but the skip list
//     publishes its nodes with unflushed CASes, so an acked z-write is
//     lost. Flushing the skip list's destination under nontsp fixes it.
//   - A seq-tagged z-write is durable at its CAS, but its session record
//     commits with the section after it: a crash between the two keeps
//     the effect and loses the record, so the resend applies again (a
//     zincr twice, a zdel answering NOT_FOUND). The mix row's seq tags
//     are on hash writes for that reason. Persisting the record with the
//     effect fixes it.
//
// A fix flips its row's known check to sweepNone.
//
// The image rows try every image of sweepImages at each point they
// visit, around a base image (none for nontsp, the full rescue for the
// tsp row), and log the smallest image that fails a check: the one that
// departs from the base on the fewest lines.
func TestCrashPointSweep(t *testing.T) {
	const sweepNone, sweepAny = -1, sweepChecks
	names := [sweepChecks]string{"replies", "hash", "ordered", "resend"}
	mix := sweepMixStream(3, 120)
	zseq := [][]string{{"zadd 1 5", "zincr 1 3 seq=1"}, {"set 2 2", "zincr 1 4 seq=2"},
		{"zdel 1 seq=3"}, {"set 3 3", "zadd 2 6", "zdel 2 seq=4"}}
	for _, tc := range []struct {
		name               string
		mode               atlas.Mode
		crash              nvm.CrashOptions
		images             bool
		stride, raceStride uint64
		bursts             [][]string
		known              int
	}{
		{"tsp_mix", atlas.ModeTSP, nvm.CrashOptions{RescueFraction: 1}, false, 1, 8, mix, sweepNone},
		{"tsp_relaxed_wait", atlas.ModeTSP, nvm.CrashOptions{RescueFraction: 1}, false, 1, 8, sweepWaitStream(), sweepNone},
		{"tsp_seq_zwrite", atlas.ModeTSP, nvm.CrashOptions{RescueFraction: 1}, false, 1, 2, zseq, sweepResend},
		{"nontsp_no_rescue", atlas.ModeNonTSP, nvm.CrashOptions{}, true, 60, 600, mix, sweepOrdered},
		{"nontsp_relaxed_wait", atlas.ModeNonTSP, nvm.CrashOptions{}, true, 100, 200, sweepWaitStream(), sweepOrdered},
		{"tsp_partial_rescue", atlas.ModeTSP, nvm.CrashOptions{RescueFraction: 1}, true, 250, 500, mix, sweepAny},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newSweepRun(t, tc.mode, tc.bursts)
			start := time.Now()
			var points, images, caught int
			var failed [sweepChecks]int
			smallest, smallestSize := "", -1
			stride := tc.stride
			if raceBuild {
				stride = tc.raceStride
			}
			base := keepNone
			if tc.crash.RescueFraction == 1 {
				base = keepAll
			}
			// try crashes after k stores under one image, counting the
			// lines on which it departs from the base.
			try := func(k uint64, im sweepImage, seen *[]sweepLine) sweepPoint {
				size := 0
				crash := tc.crash
				if tc.images {
					crash = nvm.CrashOptions{Keep: func(l uint64, n int) int {
						j := im.keep(l, n)
						if j != base(l, n) {
							size++
						}
						if seen != nil {
							*seen = append(*seen, sweepLine{l, n})
						}
						return j
					}}
				}
				p := r.point(t, k, crash)
				images++
				bad := false
				for c, f := range p.fail {
					if f == "" {
						continue
					}
					if tc.known != sweepAny && c != tc.known {
						t.Fatalf("crash after %d stores, image %s: %s check: %s", k, im.name, names[c], f)
					}
					failed[c]++
					bad = true
					if smallestSize < 0 || size < smallestSize {
						smallest, smallestSize = fmt.Sprintf("crash after %d stores, image %s (%d lines off the base): %s check: %s",
							k, im.name, size, names[c], f), size
					}
				}
				if bad {
					caught++
				}
				return p
			}
			for k := uint64(0); ; k += stride {
				var lines []sweepLine
				p := try(k, sweepImage{"base", base}, &lines)
				if !p.fired {
					break
				}
				points++
				if tc.images {
					for _, im := range sweepImages(k, base, lines) {
						try(k, im, nil)
					}
				}
			}
			t.Logf("%d crash points, %d images in %v, failures per check %v: %v",
				points, images, time.Since(start).Round(time.Millisecond), names, failed)
			if smallest != "" {
				t.Logf("smallest failing image: %s", smallest)
			}
			switch {
			case tc.known == sweepAny && caught == 0:
				t.Fatal("no crash point was caught: the checker has no teeth")
			case tc.known >= 0 && tc.known < sweepChecks && failed[tc.known] == 0:
				t.Fatalf("the known defect no longer fails the %s check: if it is fixed, "+
					"this row's known check is sweepNone", names[tc.known])
			}
		})
	}
}
