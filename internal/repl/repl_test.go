package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsp/internal/telemetry"
)

// source is the primary-side authoritative state the tests stream from:
// a map mutated in lockstep with log appends, exactly how the cache
// server appends each committed batch group.
type source struct {
	mu  sync.Mutex
	m   map[uint64]uint64
	log *Log
}

func newSource(window int) *source {
	return &source{m: make(map[uint64]uint64), log: NewLog(window)}
}

// apply mutates the state and appends the group to the log.
func (s *source) apply(ops ...Op) {
	s.mu.Lock()
	for _, op := range ops {
		if op.Del {
			delete(s.m, op.Key)
		} else {
			s.m[op.Key] = op.Val
		}
	}
	s.mu.Unlock()
	s.log.Append(ops, 0, nil)
}

// state emits the current state, as the primary's State callback.
func (s *source) state(emit func([]Op, []SessRec, uint64) error) error {
	s.mu.Lock()
	ops := make([]Op, 0, len(s.m))
	for k, v := range s.m {
		ops = append(ops, Op{Key: k, Val: v})
	}
	s.mu.Unlock()
	return emit(ops, nil, 0)
}

// copyState returns a copy of the authoritative map.
func (s *source) copyState() map[uint64]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]uint64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// fakeApplier is an in-memory follower state; failApply makes the next
// N Apply calls fail to simulate a snapshot transfer dying midway.
type fakeApplier struct {
	mu        sync.Mutex
	m         map[uint64]uint64
	sess      map[uint64]uint64 // session id -> highest inherited seq
	floor     uint64
	failApply atomic.Int32
}

func newFakeApplier() *fakeApplier {
	return &fakeApplier{m: make(map[uint64]uint64), sess: make(map[uint64]uint64)}
}

func (a *fakeApplier) Wipe() error {
	a.mu.Lock()
	a.m = make(map[uint64]uint64)
	a.mu.Unlock()
	return nil
}

func (a *fakeApplier) Apply(ops []Op, marks []SessRec, floor uint64) error {
	if a.failApply.Load() > 0 {
		a.failApply.Add(-1)
		return errFailInjected
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, op := range ops {
		if op.Del {
			delete(a.m, op.Key)
		} else {
			a.m[op.Key] = op.Val
		}
	}
	for _, m := range marks {
		a.sess[m.Sess] = max(a.sess[m.Sess], m.Seq)
	}
	a.floor = max(a.floor, floor)
	return nil
}

func (a *fakeApplier) copyState() map[uint64]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[uint64]uint64, len(a.m))
	for k, v := range a.m {
		out[k] = v
	}
	return out
}

var errFailInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected failure" }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sameState compares two maps.
func sameState(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func startPrimary(t *testing.T, src *source, tel *telemetry.ReplStats) *Primary {
	t.Helper()
	p, err := ListenPrimary("127.0.0.1:0", PrimaryConfig{
		Log:   src.log,
		State: src.state,
		Tel:   tel,
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatalf("ListenPrimary: %v", err)
	}
	return p
}

func startFollower(t *testing.T, addr string, app Applier, tel *telemetry.ReplStats) *Follower {
	t.Helper()
	f, err := StartFollower(FollowerConfig{Addr: addr, Applier: app, Tel: tel, Logf: t.Logf})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	return f
}

// TestStreamBasic drives groups through a live stream and checks the
// follower converges, acks flow back, and lag samples land.
func TestStreamBasic(t *testing.T) {
	src := newSource(1024)
	ptel := telemetry.NewReplStats()
	ftel := telemetry.NewReplStats()
	p := startPrimary(t, src, ptel)
	defer p.Close()
	defer src.log.Close()

	src.apply(Op{Key: 1, Val: 10}, Op{Key: 2, Val: 20})
	app := newFakeApplier()
	f := startFollower(t, p.Addr(), app, ftel)
	defer f.Stop()

	src.apply(Op{Key: 3, Val: 30})
	src.apply(Op{Key: 1, Val: 11}, Op{Del: true, Key: 2})

	waitFor(t, "follower convergence", func() bool {
		return sameState(src.copyState(), app.copyState())
	})
	waitFor(t, "follower position", func() bool {
		gen, seq := f.Position()
		lgen, lseq := src.log.Position()
		return gen == lgen && seq == lseq
	})
	waitFor(t, "acks and lag samples", func() bool {
		return ptel.AcksReceived.Load() > 0 && ptel.Lag.Snapshot().Count() > 0
	})
	if got := ptel.Snapshots.Load(); got != 1 {
		t.Fatalf("snapshots served = %d, want 1 (initial transfer only)", got)
	}
	if p.Followers() != 1 {
		t.Fatalf("followers = %d, want 1", p.Followers())
	}
}

// TestReconnectInsideWindow severs the stream by restarting the
// primary's listener; the follower's position is still inside the log
// window, so catch-up must stream groups without a second snapshot.
func TestReconnectInsideWindow(t *testing.T) {
	src := newSource(1024)
	ptel := telemetry.NewReplStats()
	p := startPrimary(t, src, ptel)
	addr := p.Addr()
	defer src.log.Close()

	app := newFakeApplier()
	ftel := telemetry.NewReplStats()
	f := startFollower(t, addr, app, ftel)
	defer f.Stop()

	for i := uint64(0); i < 5; i++ {
		src.apply(Op{Key: i, Val: i * 100})
	}
	waitFor(t, "initial convergence", func() bool {
		return sameState(src.copyState(), app.copyState())
	})

	p.Close()
	// Groups committed while the follower is disconnected; the window
	// (1024) comfortably retains them.
	for i := uint64(5); i < 10; i++ {
		src.apply(Op{Key: i, Val: i * 100})
	}
	p2, err := ListenPrimary(addr, PrimaryConfig{Log: src.log, State: src.state, Tel: ptel, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart primary: %v", err)
	}
	defer p2.Close()

	waitFor(t, "catch-up convergence", func() bool {
		return sameState(src.copyState(), app.copyState())
	})
	if got := ptel.Snapshots.Load(); got != 1 {
		t.Fatalf("snapshots served = %d, want 1 (catch-up inside window must stream)", got)
	}
	if ftel.Reconnects.Load() == 0 {
		t.Fatal("expected at least one reconnect")
	}
}

// TestReconnectBeyondWindow does the same but with a tiny window the
// disconnected-time commits overrun, forcing a full state transfer.
func TestReconnectBeyondWindow(t *testing.T) {
	src := newSource(4)
	ptel := telemetry.NewReplStats()
	p := startPrimary(t, src, ptel)
	addr := p.Addr()
	defer src.log.Close()

	app := newFakeApplier()
	f := startFollower(t, addr, app, telemetry.NewReplStats())
	defer f.Stop()

	src.apply(Op{Key: 1, Val: 1})
	waitFor(t, "initial convergence", func() bool {
		return sameState(src.copyState(), app.copyState())
	})

	p.Close()
	// 20 groups through a window of 4: the follower's position falls
	// behind First(), so reconnect must be answered with a snapshot.
	for i := uint64(0); i < 20; i++ {
		src.apply(Op{Key: i, Val: i + 1000})
	}
	p2, err := ListenPrimary(addr, PrimaryConfig{Log: src.log, State: src.state, Tel: ptel, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart primary: %v", err)
	}
	defer p2.Close()

	waitFor(t, "post-snapshot convergence", func() bool {
		return sameState(src.copyState(), app.copyState())
	})
	if got := ptel.Snapshots.Load(); got != 2 {
		t.Fatalf("snapshots served = %d, want 2 (initial + beyond-window catch-up)", got)
	}
}

// TestGenerationMismatch bumps the log generation mid-stream — the
// cache server does this after a primary shard CrashReattach — and
// checks the connected follower is re-seeded with a snapshot in place.
func TestGenerationMismatch(t *testing.T) {
	src := newSource(1024)
	ptel := telemetry.NewReplStats()
	ftel := telemetry.NewReplStats()
	p := startPrimary(t, src, ptel)
	defer p.Close()
	defer src.log.Close()

	app := newFakeApplier()
	f := startFollower(t, p.Addr(), app, ftel)
	defer f.Stop()

	src.apply(Op{Key: 7, Val: 70})
	waitFor(t, "initial convergence", func() bool {
		return sameState(src.copyState(), app.copyState())
	})
	oldGen, _ := f.Position()

	// Simulated primary crash: shed a buffered group (it never reached
	// NVM), rebuild, bump. The follower must converge to the post-crash
	// state, not the shed one.
	src.mu.Lock()
	src.m[8] = 80
	src.mu.Unlock()
	src.log.Bump()
	src.apply(Op{Key: 9, Val: 90})

	waitFor(t, "post-bump convergence", func() bool {
		return sameState(src.copyState(), app.copyState())
	})
	waitFor(t, "new generation adopted", func() bool {
		gen, _ := f.Position()
		return gen == src.log.Gen() && gen != oldGen
	})
	if got := ptel.Snapshots.Load(); got != 2 {
		t.Fatalf("snapshots served = %d, want 2 (initial + post-bump)", got)
	}
	if ftel.SnapshotsLoaded.Load() != 2 {
		t.Fatalf("snapshots loaded = %d, want 2", ftel.SnapshotsLoaded.Load())
	}
}

// TestSnapshotInterrupted fails the first snapshot install midway (as
// if the follower crashed during transfer): the position must stay
// invalid so the retry is answered with a fresh, complete snapshot.
func TestSnapshotInterrupted(t *testing.T) {
	src := newSource(1024)
	ptel := telemetry.NewReplStats()
	ftel := telemetry.NewReplStats()
	p := startPrimary(t, src, ptel)
	defer p.Close()
	defer src.log.Close()

	for i := uint64(0); i < 8; i++ {
		src.apply(Op{Key: i, Val: i})
	}

	app := newFakeApplier()
	app.failApply.Store(1)
	f := startFollower(t, p.Addr(), app, ftel)
	defer f.Stop()

	waitFor(t, "convergence after interrupted snapshot", func() bool {
		return sameState(src.copyState(), app.copyState())
	})
	gen, _ := f.Position()
	if gen == 0 {
		t.Fatal("follower position still invalid after successful retry")
	}
	if ftel.Reconnects.Load() == 0 {
		t.Fatal("expected a reconnect after the injected snapshot failure")
	}
	if got := ptel.Snapshots.Load(); got < 2 {
		t.Fatalf("snapshots served = %d, want >= 2 (failed attempt + retry)", got)
	}
	if got := ftel.SnapshotsLoaded.Load(); got != 1 {
		t.Fatalf("snapshots loaded = %d, want 1 (only the complete transfer commits)", got)
	}
}

// TestLogWindow exercises the ring bookkeeping directly.
func TestLogWindow(t *testing.T) {
	l := NewLog(4)
	defer l.Close()
	gen := l.Gen()
	for i := uint64(1); i <= 10; i++ {
		if seq := l.Append([]Op{{Key: i}}, i, nil); seq != i {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	if first := l.First(); first != 7 {
		t.Fatalf("First() = %d, want 7 (window of 4 ending at 10)", first)
	}
	if _, ok := l.Get(gen, 6); ok {
		t.Fatal("seq 6 should have been evicted")
	}
	for i := uint64(7); i <= 10; i++ {
		g, ok := l.Get(gen, i)
		if !ok || g.Seq != i || g.Ops[0].Key != i {
			t.Fatalf("Get(%d) = %+v ok=%v", i, g, ok)
		}
	}
	// A reader behind the window is told to snapshot; one inside it
	// advances; one on a foreign generation is told to snapshot.
	if _, st := l.Next(gen, 3, nil); st != NextSnapshot {
		t.Fatalf("Next behind window = %v, want NextSnapshot", st)
	}
	if g, st := l.Next(gen, 7, nil); st != NextOK || g.Seq != 8 {
		t.Fatalf("Next(7) = %+v %v, want seq 8", g, st)
	}
	if _, st := l.Next(gen+999, 10, nil); st != NextSnapshot {
		t.Fatalf("Next on foreign gen = %v, want NextSnapshot", st)
	}

	l.Bump()
	if l.Gen() != gen+1 {
		t.Fatalf("Bump: gen = %d, want %d", l.Gen(), gen+1)
	}
	if l.First() != 0 {
		t.Fatalf("Bump: First() = %d, want 0 (empty window)", l.First())
	}
	if seq := l.Append([]Op{{Key: 1}}, 0, nil); seq != 1 {
		t.Fatalf("post-bump append assigned seq %d, want 1", seq)
	}
}

// TestLogNextBlocksAndCloseUnblocks checks the blocking handoff.
func TestLogNextBlocksAndCloseUnblocks(t *testing.T) {
	l := NewLog(8)
	gen := l.Gen()
	got := make(chan Group, 1)
	go func() {
		g, st := l.Next(gen, 0, nil)
		if st == NextOK {
			got <- g
		}
	}()
	waitFor(t, "reader parked in Next", func() bool { return l.waiting() == 1 })
	l.Append([]Op{{Key: 42, Val: 1}}, 0, nil)
	select {
	case g := <-got:
		if g.Seq != 1 || g.Ops[0].Key != 42 {
			t.Fatalf("blocked Next returned %+v", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not wake on Append")
	}

	closed := make(chan NextStatus, 1)
	go func() {
		_, st := l.Next(gen, 1, nil)
		closed <- st
	}()
	waitFor(t, "reader parked in Next", func() bool { return l.waiting() == 1 })
	l.Close()
	select {
	case st := <-closed:
		if st != NextClosed {
			t.Fatalf("Next after Close = %v, want NextClosed", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not wake on Close")
	}
}

// rawFrame builds one frame by hand: length prefix, type byte, words.
func rawFrame(t byte, words ...uint64) []byte {
	b := []byte{0, 0, 0, 0, t}
	for _, v := range words {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// TestWireRoundTrip round-trips every frame type through the one writer
// and the one reader — a state transfer large enough to chunk included
// — and checks the reader refuses what it must.
func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	g := Group{Seq: 99, Epoch: 41, Ops: []Op{{Key: 1, Val: 2}, {Del: true, List: true, Key: 3}},
		Marks: []SessRec{{Sess: 7, Seq: 8, Payload: 9, Key: 1}}}
	// More records than one state frame holds: the ops fill the first
	// frame, the rest of them and the marks the second; the floor rides
	// the first frame only, and an empty State call sends nothing.
	ops := make([]Op, snapshotChunkPairs+10)
	for i := range ops {
		ops[i] = Op{List: i%2 == 1, Key: uint64(i), Val: uint64(i) * 3}
	}
	marks := []SessRec{{Sess: 1, Seq: 2, Payload: 3, Key: 4}, {Sess: 5, Seq: 6, Payload: 7, Key: 8}}
	for i, err := range []error{w.Hello(5, 6), w.Begin(1, 2), w.State(ops, marks, 77),
		w.State(nil, nil, 0), w.End(), w.Group(g), w.Ack(77, 1234)} {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	rd := NewReader(&buf)
	next := func(want byte) Msg {
		t.Helper()
		m, err := rd.Next()
		if err != nil || m.Frame != want {
			t.Fatalf("Next = frame %d err=%v, want frame %d", m.Frame, err, want)
		}
		return m
	}
	if m := next(FrameHello); m.Gen != 5 || m.Seq != 6 {
		t.Fatalf("hello round-trip: %+v", m)
	}
	if m := next(FrameSnapshotBegin); m.Gen != 1 || m.Seq != 2 {
		t.Fatalf("begin round-trip: %+v", m)
	}
	s1, s2 := next(FrameState), next(FrameState)
	if s1.Floor != 77 || s2.Floor != 0 || len(s1.Ops) != snapshotChunkPairs || len(s1.Marks) != 0 ||
		!reflect.DeepEqual(append(s1.Ops, s2.Ops...), ops) || !reflect.DeepEqual(s2.Marks, marks) {
		t.Fatalf("state round-trip: floors %d/%d, %d+%d ops, %d+%d marks",
			s1.Floor, s2.Floor, len(s1.Ops), len(s2.Ops), len(s1.Marks), len(s2.Marks))
	}
	next(FrameSnapshotEnd)
	if m := next(FrameGroup); m.Seq != 99 || m.Epoch != 41 ||
		!reflect.DeepEqual(m.Ops, g.Ops) || !reflect.DeepEqual(m.Marks, g.Marks) {
		t.Fatalf("group round-trip: %+v", m)
	}
	if m := next(FrameAck); m.Gen != 77 || m.Seq != 1234 {
		t.Fatalf("ack round-trip: %+v", m)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("Next at a clean end = %v, want io.EOF", err)
	}

	var oversized [4]byte
	binary.LittleEndian.PutUint32(oversized[:], maxFrame+1)
	for name, b := range map[string][]byte{
		"hello without the magic":      rawFrame(FrameHello, 5, 6),
		"state counts beyond the body": rawFrame(FrameState, 0, 1, 0),
		"group counts short of body":   rawFrame(FrameGroup, 1, 0, 0, 0, 42),
		"unknown frame type":           rawFrame(99),
		"empty frame":                  {0, 0, 0, 0},
		"oversized frame":              oversized[:],
		"frame cut short":              rawFrame(FrameAck, 1, 2)[:10],
	} {
		if _, err := NewReader(bytes.NewReader(b)).Next(); err == nil || err == io.EOF {
			t.Errorf("%s: Next err = %v, want a decode error", name, err)
		}
	}
}

// FuzzReadMsg feeds arbitrary bytes to the one reader — the bytes after
// `acceptslot` come from any client on the cache server's client port —
// and checks it never panics and never allocates beyond one
// maxFrame-sized payload plus what the input's own bytes decode into.
func FuzzReadMsg(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	w.Hello(1, 2)
	w.Begin(3, 4)
	w.State([]Op{{Key: 5, Val: 6}}, []SessRec{{Sess: 7, Seq: 8, Payload: 9, Key: 5}}, 10)
	w.Group(Group{Seq: 11, Epoch: 12, Ops: []Op{{Del: true, List: true, Key: 13}}})
	w.End()
	w.Ack(14, 15)
	f.Add(seed.Bytes())
	f.Add(rawFrame(FrameState, 0, 1<<40, 1<<40))
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, FrameGroup}) // just under maxFrame, no body
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := NewReader(bytes.NewReader(data))
		for {
			if _, err := rd.Next(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxFrame+4*len(data)+1<<20); got > limit {
			t.Fatalf("reading %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
	})
}

// TestAckTrackingAndEpochPropagation pins the barrier substrate: the
// primary's per-follower acked positions (AckedCount), the OnAck wakeup
// hook, and the epoch stamp riding group frames into the follower's
// LastEpoch.
func TestAckTrackingAndEpochPropagation(t *testing.T) {
	src := newSource(1024)
	var acks atomic.Int64
	p, err := ListenPrimary("127.0.0.1:0", PrimaryConfig{
		Log:   src.log,
		State: src.state,
		OnAck: func() { acks.Add(1) },
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatalf("ListenPrimary: %v", err)
	}
	defer p.Close()
	defer src.log.Close()

	app := newFakeApplier()
	f := startFollower(t, p.Addr(), app, nil)
	defer f.Stop()

	// Wait out the initial snapshot handshake: its ack (position seq 0)
	// proves the follower is live, and only groups appended after it
	// travel as FrameGroup — the path that carries the epoch stamp.
	gen := src.log.Gen()
	waitFor(t, "initial snapshot ack", func() bool {
		return p.AckedCount(gen, 0) == 1
	})

	// Stamp an epoch on the group the source appends.
	src.mu.Lock()
	src.m[1] = 10
	src.mu.Unlock()
	seq := src.log.Append([]Op{{Key: 1, Val: 10}}, 42, nil)

	waitFor(t, "follower ack of seq", func() bool {
		return p.AckedCount(gen, seq) == 1
	})
	if got := f.LastEpoch(); got != 42 {
		t.Fatalf("follower LastEpoch = %d, want 42", got)
	}
	if acks.Load() == 0 {
		t.Fatal("OnAck hook never fired")
	}
	// A sequence beyond anything appended counts no followers; a foreign
	// generation counts none either.
	if got := p.AckedCount(gen, seq+1); got != 0 {
		t.Fatalf("AckedCount beyond frontier = %d, want 0", got)
	}
	if got := p.AckedCount(gen+1, seq); got != 0 {
		t.Fatalf("AckedCount foreign gen = %d, want 0", got)
	}

	// Stopping the follower must remove its entry: a departed replica
	// stops counting toward barriers.
	f.Stop()
	waitFor(t, "acked entry removal", func() bool {
		return p.AckedCount(gen, seq) == 0
	})
}
