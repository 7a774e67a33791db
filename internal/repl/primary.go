package repl

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsp/internal/telemetry"
)

// PrimaryConfig configures a replication listener.
type PrimaryConfig struct {
	// Log is the bounded replication log the serving process appends
	// committed groups to. Required.
	Log *Log
	// State streams a full copy of the current state through emit, in
	// as many calls as it likes: absolute sets, the session dedup
	// records witnessed by their keys (so a promoted follower inherits
	// the exactly-once window), and the evicted-seq floor. It returns
	// emit's error if any. The primary captures the log position
	// immediately before calling it; because replicated ops are
	// absolute, the copy may safely include effects committed after
	// that position — replaying them is idempotent. Required.
	State func(emit func(ops []Op, marks []SessRec, floor uint64) error) error
	// Tel receives the replication counters and lag histogram. Optional
	// (nil-safe).
	Tel *telemetry.ReplStats
	// OnAck, when set, is invoked after every follower acknowledgement
	// is recorded — the hook `wait repl` barriers hang off: the server
	// parks waiters on a broadcast channel and OnAck re-arms the
	// AckedCount check. Called from ack-reader goroutines; must be cheap
	// and must not call back into the Primary's ack surface. Optional.
	OnAck func()
	// Logf, when set, receives human-readable connection events.
	Logf func(format string, args ...any)
}

// ackPos is one follower's cumulative acknowledged position.
type ackPos struct {
	gen, seq uint64
}

// Primary accepts follower connections and streams the replication log
// to each, serving a full snapshot first whenever a follower's position
// is unusable (wrong generation, behind the retained window, or from a
// previous primary life).
type Primary struct {
	cfg       PrimaryConfig
	ln        net.Listener
	wg        sync.WaitGroup
	closing   atomic.Bool
	followers atomic.Int64

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// acked holds each connected follower's last acknowledged position,
	// keyed by connection; entries die with the connection, so a
	// follower that vanishes stops counting toward barriers.
	ackMu sync.Mutex
	acked map[net.Conn]ackPos
}

// ListenPrimary starts accepting followers on addr (":0" picks a port).
func ListenPrimary(addr string, cfg PrimaryConfig) (*Primary, error) {
	if cfg.Log == nil || cfg.State == nil {
		return nil, fmt.Errorf("repl: PrimaryConfig needs Log and State")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.Tel == nil {
		cfg.Tel = telemetry.NewReplStats()
	}
	p := &Primary{
		cfg:   cfg,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
		acked: make(map[net.Conn]ackPos),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the listener's address, for followers to dial.
func (p *Primary) Addr() string { return p.ln.Addr().String() }

// Followers returns the number of currently connected followers.
func (p *Primary) Followers() int { return int(p.followers.Load()) }

// AckedCount returns how many currently connected followers have
// acknowledged sequence seq or later in generation gen — the predicate
// a `wait repl` barrier polls (re-armed by OnAck) until it reaches the
// required replica count.
func (p *Primary) AckedCount(gen, seq uint64) int {
	p.ackMu.Lock()
	defer p.ackMu.Unlock()
	n := 0
	for _, a := range p.acked {
		if a.gen == gen && a.seq >= seq {
			n++
		}
	}
	return n
}

// Close stops accepting, severs follower connections, and waits for the
// per-connection goroutines to drain. It does not close the Log; the
// owner does that (closing the Log also unblocks streamers).
func (p *Primary) Close() {
	if !p.closing.CompareAndSwap(false, true) {
		return
	}
	p.ln.Close()
	p.connMu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.connMu.Unlock()
	// Streamers parked in Log.Next re-check the closing flag on wake.
	p.cfg.Log.Wake()
	p.wg.Wait()
}

func (p *Primary) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.connMu.Lock()
		if p.closing.Load() {
			p.connMu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.connMu.Unlock()
		p.wg.Add(1)
		go p.serveFollower(conn)
	}
}

// serveFollower drives one follower: handshake, then a loop of
// snapshot-if-needed and group streaming. A second goroutine drains the
// follower's acks and turns them into lag samples.
func (p *Primary) serveFollower(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		conn.Close()
		p.connMu.Lock()
		delete(p.conns, conn)
		p.connMu.Unlock()
	}()

	rd := NewReader(conn)
	hello, err := rd.Next()
	if err == nil && hello.Frame != FrameHello {
		err = fmt.Errorf("frame type %d", hello.Frame)
	}
	if err != nil {
		p.logf("repl: follower %s: bad handshake: %v", conn.RemoteAddr(), err)
		return
	}
	gen, seq := hello.Gen, hello.Seq
	p.followers.Add(1)
	defer p.followers.Add(-1)
	p.logf("repl: follower %s connected at gen %d seq %d", conn.RemoteAddr(), gen, seq)

	// The streamer below is the connection's only writer; the ack
	// goroutine only reads, so no write lock is needed between them.
	// Close the connection before waiting so the ack reader's blocked
	// read is severed when the streamer exits first (e.g. log closed).
	ackDone := make(chan struct{})
	go p.readAcks(conn, rd, ackDone)
	defer func() {
		conn.Close()
		<-ackDone
	}()

	w := NewWriter(conn)
	for {
		g, st := p.cfg.Log.Next(gen, seq, p.closing.Load)
		switch st {
		case NextClosed:
			return
		case NextSnapshot:
			ngen, nseq, err := p.sendSnapshot(w)
			if err != nil {
				p.logf("repl: follower %s: snapshot: %v", conn.RemoteAddr(), err)
				return
			}
			gen, seq = ngen, nseq
		case NextOK:
			if err := w.Group(g); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
			p.cfg.Tel.GroupsStreamed.Inc()
			p.cfg.Tel.OpsStreamed.Add(uint64(len(g.Ops)))
			seq = g.Seq
		}
	}
}

// sendSnapshot streams a full state transfer and returns the position
// the follower should resume streaming from. Session records ride
// inside the transfer (before End) so the follower commits dedup
// records and data together: a transfer severed midway leaves it
// positionless either way.
func (p *Primary) sendSnapshot(w *Writer) (gen, seq uint64, err error) {
	gen, seq = p.cfg.Log.Position()
	if err := w.Begin(gen, seq); err != nil {
		return 0, 0, err
	}
	var keys uint64
	err = p.cfg.State(func(ops []Op, marks []SessRec, floor uint64) error {
		keys += uint64(len(ops))
		return w.State(ops, marks, floor)
	})
	if err == nil {
		err = w.End()
	}
	if err != nil {
		return 0, 0, err
	}
	p.cfg.Tel.Snapshots.Inc()
	p.cfg.Tel.SnapshotKeys.Add(keys)
	return gen, seq, nil
}

// readAcks drains the follower's cumulative acks, recording each as the
// connection's acknowledged position (the substrate of AckedCount),
// converting it into a lag sample when the acked group is still
// retained, and firing the OnAck hook so parked barriers re-check.
func (p *Primary) readAcks(conn net.Conn, rd *Reader, done chan<- struct{}) {
	defer close(done)
	defer func() {
		// The ack stream died, so this follower can never ack again:
		// drop its entry immediately (the streamer may stay parked in
		// Log.Next long after the connection is gone) and wake waiters —
		// a departed follower only lowers AckedCount, but barriers that
		// can no longer be met should time out against live state, not a
		// ghost.
		p.ackMu.Lock()
		delete(p.acked, conn)
		p.ackMu.Unlock()
		if p.cfg.OnAck != nil {
			p.cfg.OnAck()
		}
	}()
	for {
		m, err := rd.Next()
		if err != nil || m.Frame != FrameAck {
			return
		}
		p.ackMu.Lock()
		p.acked[conn] = ackPos{gen: m.Gen, seq: m.Seq}
		p.ackMu.Unlock()
		p.cfg.Tel.AcksReceived.Inc()
		if at, ok := p.cfg.Log.AppendTime(m.Gen, m.Seq); ok {
			p.cfg.Tel.Lag.ObserveValue(uint64(time.Since(at).Nanoseconds()))
		}
		if p.cfg.OnAck != nil {
			p.cfg.OnAck()
		}
	}
}
