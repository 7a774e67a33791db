package cluster

import (
	"bufio"
	"net"
	"sync"
	"time"

	"tsp/internal/proto"
	"tsp/internal/telemetry"
)

// fwd is one forwarded request: a private copy of the request (its KV
// in the forward's own slice), so a redirect can re-send it and its
// reply can be framed. A non-zero sess makes appendWire emit a
// session-rebind command ahead of the request; the link reads and drops
// the rebind's reply to keep its FIFO aligned.
type fwd struct {
	req  proto.Request
	sess uint64 // session to rebind before this request (0 = none)
	node string // a fan-out leg's target node

	ln  *link       // the link that owes rep; nil once rep is settled
	rep proto.Reply // the reply, read straight off the link
	at  int         // merge cursor into rep.Items
}

// load copies req into the slot for one flight, with kv (a leg's share
// of req.KV) as its keys.
func (f *fwd) load(req *proto.Request, kv []uint64, sess uint64) {
	keys := f.req.KV[:0]
	f.req = *req
	f.req.KV = append(keys, kv...)
	f.sess, f.node, f.at = sess, "", 0
}

// appendWire appends the forward's native wire form (session rebind
// prefix first when set) to dst.
func (f *fwd) appendWire(dst []byte) []byte {
	if f.sess != 0 {
		rebind := proto.Request{Cmd: proto.CmdSession, KV: []uint64{f.sess}}
		dst = proto.Native{}.AppendRequest(dst, &rebind)
	}
	return proto.Native{}.AppendRequest(dst, &f.req)
}

// linkFlushBytes bounds the request bytes one link stages before it
// writes them and reads their replies back. A node that cannot write
// its replies stops reading requests, so an unbounded write could wait
// forever on a node waiting for us.
const linkFlushBytes = 64 << 10

// nodeConns bounds the connections a proxy holds to one node, however
// many frontends it serves. A node serves at most its -conns
// connections and leaves the rest queued unanswered, so the bound must
// not grow with the frontend count.
const nodeConns = 4

// backend is the proxy's pool of connections to one node, shared by
// every frontend connection. A frontend borrows a connection only
// while it owes the node replies, so the pool bounds how many batches
// are in flight to the node, not how many frontends talk to it.
type backend struct {
	p     *Proxy
	addr  string
	node  *telemetry.NodeStats
	slots chan struct{} // one token per connection lent out
	mu    sync.Mutex
	idle  []*bconn // live connections not lent out, latest returned last
}

// bconn is one pipelined connection to a node.
type bconn struct {
	conn net.Conn
	r    *bufio.Reader
}

// borrow lends out a connection to the node, an idle one if there is
// one and a new dial otherwise, waiting while nodeConns are lent out.
func (b *backend) borrow() (*bconn, error) {
	b.slots <- struct{}{}
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		c := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		return c, nil
	}
	b.mu.Unlock()
	conn, err := net.DialTimeout("tcp", b.addr, 2*time.Second)
	if err == nil && !b.p.track(conn) {
		conn.Close()
		err = net.ErrClosed
	}
	if err != nil {
		<-b.slots
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	b.p.tel.BackendDials.Inc()
	return &bconn{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// giveBack returns a borrowed connection to the pool. A nil c means it
// failed; the idle ones are closed with it, since a node that cut one
// connection (a restart) has cut them all.
func (b *backend) giveBack(c *bconn) {
	b.mu.Lock()
	if c != nil {
		b.idle = append(b.idle, c)
	} else {
		for _, i := range b.idle {
			b.p.untrack(i.conn)
		}
		b.idle = b.idle[:0]
	}
	b.mu.Unlock()
	<-b.slots
}

// link is one frontend connection's pipeline to one node. Only that
// frontend's goroutine touches it: a batch's forwards are staged into
// buf, written in one call on a connection borrowed from the node's
// pool, and their replies read back in FIFO order by whichever settle
// first needs one, each straight into its own forward. The connection
// goes back to the pool once the link owes nothing. No goroutine or
// channel stands between a reply and the request it answers.
type link struct {
	b    *backend
	c    *bconn // borrowed while the link owes replies, else nil
	buf  []byte // staged request bytes
	q    []*fwd // q[head:sent] await their replies; q[sent:] are staged
	head int
	sent int
}

// stage queues f for the link's next write.
func (l *link) stage(f *fwd) {
	f.ln = l
	l.q = append(l.q, f)
	l.buf = f.appendWire(l.buf)
	if len(l.buf) >= linkFlushBytes {
		l.flush()
		for l.head < len(l.q) {
			l.readOne()
		}
	}
}

// flush writes the staged requests, borrowing a connection first if the
// link holds none, and reports whether it wrote any. A failure answers
// every forward the link owes with an error reply.
func (l *link) flush() bool {
	if l.sent == len(l.q) {
		return false
	}
	var err error
	if l.c == nil {
		l.c, err = l.b.borrow()
	}
	if err == nil {
		_, err = l.c.conn.Write(l.buf)
	}
	l.buf = l.buf[:0]
	if err != nil {
		l.fail(err)
		return false
	}
	l.b.node.Batches.Inc()
	l.b.node.Sent.Add(uint64(len(l.q) - l.sent))
	l.sent = len(l.q)
	return true
}

// readOne reads the reply the link owes its oldest forward into that
// forward, and reports whether the link now owes nothing; then its
// connection is back in the pool.
func (l *link) readOne() bool {
	f := l.q[l.head]
	var err error
	if f.sess != 0 {
		// The session-rebind prefix's OK SESSION reply, dropped.
		err = proto.ReadNativeReply(l.c.r, proto.CmdSession, 1, &f.rep)
	}
	if err == nil {
		err = proto.ReadNativeReply(l.c.r, f.req.Cmd, len(f.req.KV), &f.rep)
	}
	if err != nil {
		l.fail(err)
		return true
	}
	f.ln = nil
	if l.head++; l.head < len(l.q) {
		return false
	}
	l.q, l.head, l.sent = l.q[:0], 0, 0
	l.b.giveBack(l.c)
	l.c = nil
	return true
}

// fail answers every forward the link owes with err, in the error reply
// the frontend protocol can carry, and closes the link's connection;
// the next flush borrows another.
func (l *link) fail(err error) {
	for _, f := range l.q[l.head:] {
		f.rep = proto.Reply{Kind: proto.KErrServer, Msg: "cluster node " + l.b.addr + ": " + err.Error()}
		f.ln = nil
	}
	l.q, l.head, l.sent, l.buf = l.q[:0], 0, 0, l.buf[:0]
	if l.c != nil {
		l.b.p.untrack(l.c.conn)
		l.c = nil
		l.b.giveBack(nil)
	}
	l.b.node.Errors.Inc()
	l.b.p.tel.BackendErrors.Inc()
}
