package cluster

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"tsp/internal/proto"
	"tsp/internal/telemetry"
)

// Config configures a Proxy.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// Nodes are the seed backend addresses the ring is built over.
	Nodes []string
	// Tel receives routing counters (nil = a fresh set the proxy's
	// stats renders).
	Tel *telemetry.RouteStats
	// Logf receives serving errors (nil = silent).
	Logf func(format string, args ...any)
}

// Proxy is the cluster routing tier: it terminates frontend
// connections (native or RESP, sniffed per connection), decodes each
// connection's pipelined burst as one batch, routes every request to
// the slot owner over the frontend connection's own pipelined link to
// that node — one backend write per decoded frontend batch per touched
// node, on a connection borrowed from the node's pool for the batch,
// the replies read back by the frontend itself — and merges
// scatter-gather fan-outs back in request order. MOVED redirects from
// nodes update its ring, so it follows live migrations without
// coordination.
type Proxy struct {
	cfg  Config
	ln   net.Listener
	ring *Ring
	tel  *telemetry.RouteStats

	mu       sync.Mutex
	conns    map[net.Conn]struct{} // every open connection, frontend and backend
	backends map[string]*backend   // one connection pool per node address
	closed   bool
	wg       sync.WaitGroup
}

// New builds the ring, starts listening, and begins serving.
func New(cfg Config) (*Proxy, error) {
	ring, err := NewRing(cfg.Nodes, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Tel == nil {
		cfg.Tel = &telemetry.RouteStats{}
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:      cfg,
		ln:       ln,
		ring:     ring,
		tel:      cfg.Tel,
		conns:    make(map[net.Conn]struct{}),
		backends: make(map[string]*backend),
	}
	p.seedFromNodes()
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// seedFromNodes reconciles the ring's deterministic initial assignment
// with what the nodes actually own: each seed node's `cluster` reply
// lists its owned slots ("SLOTS <spec> self"), and those claims
// overwrite the hash assignment. Nodes that are down or not cluster
// nodes are skipped — the hash layout stands in for them and MOVED
// redirects correct it later, exactly as they do for post-startup
// changes.
func (p *Proxy) seedFromNodes() {
	for _, addr := range p.ring.Nodes() {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			p.logf("cluster seed: %s: %v", addr, err)
			continue
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Write([]byte("cluster\r\n")); err != nil {
			conn.Close()
			continue
		}
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				break
			}
			line = strings.TrimRight(line, "\r\n")
			if line == "END" {
				break
			}
			fields := strings.Fields(line)
			if len(fields) == 3 && fields[0] == "SLOTS" && fields[2] == "self" {
				slots, err := ParseSlots(fields[1])
				if err != nil {
					continue
				}
				for s := range slots {
					p.ring.SetOwner(s, addr)
				}
			}
		}
		conn.Close()
	}
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Ring returns the proxy's routing table.
func (p *Proxy) Ring() *Ring { return p.ring }

// Close stops the listener and closes every connection, frontend and
// backend: a frontend waiting on a silent node wakes to a failed read.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	err := p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// track registers a connection for Close to close; it reports false,
// registering nothing, once the proxy is closed.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

// untrack closes a tracked connection and forgets it.
func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

// backend returns addr's connection pool, creating it on first use.
func (p *Proxy) backend(addr string) *backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.backends[addr]
	if b == nil {
		b = &backend{p: p, addr: addr, node: p.tel.Node(addr), slots: make(chan struct{}, nodeConns)}
		p.backends[addr] = b
	}
	return b
}

// logf reports a serving error.
func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// acceptLoop serves frontend connections until Close.
func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.track(conn) {
			conn.Close()
			return
		}
		p.wg.Add(1)
		go p.handle(conn)
	}
}

// entry routing classes.
const (
	eLocal = iota
	eForward
	eFanout
)

// entry is one frontend request's routing state for the current batch.
type entry struct {
	kind   int
	rep    proto.Reply // local reply, or the merge target
	f      *fwd        // eForward
	legs   []*fwd      // eFanout
	sp     *proto.Spec // eFanout: the command's row (merge kind, reply kind)
	limit  int         // MergeSorted result cap (-1 = none)
	keyLeg []int       // MergeKeys: leg index per original key
	moved  int         // migrate: slot to re-own on success (-1 = none)
	start  time.Time
}

// feConn is one frontend connection's reusable serving state. The
// fan-outs' legs and key maps are carved out of per-batch arenas: an
// entry's slices stay valid when a later append moves the arena, since
// nothing rewrites what an earlier entry holds until the next batch.
type feConn struct {
	p        *Proxy
	sess     uint64
	entries  []entry
	fwds     []*fwd
	nfwd     int
	links    []*link // one per node this connection has talked to
	legs     []*fwd
	keyLeg   []int
	items    []proto.Item // the merged reply's items; staged before reuse
	lastRead time.Time    // when the batch's last owed reply was read
}

// takeFwd returns a reusable fwd slot for this batch.
func (cs *feConn) takeFwd() *fwd {
	if cs.nfwd == len(cs.fwds) {
		cs.fwds = append(cs.fwds, &fwd{})
	}
	f := cs.fwds[cs.nfwd]
	cs.nfwd++
	return f
}

// link returns the connection's link to addr, creating it on first use.
// The links stay sorted by address, the order serveBatch borrows their
// connections in. Nodes are few, so a scan beats a map.
func (cs *feConn) link(addr string) *link {
	i := 0
	for i < len(cs.links) && cs.links[i].b.addr < addr {
		i++
	}
	if i < len(cs.links) && cs.links[i].b.addr == addr {
		return cs.links[i]
	}
	l := &link{b: cs.p.backend(addr)}
	cs.links = slices.Insert(cs.links, i, l)
	return l
}

// await reads f's link until f's reply has arrived; the replies ahead
// of it on that link land in their own forwards on the way.
func (cs *feConn) await(f *fwd) {
	for f.ln != nil {
		if f.ln.readOne() {
			cs.lastRead = time.Now()
		}
	}
}

// drain reads every reply the connection's links owe, giving their
// connections back. A frontend waits for a pool only while holding
// connections to nodes ordered before it (serveBatch borrows in address
// order), so no two frontends wait on each other; a redirect, which
// borrows out of that order, drains first and waits holding nothing.
func (cs *feConn) drain() {
	for _, l := range cs.links {
		for l.c != nil {
			l.readOne()
		}
	}
}

// handle runs one frontend connection: sniff the protocol like the
// cache server does (RESP leads with '*'), then decode → route → merge
// → stage, one write per batch.
func (p *Proxy) handle(conn net.Conn) {
	cs := &feConn{p: p}
	defer func() {
		p.untrack(conn)
		p.wg.Done()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p.tel.Frontends.Inc()
	dec := proto.NewDecoder(conn, proto.Native{}, proto.DefaultMaxRequest)
	ad, err := dec.Sniff()
	if err != nil {
		return
	}
	enc := proto.NewEncoder(conn, ad, 0)
	defer enc.Flush()

	for {
		batch, err := dec.Next()
		if len(batch) > 0 {
			quit := p.serveBatch(cs, enc, batch)
			if ferr := enc.Flush(); ferr != nil || quit {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// serveBatch routes one decoded batch: classify and send every request
// first (one backend write per touched node), then settle replies in
// request order.
func (p *Proxy) serveBatch(cs *feConn, enc *proto.Encoder, batch []proto.Request) (quit bool) {
	p.tel.Batches.Inc()
	p.tel.Requests.Add(uint64(len(batch)))
	cs.nfwd, cs.legs, cs.keyLeg = 0, cs.legs[:0], cs.keyLeg[:0]
	entries := cs.entries[:0]
	for i := range batch {
		entries = append(entries, p.classify(cs, &batch[i]))
		if batch[i].Cmd.Spec().Plan == proto.PlanClose {
			break
		}
	}
	cs.entries = entries

	// One write per touched node, in address order.
	wrote := false
	for _, l := range cs.links {
		wrote = l.flush() || wrote
	}
	written := time.Now()

	// Settle in request order (a quit, if any, is the last entry).
	for i := range entries {
		e := &entries[i]
		switch e.kind {
		case eLocal:
			p.tel.LocalReplies.Inc()
			enc.Stage(&e.rep)
			quit = e.rep.Kind == proto.KQuit
		case eForward:
			p.settle(cs, e.f)
			rep := e.f.rep
			if e.moved >= 0 && rep.Kind == proto.KRaw && strings.HasPrefix(rep.Msg, "OK MIGRATED") {
				// A migrate acknowledged through the proxy flips our ring
				// along with the cluster's.
				p.ring.SetOwner(e.moved, e.f.req.Addr)
				p.tel.RingRefreshes.Inc()
			}
			p.tel.ForwardLatency.Observe(time.Since(e.start))
			enc.Stage(&rep)
		case eFanout:
			rep := p.mergeFanout(cs, e)
			p.tel.FanoutLatency.Observe(time.Since(e.start))
			enc.Stage(&rep)
		}
	}
	if wrote && cs.lastRead.After(written) {
		p.tel.BackendWait.Observe(cs.lastRead.Sub(written))
	}
	return quit
}

// localReply shapes an eLocal entry.
func localReply(rep proto.Reply) entry {
	return entry{kind: eLocal, rep: rep, moved: -1}
}

// notRoutableMsg answers admin verbs that only make sense on a node.
const notRoutableMsg = "not routable through the proxy (connect to a node directly)"

// classify routes one request by its command's routing class: answer
// locally, forward whole to the slot owner, or split into fan-out legs.
// Forwarded requests are staged on the connection's links; settle
// picks the replies up afterwards.
func (p *Proxy) classify(cs *feConn, req *proto.Request) entry {
	sp := req.Cmd.Spec()
	switch sp.Route {
	case proto.RouteKeyed:
		return p.forwardKeyed(cs, req)

	case proto.RouteSplit:
		// One key (or pair) has one owner, and a seq-tagged command has
		// one witness: both forward whole.
		if req.HasSeq || len(req.KV) == sp.Stride {
			return p.forwardKeyed(cs, req)
		}
		return p.fanKeys(cs, req, sp)

	case proto.RouteBroadcast:
		limit := -1
		if sp.Merge == proto.MergeSorted && len(req.KV) == 3 {
			limit = int(req.KV[2])
		}
		return p.broadcast(cs, req, sp, limit)

	case proto.RouteSlot:
		slot := int(req.KV[0])
		if slot < 0 || slot >= NumSlots {
			return localReply(proto.Reply{Kind: proto.KErrClient, Msg: "bad slot"})
		}
		f := cs.takeFwd()
		f.load(req, req.KV, 0)
		p.tel.Forwards.Inc()
		cs.link(p.ring.Owner(slot)).stage(f)
		return entry{kind: eForward, f: f, moved: slot, start: time.Now()}

	case proto.RouteLocal:
		return localReply(p.serveLocal(cs, req))

	default: // RouteRefused
		return localReply(proto.Reply{Kind: proto.KErrClient, Msg: notRoutableMsg})
	}
}

// serveLocal executes a command the proxy answers itself.
func (p *Proxy) serveLocal(cs *feConn, req *proto.Request) proto.Reply {
	switch req.Cmd {
	case proto.CmdSession:
		cs.sess = req.KV[0]
		return proto.Reply{Kind: proto.KRaw, Msg: "OK SESSION " + fmt.Sprint(req.KV[0])}
	case proto.CmdCluster:
		return proto.Reply{Kind: proto.KRaw, Msg: p.ring.Table()}
	case proto.CmdStats:
		return req.Stats.Reply(p.statsSources())
	case proto.CmdInfo:
		return proto.Reply{Kind: proto.KRaw, Msg: p.infoText()}
	case proto.CmdBad:
		return proto.Reply{Kind: req.Bad, Msg: req.BadMsg}
	default: // ping, COMMAND, quit: the reply kind is the whole answer
		return proto.Reply{Kind: req.Cmd.Spec().Reply}
	}
}

// forwardKeyed stages a whole request to the owner of its first key's
// slot. Sessioned requests carry a rebind prefix; a sessioned request
// with no bound session is refused with the server's own error text.
func (p *Proxy) forwardKeyed(cs *feConn, req *proto.Request) entry {
	sess := uint64(0)
	if req.HasSeq {
		if cs.sess == 0 {
			return localReply(proto.Reply{Kind: proto.KErrClient,
				Msg: "seq requires a session (send: session <id> first)"})
		}
		sess = cs.sess
	}
	f := cs.takeFwd()
	f.load(req, req.KV, sess)
	addr, _ := p.ring.OwnerOfKey(req.KV[0])
	p.tel.Forwards.Inc()
	cs.link(addr).stage(f)
	return entry{kind: eForward, f: f, moved: -1, start: time.Now()}
}

// fanKeys splits a multi-key request across slot owners, the row's
// stride at a time: 1 for key lists (mget/delete), 2 for pairs (mset).
// Keys for the same node stay in one leg, in request order.
func (p *Proxy) fanKeys(cs *feConn, req *proto.Request, sp *proto.Spec) entry {
	kv, stride := req.KV, sp.Stride
	e := entry{kind: eFanout, sp: sp, limit: -1, moved: -1, start: time.Now()}
	legs0, keys0 := len(cs.legs), len(cs.keyLeg)
	for i := 0; i < len(kv); i += stride {
		addr, _ := p.ring.OwnerOfKey(kv[i])
		li := legs0
		for li < len(cs.legs) && cs.legs[li].node != addr {
			li++ // legs are few; linear is right
		}
		if li == len(cs.legs) {
			f := cs.takeFwd()
			f.load(req, nil, 0)
			f.node = addr
			cs.legs = append(cs.legs, f)
		}
		f := cs.legs[li]
		f.req.KV = append(f.req.KV, kv[i:i+stride]...)
		cs.keyLeg = append(cs.keyLeg, li-legs0)
	}
	e.legs, e.keyLeg = cs.legs[legs0:len(cs.legs):len(cs.legs)], cs.keyLeg[keys0:len(cs.keyLeg):len(cs.keyLeg)]
	if len(e.legs) == 1 {
		// Single owner: no split needed; forward whole.
		f := e.legs[0]
		p.tel.Forwards.Inc()
		cs.link(f.node).stage(f)
		return entry{kind: eForward, f: f, moved: -1, start: e.start}
	}
	p.tel.Fanouts.Inc()
	p.tel.FanoutLegs.Add(uint64(len(e.legs)))
	for _, f := range e.legs {
		cs.link(f.node).stage(f)
	}
	return e
}

// broadcast stages one copy of req to every node in the ring.
func (p *Proxy) broadcast(cs *feConn, req *proto.Request, sp *proto.Spec, limit int) entry {
	e := entry{kind: eFanout, sp: sp, limit: limit, moved: -1, start: time.Now()}
	legs0 := len(cs.legs)
	for _, addr := range p.ring.Nodes() {
		f := cs.takeFwd()
		f.load(req, req.KV, 0)
		cs.link(addr).stage(f)
		cs.legs = append(cs.legs, f)
	}
	e.legs = cs.legs[legs0:len(cs.legs):len(cs.legs)]
	p.tel.Fanouts.Inc()
	p.tel.FanoutLegs.Add(uint64(len(e.legs)))
	return e
}

// movedRetryMax bounds redirect-following per request: an importing
// owner answers "MOVED <slot> ?" until its stream settles, so the
// proxy waits in 1 ms steps between retries.
const movedRetryMax = 2000

// settle awaits f's reply, following MOVED redirects: a redirect
// naming a node updates the ring and re-sends on that node's link,
// after the batch's other replies are read; "?" means the new owner is
// still importing — wait and retry.
func (p *Proxy) settle(cs *feConn, f *fwd) {
	cs.await(f)
	for tries := 0; f.rep.Kind == proto.KMoved && tries < movedRetryMax; tries++ {
		cs.drain()
		p.tel.Redirects.Inc()
		slot := f.rep.N
		if f.rep.Msg != "?" {
			if p.ring.Owner(slot) != f.rep.Msg {
				p.ring.SetOwner(slot, f.rep.Msg)
				p.tel.RingRefreshes.Inc()
			}
		} else {
			time.Sleep(time.Millisecond)
		}
		owner := p.ring.Owner(slot)
		p.tel.Retries.Inc()
		l := cs.link(owner)
		l.stage(f)
		l.flush()
		cs.await(f)
	}
}

// settleLeg settles one fan-out leg. A redirected multi-key leg is
// re-split per key (ownership may have diverged mid-migration); the
// singles settle recursively and reassemble into the leg's reply
// shape.
func (p *Proxy) settleLeg(cs *feConn, f *fwd) {
	cs.await(f)
	if f.rep.Kind != proto.KMoved {
		return
	}
	p.tel.Redirects.Inc()
	kv, sp := f.req.KV, f.req.Cmd.Spec()
	if len(kv) == sp.Stride {
		// Single-key leg: plain redirect following.
		p.settle(cs, f)
		return
	}
	if sp.Route != proto.RouteSplit {
		f.rep = proto.Reply{Kind: proto.KErrServer, Msg: "unmergeable redirected leg"}
		return
	}
	// Re-split per key and reassemble: items in key order, counts summed.
	cs.drain()
	singles := make([]*fwd, 0, len(kv)/sp.Stride)
	for i := 0; i < len(kv); i += sp.Stride {
		s := cs.takeFwd()
		s.load(&f.req, kv[i:i+sp.Stride], 0)
		addr, _ := p.ring.OwnerOfKey(kv[i])
		l := cs.link(addr)
		l.stage(s)
		l.flush()
		p.settle(cs, s)
		singles = append(singles, s)
	}
	out := proto.Reply{Kind: sp.Reply}
	for _, s := range singles {
		if isErr(s.rep.Kind) {
			f.rep = s.rep
			return
		}
		out.Items = append(out.Items, s.rep.Items...)
		out.N += s.rep.N
	}
	f.rep = out
}

// isErr reports whether k is an error (or still-moved) reply kind.
func isErr(k proto.Kind) bool {
	return k == proto.KErrClient || k == proto.KErrServer || k == proto.KErrProto || k == proto.KMoved
}

// mergeFanout settles every leg and merges them into one reply.
func (p *Proxy) mergeFanout(cs *feConn, e *entry) proto.Reply {
	for _, f := range e.legs {
		p.settleLeg(cs, f)
	}
	for _, f := range e.legs {
		if isErr(f.rep.Kind) {
			return f.rep
		}
	}
	out := proto.Reply{Kind: e.sp.Reply, Items: cs.items[:0]}
	defer func() { cs.items = out.Items }()
	switch e.sp.Merge {
	case proto.MergeKeys:
		// Rebuild original key order from the per-key leg map.
		for _, li := range e.keyLeg {
			if f := e.legs[li]; f.at < len(f.rep.Items) {
				out.Items = append(out.Items, f.rep.Items[f.at])
				f.at++
			}
		}
	case proto.MergeSum:
		// A pair count (mset) or a key count (zcount).
		for _, f := range e.legs {
			out.N += f.rep.N
			out.Val += f.rep.Val
		}
	case proto.MergeSorted:
		out.Items = mergeRange(e, out.Items)
	case proto.MergeMin:
		// Each node settles its own frontier; the barrier holds once
		// every leg returned. The reported epoch is the minimum — the
		// conservative cluster-wide receipt.
		for i, f := range e.legs {
			if i == 0 || f.rep.Val < out.Val {
				out.Val = f.rep.Val
			}
		}
	default:
		return proto.Reply{Kind: proto.KErrServer, Msg: "unmergeable fan-out"}
	}
	return out
}

// mergeRange k-way merges the legs' ordered items by key onto out,
// honoring the request's limit. Node keyspaces are disjoint, so no
// deduplication is needed.
func mergeRange(e *entry, out []proto.Item) []proto.Item {
	for e.limit < 0 || len(out) < e.limit {
		var best *fwd
		for _, f := range e.legs {
			if f.at < len(f.rep.Items) && (best == nil || f.rep.Items[f.at].Key < best.rep.Items[best.at].Key) {
				best = f
			}
		}
		if best == nil {
			break
		}
		out = append(out, best.rep.Items[best.at])
		best.at++
	}
	return out
}

// statsSources is what the proxy's `stats` renders and `stats reset`
// zeroes: its routing rows (counters, latencies, the ring epoch and the
// per-node counters). A proxy has no shard-scoped rows, so
// `stats shards` answers END alone.
func (p *Proxy) statsSources() telemetry.Source {
	p.tel.RingEpoch.Store(p.ring.Epoch())
	return telemetry.RouteRows.Bind(p.tel)
}

// infoText renders the INFO reply.
func (p *Proxy) infoText() string {
	var b strings.Builder
	b.WriteString("# tspproxy\r\n")
	fmt.Fprintf(&b, "ring_epoch:%d\r\n", p.ring.Epoch())
	fmt.Fprintf(&b, "slots:%d\r\n", NumSlots)
	nodes := p.ring.Nodes()
	fmt.Fprintf(&b, "nodes:%d", len(nodes))
	return b.String()
}
