package cluster

import (
	"bufio"
	"fmt"
	"net"
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
	// VNodes is the virtual-node count per node (0 = DefaultVNodes).
	VNodes int
	// Proto fixes the frontend protocol: "native", "resp", or "" /
	// "auto" to sniff per connection by first byte, exactly like the
	// cache server's listener.
	Proto string
	// MaxRequestBytes caps one frontend request (0 = the codec
	// default).
	MaxRequestBytes int
	// Tel receives routing counters (nil = telemetry off).
	Tel *telemetry.RouteStats
	// Logf receives serving errors (nil = silent).
	Logf func(format string, args ...any)
}

// Proxy is the cluster routing tier: it terminates frontend
// connections (native or RESP, sniffed per connection), decodes each
// connection's pipelined burst as one batch, routes every request to
// the slot owner through a shared pipelined backend connection per
// node — one backend write per decoded frontend batch per touched
// node — and merges scatter-gather fan-outs back in request order.
// MOVED redirects from nodes update its ring, so it follows live
// migrations without coordination.
type Proxy struct {
	cfg  Config
	ln   net.Listener
	ring *Ring
	tel  *telemetry.RouteStats

	mu       sync.Mutex
	backends map[string]*backend
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// New builds the ring, starts listening, and begins serving.
func New(cfg Config) (*Proxy, error) {
	ring, err := NewRing(cfg.Nodes, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	switch cfg.Proto {
	case "", "auto", "native", "resp":
	default:
		return nil, fmt.Errorf("cluster: unknown proto %q", cfg.Proto)
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
		backends: make(map[string]*backend),
		conns:    make(map[net.Conn]struct{}),
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

// Close stops the listener and tears down every connection.
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
	for _, b := range p.backends {
		b.mu.Lock()
		if b.cur != nil {
			bc := b.cur
			b.cur = nil
			close(bc.dead)
			bc.conn.Close()
		}
		b.mu.Unlock()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// logf reports a serving error.
func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// backendFor returns (creating if needed) the backend for addr.
func (p *Proxy) backendFor(addr string) *backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.backends[addr]; ok {
		return b
	}
	b := &backend{addr: addr, tel: p.tel, node: p.tel.Node(addr)}
	p.backends[addr] = b
	return b
}

// acceptLoop serves frontend connections until Close.
func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
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

// feConn is one frontend connection's reusable serving state.
type feConn struct {
	p       *Proxy
	sess    uint64
	entries []entry
	fwds    []*fwd
	nfwd    int
	scratch []byte
	legs    map[string]*fwd // per-request scratch: addr → leg
	bufFwds map[*backend][]*fwd
	bufs    map[*backend][]byte
}

// takeFwd returns a reusable fwd slot for this batch.
func (cs *feConn) takeFwd() *fwd {
	if cs.nfwd == len(cs.fwds) {
		cs.fwds = append(cs.fwds, newFwd())
	}
	f := cs.fwds[cs.nfwd]
	cs.nfwd++
	return f
}

// handle runs one frontend connection: sniff the protocol like the
// cache server does (RESP leads with '*'), then decode → route → merge
// → stage, one write per batch.
func (p *Proxy) handle(conn net.Conn) {
	defer func() {
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
		conn.Close()
		p.wg.Done()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if p.tel != nil {
		p.tel.Frontends.Inc()
	}
	dec := proto.NewDecoder(conn, proto.Native{}, p.cfg.MaxRequestBytes)
	var ad proto.Adapter
	switch p.cfg.Proto {
	case "native":
		ad = proto.Native{}
	case "resp":
		ad = proto.RESP{}
	default: // auto
		b, err := dec.Peek()
		if err != nil {
			return
		}
		if b == '*' {
			ad = proto.RESP{}
		} else {
			ad = proto.Native{}
		}
	}
	dec.Use(ad)
	enc := proto.NewEncoder(conn, ad, 0)
	defer enc.Flush()

	cs := &feConn{
		p:       p,
		legs:    make(map[string]*fwd),
		bufFwds: make(map[*backend][]*fwd),
		bufs:    make(map[*backend][]byte),
	}
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
	if p.tel != nil {
		p.tel.Batches.Inc()
		p.tel.Requests.Add(uint64(len(batch)))
	}
	cs.nfwd = 0
	entries := cs.entries[:0]
	for i := range batch {
		entries = append(entries, p.classify(cs, &batch[i]))
		if batch[i].Cmd.Spec().Plan == proto.PlanClose {
			break
		}
	}
	cs.entries = entries

	// One write per touched backend: ship every entry's payload.
	for b, fs := range cs.bufFwds {
		if len(fs) == 0 {
			continue
		}
		b.send(fs, cs.bufs[b])
		cs.bufFwds[b] = fs[:0]
		cs.bufs[b] = cs.bufs[b][:0]
	}

	// Settle in request order.
	for i := range entries {
		e := &entries[i]
		switch e.kind {
		case eLocal:
			if p.tel != nil {
				p.tel.LocalReplies.Inc()
			}
			enc.Stage(&e.rep)
			if e.rep.Kind == proto.KQuit {
				return true
			}
		case eForward:
			p.settle(cs, e.f)
			rep := e.f.rep
			if e.moved >= 0 && rep.Kind == proto.KRaw && strings.HasPrefix(rep.Msg, "OK MIGRATED") {
				// A migrate acknowledged through the proxy flips our ring
				// along with the cluster's.
				p.ring.SetOwner(e.moved, e.f.addr)
				if p.tel != nil {
					p.tel.RingRefreshes.Inc()
				}
			}
			if p.tel != nil {
				p.tel.ForwardLatency.Observe(time.Since(e.start))
			}
			enc.Stage(&rep)
		case eFanout:
			rep := p.mergeFanout(cs, e)
			if p.tel != nil {
				p.tel.FanoutLatency.Observe(time.Since(e.start))
			}
			enc.Stage(&rep)
		}
	}
	return false
}

// stageForward queues f for the batch write to addr's backend.
func (cs *feConn) stageForward(addr string, f *fwd) {
	b := cs.p.backendFor(addr)
	cs.bufFwds[b] = append(cs.bufFwds[b], f)
	cs.bufs[b] = f.appendWire(cs.bufs[b])
}

// localReply shapes an eLocal entry.
func localReply(rep proto.Reply) entry {
	return entry{kind: eLocal, rep: rep, moved: -1}
}

// notRoutableMsg answers admin verbs that only make sense on a node.
const notRoutableMsg = "not routable through the proxy (connect to a node directly)"

// classify routes one request by its command's routing class: answer
// locally, forward whole to the slot owner, or split into fan-out legs.
// Forwarded requests are staged into the per-backend batch buffers;
// settle picks the replies up afterwards.
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
		f.set(req.Cmd, req.KV, req.Dur, 0, false, 0)
		f.addr = req.Addr
		if p.tel != nil {
			p.tel.Forwards.Inc()
		}
		cs.stageForward(p.ring.Owner(slot), f)
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
	f.set(req.Cmd, req.KV, req.Dur, req.Seq, req.HasSeq, sess)
	addr, _ := p.ring.OwnerOfKey(req.KV[0])
	if p.tel != nil {
		p.tel.Forwards.Inc()
	}
	cs.stageForward(addr, f)
	return entry{kind: eForward, f: f, moved: -1, start: time.Now()}
}

// fanKeys splits a multi-key request across slot owners, the row's
// stride at a time: 1 for key lists (mget/delete), 2 for pairs (mset).
// Keys for the same node stay in one leg, in request order.
func (p *Proxy) fanKeys(cs *feConn, req *proto.Request, sp *proto.Spec) entry {
	for k := range cs.legs {
		delete(cs.legs, k)
	}
	kv, stride := req.KV, sp.Stride
	e := entry{kind: eFanout, sp: sp, limit: -1, moved: -1, start: time.Now()}
	nkeys := len(kv) / stride
	if cap(e.keyLeg) < nkeys {
		e.keyLeg = make([]int, 0, nkeys)
	}
	var order []*fwd
	for i := 0; i < len(kv); i += stride {
		addr, _ := p.ring.OwnerOfKey(kv[i])
		f, ok := cs.legs[addr]
		if !ok {
			f = cs.takeFwd()
			f.set(req.Cmd, nil, req.Dur, 0, false, 0)
			f.addr = addr
			cs.legs[addr] = f
			order = append(order, f)
		}
		f.kv = append(f.kv, kv[i:i+stride]...)
		e.keyLeg = append(e.keyLeg, indexOf(order, f))
	}
	if len(order) == 1 {
		// Single owner: no split needed; forward whole.
		f := order[0]
		if p.tel != nil {
			p.tel.Forwards.Inc()
		}
		cs.stageForward(f.addr, f)
		return entry{kind: eForward, f: f, moved: -1, start: e.start}
	}
	if p.tel != nil {
		p.tel.Fanouts.Inc()
		p.tel.FanoutLegs.Add(uint64(len(order)))
	}
	for _, f := range order {
		cs.stageForward(f.addr, f)
	}
	e.legs = order
	return e
}

// indexOf finds f in order (legs are few; linear is right).
func indexOf(order []*fwd, f *fwd) int {
	for i, g := range order {
		if g == f {
			return i
		}
	}
	return -1
}

// broadcast stages one copy of req to every node in the ring.
func (p *Proxy) broadcast(cs *feConn, req *proto.Request, sp *proto.Spec, limit int) entry {
	nodes := p.ring.Nodes()
	e := entry{kind: eFanout, sp: sp, limit: limit, moved: -1, start: time.Now()}
	for _, addr := range nodes {
		f := cs.takeFwd()
		f.set(req.Cmd, req.KV, req.Dur, 0, false, 0)
		f.waitRepl = req.WaitRepl
		f.addr = addr
		cs.stageForward(addr, f)
		e.legs = append(e.legs, f)
	}
	if p.tel != nil {
		p.tel.Fanouts.Inc()
		p.tel.FanoutLegs.Add(uint64(len(e.legs)))
	}
	return e
}

// movedRetryMax bounds redirect-following per request: an importing
// owner answers "MOVED <slot> ?" until its stream settles, so the
// proxy waits in 1 ms steps between retries.
const movedRetryMax = 2000

// settle receives f's reply, following MOVED redirects: a redirect
// naming a node updates the ring and re-sends there; "?" means the
// new owner is still importing — wait and retry.
func (p *Proxy) settle(cs *feConn, f *fwd) {
	f.rep = <-f.ch
	for tries := 0; f.rep.Kind == proto.KMoved && tries < movedRetryMax; tries++ {
		if p.tel != nil {
			p.tel.Redirects.Inc()
		}
		slot := f.rep.N
		if f.rep.Msg != "?" {
			if p.ring.Owner(slot) != f.rep.Msg {
				p.ring.SetOwner(slot, f.rep.Msg)
				if p.tel != nil {
					p.tel.RingRefreshes.Inc()
				}
			}
		} else {
			time.Sleep(time.Millisecond)
		}
		owner := p.ring.Owner(slot)
		if p.tel != nil {
			p.tel.Retries.Inc()
		}
		cs.scratch = p.backendFor(owner).sendOne(f, cs.scratch)
		f.rep = <-f.ch
	}
}

// settleLeg settles one fan-out leg. A redirected multi-key leg is
// re-split per key (ownership may have diverged mid-migration); the
// singles settle recursively and reassemble into the leg's reply
// shape.
func (p *Proxy) settleLeg(cs *feConn, f *fwd) {
	f.rep = <-f.ch
	if f.rep.Kind != proto.KMoved {
		return
	}
	if p.tel != nil {
		p.tel.Redirects.Inc()
	}
	sp := f.cmd.Spec()
	if len(f.kv) == sp.Stride {
		// Single-key leg: plain redirect following. Put the reply back
		// for settle's loop.
		f.ch <- f.rep
		p.settle(cs, f)
		return
	}
	if sp.Route != proto.RouteSplit {
		f.rep = proto.Reply{Kind: proto.KErrServer, Msg: "unmergeable redirected leg"}
		return
	}
	// Re-split per key and reassemble: items in key order, counts summed.
	singles := make([]*fwd, 0, len(f.kv)/sp.Stride)
	for i := 0; i < len(f.kv); i += sp.Stride {
		s := newFwd()
		s.set(f.cmd, f.kv[i:i+sp.Stride], f.dur, 0, false, 0)
		addr, _ := p.ring.OwnerOfKey(f.kv[i])
		cs.scratch = p.backendFor(addr).sendOne(s, cs.scratch)
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
	out := proto.Reply{Kind: e.sp.Reply}
	switch e.sp.Merge {
	case proto.MergeKeys:
		// Rebuild original key order from the per-key leg map.
		cursors := make([]int, len(e.legs))
		for _, li := range e.keyLeg {
			items := e.legs[li].rep.Items
			ci := cursors[li]
			if ci < len(items) {
				out.Items = append(out.Items, items[ci])
				cursors[li] = ci + 1
			}
		}
	case proto.MergeSum:
		// A pair count (mset) or a key count (zcount).
		for _, f := range e.legs {
			out.N += f.rep.N
			out.Val += f.rep.Val
		}
	case proto.MergeSorted:
		out.Items = mergeRange(e)
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

// mergeRange k-way merges the legs' ordered items by key, honoring the
// request's limit. Node keyspaces are disjoint, so no deduplication is
// needed.
func mergeRange(e *entry) []proto.Item {
	var out []proto.Item
	cursors := make([]int, len(e.legs))
	for {
		best, bestLeg := uint64(0), -1
		for li, f := range e.legs {
			items := f.rep.Items
			ci := cursors[li]
			if ci >= len(items) {
				continue
			}
			if bestLeg < 0 || items[ci].Key < best {
				best, bestLeg = items[ci].Key, li
			}
		}
		if bestLeg < 0 {
			break
		}
		out = append(out, e.legs[bestLeg].rep.Items[cursors[bestLeg]])
		cursors[bestLeg]++
		if e.limit >= 0 && len(out) >= e.limit {
			break
		}
	}
	return out
}

// statsSources is what the proxy's `stats` renders and `stats reset`
// zeroes: its routing rows (counters, latencies, the ring epoch and the
// per-node counters). A proxy has no shard-scoped rows, so
// `stats shards` answers END alone.
func (p *Proxy) statsSources() telemetry.Source {
	if p.tel != nil {
		p.tel.RingEpoch.Store(p.ring.Epoch())
	}
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
