package main

import (
	"math/rand"
	"strconv"
	"time"
)

// Request kinds the generator emits. The names follow the wire
// commands; opSeqIncr is an incr carrying a seq= tag on a bound session
// and opRelaxedSet a set at the relaxed durability tier.
const (
	opGet uint8 = iota
	opSet
	opIncr
	opDelete
	opMGet
	opMSet
	opSeqIncr
	opZAdd
	opZRange
	opRelaxedSet
)

const (
	hashKeys  = 65536 // preloaded hash keyspace of every workload
	zsetKeys  = 4096  // preloaded ordered keyspace, dense from 0
	multiKeys = 8     // keys per mget, pairs per mset
	zrangeLim = 16    // zrange result cap
	zrangeWin = 64    // zrange window width
	valueMax  = 1_000_000
	seqDigits = 12 // fixed width of a seq= tag, so it can be restamped in place
	// dupEvery makes every dupEvery'th seq-tagged incr a resend of the
	// one before it, so the session layer's duplicate path carries load.
	dupEvery = 8
	// epochInterval is every server's epoch clock period, stated rather
	// than left to the server's default so that a changed default cannot
	// silently change the workloads.
	epochInterval = 5 * time.Millisecond
	// ringPasses is how many passes one generated ring of requests lasts.
	// A pass is short (about an eighth of a second when the benchmark was
	// defined) so that a run holds many of them and a quantile over
	// passes can set aside the ones the host disturbed; the ring is eight
	// times longer so that the keys a pass touches keep their spread.
	ringPasses = 8
)

// mix is one share of a traffic mix, in percent.
type mix struct {
	kind uint8
	pct  int
}

// spec is a workload's frozen definition. The request counts are part
// of the benchmark: a pass always sends the same requests, so later
// commits are compared on identical work.
type spec struct {
	name  string
	why   string
	conns int // client connections (closed loop, one goroutine each)
	depth int // requests per burst
	// bursts is the length of each connection's ring, in bursts; a pass
	// sends 1/ringPasses of it. For relaxed_wait it counts groups (64 set
	// bursts and a wait), for recover crash cycles.
	bursts  int
	mix     []mix
	uniform bool // uniform keys; default is Zipf s=1.01
	shards  int
	nodes   int // >0: that many cluster nodes behind a cluster.Proxy
	// allSlots makes the single server a cluster node owning every slot:
	// the proxy workload's bytes sent straight to a node, the baseline
	// cluster.hop_p50_us subtracts.
	allSlots bool
}

// The six workloads. Ring lengths were chosen so that a ring takes about
// a second at the commit that introduced the benchmark.
var specs = []spec{
	{
		name: "rtt", conns: 1, depth: 1, bursts: 1 << 16, shards: 4,
		mix: []mix{{opGet, 80}, {opSet, 20}},
		why: "one unpipelined caller, 80% get 20% durable set: socket, wake-up and conn loop dominate, storage is about a tenth",
	},
	{
		name: "write_pipe", conns: 2, depth: 64, bursts: 2048, shards: 4,
		mix: []mix{{opSet, 45}, {opIncr, 15}, {opDelete, 10}, {opMSet, 15}, {opSeqIncr, 10}, {opZAdd, 5}},
		why: "two writers at depth 64, all durable: batch pipeline, flat combining, Atlas section, hashmap, pheap, session record, mset fan-out",
	},
	{
		name: "read_pipe", conns: 1, depth: 64, bursts: 4096, shards: 4,
		mix: []mix{{opGet, 75}, {opMGet, 15}, {opZRange, 5}, {opSet, 5}},
		why: "one reader at depth 64 with a 5% writer trickle: optimistic seqlock reads, codec share largest; shows a write-path gain that taxes readers",
	},
	{
		name: "relaxed_wait", conns: 1, depth: 32, bursts: 128, shards: 4, uniform: true,
		mix: []mix{{opRelaxedSet, 100}},
		why: "64 bursts of 32 relaxed sets then one wait barrier, uniform keys: overlay acks, background epoch drain, barrier paced by the 5 ms epoch clock",
	},
	{
		name: "proxy", conns: 1, depth: 16, bursts: 6144, shards: 2, nodes: 2,
		mix: []mix{{opGet, 50}, {opSet, 30}, {opMGet, 10}, {opMSet, 10}},
		why: "one caller through cluster.Proxy to 2 nodes x 2 shards at depth 16: classify, split per owner, backend demux, merge; storage share small",
	},
	{
		name: "recover", conns: 1, depth: 64, bursts: 24, shards: 4, uniform: true,
		why: "512 durable + 256 relaxed sets, crash all 4 shards, read everything back: recovery time and the durable/relaxed loss contracts",
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// request is one generated request. Its arguments live in the stream's
// args arena: keys for get/mget/delete/zrange(lo), key/value pairs for
// the writes.
type request struct {
	kind  uint8
	dup   bool   // opSeqIncr: resend of the previous seq-tagged request
	nargs uint8  // argument words in args
	arg   uint32 // first argument's index in stream.args
	seqAt uint32 // opSeqIncr: offset of the seq digits in stream.wire
}

// burst is a run of requests written with one write.
type burst struct {
	wire [2]uint32 // byte range in stream.wire
	reqs [2]uint32 // request range in stream.reqs
}

// stream is everything one connection sends in a pass, generated from
// the seed before any timing starts. The server sees only wire.
type stream struct {
	wire   []byte
	args   []uint64
	reqs   []request
	bursts []burst
}

func (st *stream) argsOf(r *request) []uint64 { return st.args[r.arg : r.arg+uint32(r.nargs)] }

// add appends one request and its wire form.
func (st *stream) add(kind uint8, args ...uint64) {
	rq := request{kind: kind, arg: uint32(len(st.args)), nargs: uint8(len(args))}
	st.args = append(st.args, args...)
	st.wire, rq.seqAt = appendWire(st.wire, kind, args)
	st.reqs = append(st.reqs, rq)
}

// keyPicker draws the keys one connection owns. Keys are partitioned by
// connection (key mod conns), so each key has exactly one writer and
// the per-connection model can predict every reply.
type keyPicker struct {
	rng         *rand.Rand
	zipf        *rand.Zipf
	conn, conns int
}

func newKeyPicker(rng *rand.Rand, sp *spec, conn int) *keyPicker {
	kp := &keyPicker{rng: rng, conn: conn, conns: sp.conns}
	if !sp.uniform {
		kp.zipf = rand.NewZipf(rng, 1.01, 1, uint64(hashKeys/sp.conns-1))
	}
	return kp
}

// hash draws a key of the hash keyspace. Zipf ranks are scattered with
// an odd multiplier (a bijection on a power-of-two range) so the hot
// keys do not sit next to each other.
func (kp *keyPicker) hash() uint64 {
	per := uint64(hashKeys / kp.conns)
	var r uint64
	if kp.zipf != nil {
		r = (kp.zipf.Uint64() * 40503) & (per - 1)
	} else {
		r = kp.rng.Uint64() & (per - 1)
	}
	return r*uint64(kp.conns) + uint64(kp.conn)
}

// zset draws a key of the ordered keyspace, uniformly.
func (kp *keyPicker) zset() uint64 {
	per := uint64(zsetKeys / kp.conns)
	return (kp.rng.Uint64()&(per-1))*uint64(kp.conns) + uint64(kp.conn)
}

func (kp *keyPicker) value() uint64 { return kp.rng.Uint64() % valueMax }

// pickKind draws a request kind from the mix.
func pickKind(rng *rand.Rand, m []mix) uint8 {
	r := rng.Intn(100)
	for _, e := range m {
		if r < e.pct {
			return e.kind
		}
		r -= e.pct
	}
	return m[len(m)-1].kind
}

// genStream generates one connection's pass: sp.bursts bursts of
// sp.depth requests drawn from the mix.
func genStream(sp *spec, conn int, seed int64) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	kp := newKeyPicker(rng, sp, conn)
	n := sp.bursts * sp.depth
	st := &stream{
		wire:   make([]byte, 0, n*24),
		args:   make([]uint64, 0, n*3),
		reqs:   make([]request, 0, n),
		bursts: make([]burst, 0, sp.bursts),
	}
	seqSeen := 0
	var lastSeq request
	for b := 0; b < sp.bursts; b++ {
		bu := burst{wire: [2]uint32{uint32(len(st.wire))}, reqs: [2]uint32{uint32(len(st.reqs))}}
		for i := 0; i < sp.depth; i++ {
			r := request{kind: pickKind(rng, sp.mix), arg: uint32(len(st.args))}
			switch r.kind {
			case opGet, opDelete:
				st.args = append(st.args, kp.hash())
			case opSet, opIncr, opRelaxedSet:
				st.args = append(st.args, kp.hash(), kp.value())
			case opSeqIncr:
				seqSeen++
				if seqSeen%dupEvery == 0 {
					// Resend the previous seq-tagged incr word for word.
					st.args = append(st.args, st.argsOf(&lastSeq)...)
					r.dup = true
				} else {
					st.args = append(st.args, kp.hash(), kp.value())
				}
			case opMGet:
				for j := 0; j < multiKeys; j++ {
					st.args = append(st.args, kp.hash())
				}
			case opMSet:
				for j := 0; j < multiKeys; j++ {
					st.args = append(st.args, kp.hash(), kp.value())
				}
			case opZAdd:
				st.args = append(st.args, kp.zset(), kp.value())
			case opZRange:
				st.args = append(st.args, kp.zset())
			}
			r.nargs = uint8(len(st.args) - int(r.arg))
			st.wire, r.seqAt = appendWire(st.wire, r.kind, st.argsOf(&r))
			if r.kind == opSeqIncr {
				lastSeq = r
			}
			st.reqs = append(st.reqs, r)
		}
		bu.wire[1], bu.reqs[1] = uint32(len(st.wire)), uint32(len(st.reqs))
		st.bursts = append(st.bursts, bu)
	}
	return st
}

// appendWire appends one request's native wire form. For opSeqIncr it
// also returns where the zero-padded seq digits start.
func appendWire(dst []byte, kind uint8, a []uint64) ([]byte, uint32) {
	var seqAt uint32
	switch kind {
	case opGet:
		dst = append(dst, "get"...)
	case opSet, opRelaxedSet:
		dst = append(dst, "set"...)
	case opIncr, opSeqIncr:
		dst = append(dst, "incr"...)
	case opDelete:
		dst = append(dst, "delete"...)
	case opMGet:
		dst = append(dst, "mget"...)
	case opMSet:
		dst = append(dst, "mset"...)
	case opZAdd:
		dst = append(dst, "zadd"...)
	case opZRange:
		dst = append(dst, "zrange"...)
		a = []uint64{a[0], a[0] + zrangeWin, zrangeLim}
	}
	for _, v := range a {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, v, 10)
	}
	switch kind {
	case opRelaxedSet:
		dst = append(dst, " relaxed"...)
	case opSeqIncr:
		dst = append(dst, " seq="...)
		seqAt = uint32(len(dst))
		dst = append(dst, "000000000000"[:seqDigits]...)
	}
	return append(dst, '\r', '\n'), seqAt
}

// stampSeq overwrites a fixed-width seq= tag in place.
func stampSeq(wire []byte, at uint32, seq uint64) {
	for i := seqDigits - 1; i >= 0; i-- {
		wire[int(at)+i] = byte('0' + seq%10)
		seq /= 10
	}
}

// model is the harness's picture of the keyspace: what every get, mget,
// incr and zrange must return. Connections own disjoint keys, so they
// share one model without synchronisation.
type model struct {
	val  []uint64
	has  []bool
	zval []uint64
}

// newModel returns the state preload() writes: every hash key k holds
// k+1, every ordered key z holds z+1.
func newModel() *model {
	m := &model{val: make([]uint64, hashKeys), has: make([]bool, hashKeys), zval: make([]uint64, zsetKeys)}
	for k := range m.val {
		m.val[k], m.has[k] = uint64(k)+1, true
	}
	for z := range m.zval {
		m.zval[z] = uint64(z) + 1
	}
	return m
}

// session is one connection's exactly-once state: the last seq it
// issued and the reply that seq got, which a duplicate must repeat.
type session struct {
	seq, lastReply uint64
}

// expect applies one burst to the model in request order, stamps fresh
// seq tags into the wire bytes, and appends the exact reply text the
// server owes for it. It returns the text and its line count.
func (m *model) expect(st *stream, bu *burst, se *session, dst []byte) ([]byte, int) {
	lines := 0
	for i := bu.reqs[0]; i < bu.reqs[1]; i++ {
		r := &st.reqs[i]
		a := st.argsOf(r)
		switch r.kind {
		case opGet:
			dst = m.appendValue(dst, a[0], false)
			lines++
		case opSet:
			m.val[a[0]], m.has[a[0]] = a[1], true
			dst = append(dst, "STORED\r\n"...)
			lines++
		case opIncr, opSeqIncr:
			if r.kind == opSeqIncr {
				if !r.dup {
					se.seq++
				}
				stampSeq(st.wire, r.seqAt, se.seq)
				if r.dup {
					// A duplicate seq replays the recorded reply and
					// leaves the key alone.
					dst = strconv.AppendUint(dst, se.lastReply, 10)
					dst = append(dst, '\r', '\n')
					lines++
					continue
				}
			}
			if m.has[a[0]] {
				m.val[a[0]] += a[1]
			} else {
				m.val[a[0]], m.has[a[0]] = a[1], true
			}
			if r.kind == opSeqIncr {
				se.lastReply = m.val[a[0]]
			}
			dst = strconv.AppendUint(dst, m.val[a[0]], 10)
			dst = append(dst, '\r', '\n')
			lines++
		case opDelete:
			if m.has[a[0]] {
				m.has[a[0]] = false
				dst = append(dst, "DELETED\r\n"...)
			} else {
				dst = append(dst, "NOT_FOUND\r\n"...)
			}
			lines++
		case opMGet:
			for _, k := range a {
				dst = m.appendValue(dst, k, true)
			}
			dst = append(dst, "END\r\n"...)
			lines += len(a) + 1
		case opMSet:
			for j := 0; j < len(a); j += 2 {
				m.val[a[j]], m.has[a[j]] = a[j+1], true
			}
			dst = append(dst, "STORED "...)
			dst = strconv.AppendUint(dst, uint64(len(a)/2), 10)
			dst = append(dst, '\r', '\n')
			lines++
		case opZAdd:
			m.zval[a[0]] = a[1]
			dst = append(dst, "STORED\r\n"...)
			lines++
		case opZRange:
			hi := min(a[0]+zrangeLim, a[0]+zrangeWin, zsetKeys)
			for z := a[0]; z < hi; z++ {
				dst = appendValueLine(dst, z, m.zval[z])
				lines++
			}
			dst = append(dst, "END\r\n"...)
			lines++
		}
	}
	return dst, lines
}

// appendValue appends the reply line for a read of hash key k. A miss
// names the key inside an mget and stays bare for a single get.
func (m *model) appendValue(dst []byte, k uint64, multi bool) []byte {
	if m.has[k] {
		return appendValueLine(dst, k, m.val[k])
	}
	dst = append(dst, "NOT_FOUND"...)
	if multi {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, k, 10)
	}
	return append(dst, '\r', '\n')
}

func appendValueLine(dst []byte, k, v uint64) []byte {
	dst = append(dst, "VALUE "...)
	dst = strconv.AppendUint(dst, k, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, v, 10)
	return append(dst, '\r', '\n')
}
