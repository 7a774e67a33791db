package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/cluster"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/proto"
	"tsp/internal/stack"
)

// Replay feeds input to one module's public functions at a time, on a
// stack shaped like one shard of the served system, and times the calls
// in spans of spanCalls. It is how a layer is measured from outside: no
// clock runs inside the program.
//
// There are two replays. The input replay feeds a workload's own
// generated requests to the functions that depend on them (the codec,
// the map, the skip list, a batched Atlas section) and leaves a metric
// at 0 on a workload that never makes the call. The fixed replay times
// what no request stream changes (an empty section, a logged store, the
// heap, the device, the router's hash, every step of recovery); it runs
// once per process and every workload's row shows the same figure.
const (
	spanCalls  = 1024
	replayReqs = 1 << 15 // requests converted for the codec replays
	shardWords = 1 << 20
	// replayShards: every workload's servers have four shards in all, so
	// a shard holds a quarter of each keyspace.
	replayShards = 4
	shardKeys    = hashKeys / replayShards
	shardZ       = zsetKeys / replayShards
)

// How often a replay repeats; -quick lowers both.
var (
	replaySpans   = 32 // spans per metric; the metric is their median
	recoverRounds = 5  // crash/recover repetitions per recovery metric
)

// sink keeps the compiler from discarding a replayed call's result.
var sink uint64

// replayer is one replay: its trace, and its stack loaded like a shard.
type replayer struct {
	tr     *tracer
	parent int
	epoch  time.Time
	stk    *stack.Stack
	th     *atlas.Thread
}

// inputKeys are a stream's arguments split by what the requests do with
// them, folded onto one shard's share of the keyspace.
type inputKeys struct {
	put, putVals []uint64 // set, mset, relaxed set
	inc, incBy   []uint64 // incr, seq-tagged incr
	del          []uint64 // delete
	read         []uint64 // get, mget
	zput, zrange []uint64 // zadd; zrange's lower bound
}

// shardOptions shapes a stack like cacheserver's newShard does with the
// server's defaults.
func shardOptions() []stack.Option {
	return []stack.Option{
		stack.WithDeviceWords(shardWords),
		stack.WithMaxThreads(10),
		stack.WithLogEntries(4096),
		stack.WithBuckets(4096, 256),
		stack.WithSessionSlots(256),
	}
}

// replayStream is the input a workload's replay uses: its first
// connection's ring, or for recover (whose cycles are generated as they
// run) the requests of the cycles it would make next.
func replayStream(r *run) *stream {
	if st := r.in.load[0].st; st != nil {
		return st
	}
	return r.in.walk.stream(r.sp.depth, replayReqs/(cycleDurable+cycleRelaxed+cycleKeys))
}

// newReplayer opens a replay's parent span.
func newReplayer(tr *tracer, epoch time.Time, name string) *replayer {
	rp := &replayer{tr: tr, epoch: epoch}
	rp.parent = tr.add(0, name, rp.now(), rp.now(), 0)
	return rp
}

// done closes the replay's parent span.
func (rp *replayer) done() { rp.tr.spans[rp.parent-1].EndNs = rp.now() }

// newStack times stack.New and keeps the stack it made.
func (rp *replayer) newStack() (float64, error) {
	return rp.once("stack.new", func() (err error) {
		rp.stk, err = stack.New(shardOptions()...)
		return err
	})
}

// load fills the stack with a shard's share of both keyspaces, as
// preload does through the front door.
func (rp *replayer) load() (err error) {
	if rp.th, err = rp.stk.RT.NewThread(); err != nil {
		return err
	}
	for k := uint64(0); k < shardKeys; k++ {
		if err := rp.stk.Map.Put(rp.th, k, k+1); err != nil {
			return err
		}
	}
	for z := uint64(0); z < shardZ; z++ {
		if _, err := rp.stk.List.Put(z, z+1); err != nil {
			return err
		}
	}
	return nil
}

// replayInput fills the replay metrics that depend on the workload's
// requests.
func replayInput(r *run, out map[string]float64, tr *tracer) {
	rp := newReplayer(tr, r.epoch, "replay "+r.sp.name)
	defer rp.done()
	st := replayStream(r)
	rp.codec(st, r.sp.depth, out)
	_, err := rp.newStack()
	if err == nil {
		err = rp.load()
	}
	if err == nil {
		err = rp.engines(collectKeys(st), out)
	}
	if err != nil {
		// A replay failure is a defect of the harness, not of the served
		// system: report it and leave the remaining metrics at zero.
		fmt.Fprintln(os.Stderr, "bench: replay:", err)
	}
}

// replayFixed measures the replay metrics no request stream changes.
func replayFixed(tr *tracer, epoch time.Time) map[string]float64 {
	out := map[string]float64{}
	rp := newReplayer(tr, epoch, "replay fixed")
	defer rp.done()
	err := func() error {
		var newMs []float64
		for i := 0; i < 3; i++ {
			ms, err := rp.newStack()
			if err != nil {
				return err
			}
			newMs = append(newMs, ms)
		}
		out["stack.new_ms"] = median(newMs)
		if err := rp.load(); err != nil {
			return err
		}
		if err := rp.primitives(out); err != nil {
			return err
		}
		return rp.recovery(out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: replay:", err)
	}
	return out
}

func (rp *replayer) now() int64 { return int64(time.Since(rp.epoch)) }

// timed runs fn(i) for replaySpans spans of spanCalls consecutive i,
// records one trace span per batch, and returns the median nanoseconds
// per call. between, when set, runs untimed after each span.
func (rp *replayer) timed(name string, fn func(i int), between func(lo, hi int)) float64 {
	per := make([]float64, 0, replaySpans)
	for s := 0; s < replaySpans; s++ {
		lo := s * spanCalls
		t0 := rp.now()
		for i := lo; i < lo+spanCalls; i++ {
			fn(i)
		}
		t1 := rp.now()
		rp.tr.add(rp.parent, name, t0, t1, 0)
		per = append(per, float64(t1-t0)/spanCalls)
		if between != nil {
			between(lo, lo+spanCalls)
		}
	}
	return median(per)
}

// once times a single call in milliseconds, with its trace span.
func (rp *replayer) once(name string, fn func() error) (float64, error) {
	t0 := rp.now()
	err := fn()
	t1 := rp.now()
	rp.tr.add(rp.parent, name, t0, t1, 0)
	return float64(t1-t0) / 1e6, err
}

func at(xs []uint64, i int) uint64 { return xs[i%len(xs)] }

// scatter spreads consecutive i over [0, n), n a power of two, the way
// the generator scatters Zipf ranks.
func scatter(i int, n uint64) uint64 { return (uint64(i) * 40503) & (n - 1) }

// collectKeys splits the stream's arguments by request kind.
func collectKeys(st *stream) *inputKeys {
	ks := &inputKeys{}
	for i := range st.reqs {
		rq := &st.reqs[i]
		a := st.argsOf(rq)
		switch rq.kind {
		case opGet, opMGet:
			for _, k := range a {
				ks.read = append(ks.read, k%shardKeys)
			}
		case opDelete:
			ks.del = append(ks.del, a[0]%shardKeys)
		case opSet, opMSet, opRelaxedSet:
			for j := 0; j < len(a); j += 2 {
				ks.put = append(ks.put, a[j]%shardKeys)
				ks.putVals = append(ks.putVals, a[j+1])
			}
		case opIncr, opSeqIncr:
			ks.inc = append(ks.inc, a[0]%shardKeys)
			ks.incBy = append(ks.incBy, a[1])
		case opZAdd:
			ks.zput = append(ks.zput, a[0]%shardZ)
		case opZRange:
			ks.zrange = append(ks.zrange, a[0]%shardZ)
		}
	}
	return ks
}

// burstReader hands the decoder one burst per Read, cycling through
// the stream: what a connection's socket delivers in the served system.
type burstReader struct {
	wire   []byte
	bounds [][2]uint32
	next   int
	rest   []byte
}

func (br *burstReader) Read(p []byte) (int, error) {
	if len(br.rest) == 0 {
		b := br.bounds[br.next%len(br.bounds)]
		br.rest = br.wire[b[0]:b[1]]
		br.next++
	}
	n := copy(p, br.rest)
	br.rest = br.rest[n:]
	return n, nil
}

// toProto converts a generated request to the codec's typed form.
func toProto(st *stream, rq *request, seq uint64) proto.Request {
	a := st.argsOf(rq)
	pr := proto.Request{KV: a}
	switch rq.kind {
	case opGet:
		pr.Cmd = proto.CmdGet
	case opSet:
		pr.Cmd = proto.CmdSet
	case opRelaxedSet:
		pr.Cmd, pr.Dur = proto.CmdSet, proto.DurRelaxed
	case opIncr:
		pr.Cmd = proto.CmdIncr
	case opSeqIncr:
		pr.Cmd, pr.HasSeq, pr.Seq = proto.CmdIncr, true, seq
	case opDelete:
		pr.Cmd = proto.CmdDelete
	case opMGet:
		pr.Cmd = proto.CmdMGet
	case opMSet:
		pr.Cmd = proto.CmdMSet
	case opZAdd:
		pr.Cmd = proto.CmdZAdd
	case opZRange:
		pr.Cmd, pr.KV = proto.CmdZRange, []uint64{a[0], a[0] + zrangeWin, zrangeLim}
	}
	return pr
}

// replyFor builds a reply of the shape the server owes rq.
func replyFor(st *stream, rq *request) proto.Reply {
	a := st.argsOf(rq)
	switch rq.kind {
	case opGet:
		return proto.Reply{Kind: proto.KValue, Key: a[0], Val: a[0] + 1}
	case opSet, opZAdd:
		return proto.Reply{Kind: proto.KStored}
	case opRelaxedSet:
		return proto.Reply{Kind: proto.KStored, Epoch: 1000 + a[1]%1000}
	case opIncr, opSeqIncr:
		return proto.Reply{Kind: proto.KInt, Val: a[0] + a[1]}
	case opDelete:
		return proto.Reply{Kind: proto.KDelete, Items: []proto.Item{{Key: a[0], Found: true}}}
	case opMSet:
		return proto.Reply{Kind: proto.KStoredN, N: len(a) / 2}
	}
	rep := proto.Reply{Kind: proto.KMGet}
	keys := a
	if rq.kind == opZRange {
		rep.Kind = proto.KRange
		keys = make([]uint64, zrangeLim)
		for i := range keys {
			keys[i] = a[0] + uint64(i)
		}
	}
	for _, k := range keys {
		rep.Items = append(rep.Items, proto.Item{Key: k, Val: k + 1, Found: true})
	}
	return rep
}

// codec replays the proto layer: decoding the workload's request bytes
// (native, and the same requests in RESP), the client-side request
// encoder, and the reply encoder.
func (rp *replayer) codec(st *stream, depth int, out map[string]float64) {
	n := min(len(st.reqs), replayReqs)
	reqs := make([]proto.Request, n)
	reps := make([]proto.Reply, n)
	for i := range reqs {
		reqs[i] = toProto(st, &st.reqs[i], uint64(i)+1)
		reps[i] = replyFor(st, &st.reqs[i])
	}

	native := &burstReader{wire: st.wire}
	resp := &burstReader{}
	for _, bu := range st.bursts {
		if int(bu.reqs[1]) > n {
			break
		}
		native.bounds = append(native.bounds, bu.wire)
		lo := uint32(len(resp.wire))
		for i := bu.reqs[0]; i < bu.reqs[1]; i++ {
			resp.wire = proto.RESP{}.AppendRequest(resp.wire, &reqs[i])
		}
		resp.bounds = append(resp.bounds, [2]uint32{lo, uint32(len(resp.wire))})
	}
	decode := func(name string, br *burstReader, a proto.Adapter) float64 {
		dec := proto.NewDecoder(br, a, 0)
		per := make([]float64, 0, replaySpans)
		for s := 0; s < replaySpans; s++ {
			got := 0
			t0 := rp.now()
			for got < spanCalls {
				batch, err := dec.Next()
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: replay:", name, err)
					return 0
				}
				got += len(batch)
			}
			t1 := rp.now()
			rp.tr.add(rp.parent, name, t0, t1, 0)
			per = append(per, float64(t1-t0)/float64(got))
		}
		return median(per)
	}
	out["proto.decode_ns_per_req"] = decode("proto.decode", native, proto.Native{})
	out["proto.resp_decode_ns_per_req"] = decode("proto.resp_decode", resp, proto.RESP{})

	var buf []byte
	out["proto.append_ns_per_req"] = rp.timed("proto.append", func(i int) {
		buf = proto.Native{}.AppendRequest(buf[:0], &reqs[i%n])
	}, nil)
	sink += uint64(len(buf))

	enc := proto.NewEncoder(io.Discard, proto.Native{}, 0)
	out["proto.encode_ns_per_reply"] = rp.timed("proto.encode", func(i int) {
		_ = enc.Stage(&reps[i%n])
		if (i+1)%depth == 0 {
			_ = enc.Flush()
		}
	}, nil)
}

// engines replays the storage modules' keyed functions with the
// workload's keys. A kind of request the workload never makes leaves
// its metric at 0.
func (rp *replayer) engines(ks *inputKeys, out map[string]float64) error {
	th := rp.th
	m, l := rp.stk.Map, rp.stk.List
	var failed error
	keep := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	keyed := func(metric, span string, keys []uint64, fn func(i int), between func(lo, hi int)) {
		if len(keys) > 0 {
			out[metric] = rp.timed(span, fn, between)
		}
	}

	keyed("hashmap.put_ns", "hashmap.put", ks.put, func(i int) {
		keep(m.Put(th, at(ks.put, i), at(ks.putVals, i)))
	}, nil)
	keyed("hashmap.get_ns", "hashmap.get", ks.read, func(i int) {
		v, _, err := m.Get(th, at(ks.read, i))
		sink += v
		keep(err)
	}, nil)
	keyed("hashmap.getopt_ns", "hashmap.getopt", ks.read, func(i int) {
		v, _, _ := m.GetOptimistic(at(ks.read, i))
		sink += v
	}, nil)
	keyed("hashmap.inc_ns", "hashmap.inc", ks.inc, func(i int) {
		v, err := m.Inc(th, at(ks.inc, i), at(ks.incBy, i))
		sink += v
		keep(err)
	}, nil)
	keyed("hashmap.delete_ns", "hashmap.delete", ks.del, func(i int) {
		_, err := m.Delete(th, at(ks.del, i))
		keep(err)
	}, func(lo, hi int) {
		// Put the span's keys back, so the next span deletes live keys.
		for i := lo; i < hi; i++ {
			keep(m.Put(th, at(ks.del, i), 1))
		}
	})

	keyed("skiplist.put_ns", "skiplist.put", ks.zput, func(i int) {
		_, err := l.Put(at(ks.zput, i), uint64(i))
		keep(err)
	}, nil)
	// List.Get is the seek both ordered commands begin with, so it is
	// replayed over every ordered key the workload names.
	zkeys := append(append([]uint64(nil), ks.zput...), ks.zrange...)
	keyed("skiplist.get_ns", "skiplist.get", zkeys, func(i int) {
		v, _ := l.Get(at(zkeys, i))
		sink += v
	}, nil)
	keyed("skiplist.range16_ns", "skiplist.range16", ks.zrange, func(i int) {
		lo, n := at(ks.zrange, i), 0
		l.RangeBetween(lo, lo+zrangeWin, func(_, v uint64) bool {
			sink += v
			n++
			return n < zrangeLim
		})
	}, nil)

	// One section over 64 PutLocked, the way the batch pipeline drains a
	// group: the stripes deduplicated and locked in order.
	var stripes []int
	var mus []*atlas.Mutex
	keyed("atlas.section64_ns_per_op", "atlas.section64", ks.put, func(i int) {
		if i%sectionOps != 0 {
			return // the group's first call ran all of them
		}
		stripes, mus = stripes[:0], mus[:0]
		for j := i; j < i+sectionOps; j++ {
			stripes = append(stripes, m.StripeOf(at(ks.put, j)))
		}
		sort.Ints(stripes)
		uniq := stripes[:0]
		for j, s := range stripes {
			if j == 0 || s != stripes[j-1] {
				uniq = append(uniq, s)
				mus = append(mus, m.StripeMutex(s))
			}
		}
		keep(th.Section(mus, func() error {
			for _, s := range uniq {
				m.BeginStripeWrites(s)
			}
			for j := i; j < i+sectionOps; j++ {
				if err := m.PutLocked(th, at(ks.put, j), at(ks.putVals, j)); err != nil {
					return err
				}
			}
			for _, s := range uniq {
				m.EndStripeWrites(s)
			}
			return nil
		}))
	}, nil)
	return failed
}

// sectionOps is how many operations the replayed Atlas sections hold.
const sectionOps = 64

// primitives replays the calls whose cost no request stream changes: an
// empty Atlas section, logged stores, the device, the heap and the
// cluster tier's pure functions.
func (rp *replayer) primitives(out map[string]float64) error {
	th := rp.th
	heap, dev := rp.stk.Heap, rp.stk.Dev
	var failed error
	keep := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	one := []*atlas.Mutex{rp.stk.Map.StripeMutex(0)}
	out["atlas.section_ns"] = rp.timed("atlas.section", func(int) {
		_ = th.Section(one, func() error { return nil })
	}, nil)
	scratch, err := heap.Alloc(spanCalls)
	if err != nil {
		return err
	}
	base := scratch.Addr()
	out["atlas.store_ns"] = rp.timed("atlas.store", func(i int) {
		if i%sectionOps != 0 {
			return // the section's first call made all its stores
		}
		_ = th.Section(one, func() error {
			for j := 0; j < sectionOps; j++ {
				th.Store(base+nvm.Addr((i+j)%spanCalls), uint64(i))
			}
			return nil
		})
	}, nil)

	out["nvm.store_ns"] = rp.timed("nvm.store", func(i int) {
		dev.Store(base+nvm.Addr(scatter(i, spanCalls)), uint64(i))
	}, nil)
	out["nvm.load_ns"] = rp.timed("nvm.load", func(i int) {
		sink += dev.Load(base + nvm.Addr(scatter(i, spanCalls)))
	}, nil)

	// The heap: a span allocates spanCalls blocks and they are freed
	// untimed, then the other way round.
	blocks := make([]pheap.Ptr, spanCalls)
	allocAll := func(int, int) {
		for j := range blocks {
			blocks[j], err = heap.Alloc(4)
			keep(err)
		}
	}
	freeAll := func(int, int) {
		for _, p := range blocks {
			keep(heap.Free(p))
		}
	}
	out["pheap.alloc_ns"] = rp.timed("pheap.alloc", func(i int) {
		p, err := heap.Alloc(4)
		keep(err)
		blocks[i%spanCalls] = p
	}, freeAll)
	allocAll(0, 0)
	out["pheap.free_ns"] = rp.timed("pheap.free", func(i int) {
		keep(heap.Free(blocks[i%spanCalls]))
	}, allocAll)
	freeAll(0, 0)

	out["cluster.slotof_ns"] = rp.timed("cluster.slotof", func(i int) {
		sink += uint64(cluster.SlotOf(scatter(i, hashKeys)))
	}, nil)
	ring, err := cluster.NewRing([]string{"127.0.0.1:1", "127.0.0.1:2"}, 0)
	if err != nil {
		return err
	}
	out["cluster.ring_owner_ns"] = rp.timed("cluster.ring_owner", func(i int) {
		addr, slot := ring.OwnerOfKey(scatter(i, hashKeys))
		sink += uint64(len(addr) + slot)
	}, nil)
	return failed
}

// recovery replays a shard's crash: each step of the recovery path on
// its own, then the whole path as the server runs it.
func (rp *replayer) recovery(out map[string]float64) error {
	var rescue, open, recov, mapVerify, listVerify, reattach []float64
	stk := rp.stk
	dirty := func(s *stack.Stack) error {
		th, err := s.RT.NewThread()
		if err != nil {
			return err
		}
		for i := 0; i < spanCalls; i++ {
			if err := s.Map.Put(th, scatter(i, shardKeys), uint64(i)); err != nil {
				return err
			}
		}
		return s.RT.ReleaseThread(th)
	}
	for round := 0; round < recoverRounds; round++ {
		if err := dirty(stk); err != nil {
			return err
		}
		dev := stk.Dev
		dev.StopEvictor()
		ms, _ := rp.once("nvm.rescue", func() error {
			dev.Crash(nvm.CrashOptions{RescueFraction: 1})
			return nil
		})
		rescue = append(rescue, ms)
		dev.Restart()
		var heap *pheap.Heap
		ms, err := rp.once("pheap.open", func() (err error) {
			heap, err = pheap.Open(dev)
			return err
		})
		if err != nil {
			return err
		}
		open = append(open, ms)
		ms, err = rp.once("atlas.recover", func() error {
			_, err := atlas.Recover(heap)
			return err
		})
		if err != nil {
			return err
		}
		recov = append(recov, ms)
		if stk, err = stack.Reattach(dev, shardOptions()...); err != nil {
			return err
		}
		ms, err = rp.once("hashmap.verify", func() error {
			_, err := stk.Map.Verify()
			return err
		})
		if err != nil {
			return err
		}
		mapVerify = append(mapVerify, ms)
		ms, err = rp.once("skiplist.verify", func() error {
			_, err := stk.List.Verify()
			return err
		})
		if err != nil {
			return err
		}
		listVerify = append(listVerify, ms)

		if err := dirty(stk); err != nil {
			return err
		}
		ms, err = rp.once("stack.reattach", func() (err error) {
			stk, err = stk.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
			return err
		})
		if err != nil {
			return err
		}
		reattach = append(reattach, ms)
	}
	out["nvm.rescue_ms"] = median(rescue)
	out["pheap.open_ms"] = median(open)
	out["atlas.recover_ms"] = median(recov)
	out["hashmap.verify_ms"] = median(mapVerify)
	out["skiplist.verify_ms"] = median(listVerify)
	out["stack.reattach_ms"] = median(reattach)
	return nil
}
