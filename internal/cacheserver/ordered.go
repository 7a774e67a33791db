package cacheserver

import (
	"sort"
	"time"

	"tsp/internal/proto"
)

// The ordered read path. zget, zrange and zcount never enter the batch
// pipeline and never open an Atlas critical section: the skip list is
// lock-free and its bottom-level CAS is both linearization point and
// durability point (the paper's Section 4.1 recovery-observer argument
// — a reader that can run concurrently with the writer observes
// nothing a recovery observer couldn't), so a traversal is correct
// against concurrent zadd batches and against a crash landing
// mid-scan. The only lock taken is the shard's generation read lock,
// which orders the read against the administrative crash command's
// stack swap — it protects the *pointer* to the list, not the list.
//
// Ordered keys are hash-routed across shards exactly like map keys
// (see DESIGN.md §10): a zrange therefore fans out to every shard and
// k-way merges the per-shard ascending runs; a zcount sums per-shard
// counts. Both stay lock-free per shard.

// defaultRangeLimit caps a zrange that names no limit, so an
// accidental full-keyspace scan cannot stall a connection or balloon
// its reply arena.
const defaultRangeLimit = 65536

// serveOrdered answers one ordered-keyspace read (zget, zrange,
// zcount). Called from serveBatch after the pending write group
// flushed, so a pipelined zadd→zrange reads its own writes.
func (s *Server) serveOrdered(cs *connState, req *proto.Request) proto.Reply {
	start := time.Now()
	var rep proto.Reply
	var telSh *shard
	sp := req.Cmd.Spec()
	switch sp.Verb {
	case proto.VerbRead:
		telSh = s.shardOf(req.KV[0])
		v, ok := telSh.listGet(req.KV[0])
		if ok {
			rep = proto.Reply{Kind: proto.KValue, Key: req.KV[0], Val: v}
		} else {
			rep = proto.Reply{Kind: proto.KNotFound}
		}
	case proto.VerbRange:
		telSh = s.shards[0]
		limit := defaultRangeLimit
		if len(req.KV) == 3 && req.KV[2] < uint64(limit) {
			limit = int(req.KV[2])
		}
		items := s.rangeMerged(cs, req.KV[0], req.KV[1], limit)
		telSh.tel.RangeLen.ObserveValue(uint64(len(items)))
		rep = proto.Reply{Kind: proto.KRange, Items: items}
	default: // VerbCount
		telSh = s.shards[0]
		n := 0
		for _, sh := range s.shards {
			n += sh.listCount(req.KV[0], req.KV[1])
		}
		rep = proto.Reply{Kind: proto.KInt, Val: uint64(n)}
	}
	el := time.Since(start)
	telSh.tel.Server.ZGets.Inc()
	telSh.tel.ReadLatency.Observe(el)
	telSh.tel.CmdLatency.ObserveProto(cs.ptel, sp.Tel, el, 1)
	return rep
}

// listGet reads one ordered key wait-free off the shard's skip list,
// after consulting the relaxed overlay — a pending relaxed zadd/zdel
// is the key's newest logical state (read-your-writes across tiers).
func (sh *shard) listGet(key uint64) (uint64, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e, hit := sh.ovl.get(key, true); hit {
		if e.del {
			return 0, false
		}
		sh.tel.Server.ZHits.Inc()
		return e.val, true
	}
	v, ok := sh.stk.List.Get(key)
	if ok {
		sh.tel.Server.ZHits.Inc()
	}
	return v, ok
}

// listRange appends the shard's live ordered pairs in [lo, hi) to out,
// ascending, stopping once limit pairs have been appended in total.
// Pending relaxed entries merge in by key — a buffered zadd appears, a
// buffered zdel hides its key — so a range reads the same logical
// state a zget would, tier boundaries invisible.
func (sh *shard) listRange(lo, hi uint64, limit int, out []proto.Item) []proto.Item {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	type ovPair struct {
		key uint64
		e   ovEntry
	}
	var pend []ovPair
	sh.ovl.rangeList(lo, hi, func(k uint64, e ovEntry) {
		pend = append(pend, ovPair{key: k, e: e})
	})
	if len(pend) == 0 {
		sh.stk.List.RangeBetween(lo, hi, func(k, v uint64) bool {
			if len(out) >= limit {
				return false
			}
			out = append(out, proto.Item{Key: k, Val: v, Found: true})
			return len(out) < limit
		})
		return out
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].key < pend[j].key })
	pi := 0
	sh.stk.List.RangeBetween(lo, hi, func(k, v uint64) bool {
		for pi < len(pend) && pend[pi].key < k {
			p := pend[pi]
			pi++
			if !p.e.del {
				if len(out) >= limit {
					return false
				}
				out = append(out, proto.Item{Key: p.key, Val: p.e.val, Found: true})
			}
		}
		if pi < len(pend) && pend[pi].key == k {
			p := pend[pi]
			pi++
			if p.e.del {
				return len(out) < limit
			}
			v = p.e.val
		}
		if len(out) >= limit {
			return false
		}
		out = append(out, proto.Item{Key: k, Val: v, Found: true})
		return len(out) < limit
	})
	for pi < len(pend) && len(out) < limit {
		p := pend[pi]
		pi++
		if !p.e.del {
			out = append(out, proto.Item{Key: p.key, Val: p.e.val, Found: true})
		}
	}
	return out
}

// listCount counts the shard's live ordered keys in [lo, hi),
// adjusting for pending relaxed entries: a buffered zadd of an absent
// key adds one, a buffered zdel of a present key removes one.
func (sh *shard) listCount(lo, hi uint64) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := sh.stk.List.CountBetween(lo, hi)
	sh.ovl.rangeList(lo, hi, func(k uint64, e ovEntry) {
		_, has := sh.stk.List.Get(k)
		switch {
		case e.del && has:
			n--
		case !e.del && !has:
			n++
		}
	})
	return n
}

// rangeMerged produces the globally ascending [lo, hi) scan across
// every shard's skip list, capped at limit pairs. Keys are
// hash-partitioned, so each lands on exactly one shard and the
// per-shard ascending runs merge without duplicates. The result
// aliases the connection's item arena, valid until the next reply is
// built — the caller stages it immediately.
func (s *Server) rangeMerged(cs *connState, lo, hi uint64, limit int) []proto.Item {
	if limit <= 0 {
		cs.items = cs.items[:0]
		return cs.items
	}
	// Collect each shard's run (capped at limit: more can never survive
	// the merge), then k-way merge by key. cs.runs keeps the runs' buffers
	// (first half) and the merge's shrinking views of them (second half).
	n := len(s.shards)
	bufs, runs := cs.runs[:n], cs.runs[n:n]
	for i, sh := range s.shards {
		if bufs[i] = sh.listRange(lo, hi, limit, bufs[i][:0]); len(bufs[i]) > 0 {
			runs = append(runs, bufs[i])
		}
	}
	out := cs.items[:0]
	for len(out) < limit && len(runs) > 0 {
		min := 0
		for i := 1; i < len(runs); i++ {
			if runs[i][0].Key < runs[min][0].Key {
				min = i
			}
		}
		out = append(out, runs[min][0])
		runs[min] = runs[min][1:]
		if len(runs[min]) == 0 {
			runs[min] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	cs.items = out
	return out
}
