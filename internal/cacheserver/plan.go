package cacheserver

import (
	"errors"

	"tsp/internal/repl"
)

// The commit plan. Everything a submitter wants committed between two
// true sequence points — a connection's pipelined run of data commands,
// one replicated group, one snapshot chunk — compiles into ONE plan:
// per owner shard (a leg), the ops routed there in program order, cut
// into an ordered list of commit groups. Runs of plain commands' ops
// form one group each; a seq-tagged durable command whose keys live on
// one shard forms a sessioned group of its own. runPlan hands every
// leg's list to its shard before waiting on any and waits once per
// shard, so a burst costs each shard it touches one submission — and,
// the drain lock willing, one section — however many commands and
// sequence numbers it carried.
//
// Per-shard FIFO is per-key program order, which is the whole ordering
// contract: a key lives on one shard, so its ops commit in the order
// they were sent and a read inside the run sees the writes before it.
// No order is promised between keys on different shards.
//
// A plan is scratch on its connState, reused burst after burst: once
// its slices have grown, building and running one allocates nothing
// (a list that has to queue allocates its completion channel).

// opRef locates one op inside a plan: its leg (shard index) and its
// offset in that leg's ops.
type opRef struct{ leg, at int32 }

// leg is one shard's share of a plan: ops in program order (results
// land in place), cut into groups. Until seal only a group's LENGTH is
// meaningful — appends may still move ops' array — and open is where
// the not-yet-cut plain run begins. cmd/cmdAt remember which command
// added ops last and where they begin: the boundary an overflowing run
// is cut at. nsess counts sessioned groups (see planSessioned); marks
// and floor (follower apply only) ride the last group.
type leg struct {
	ops        []batchOp
	groups     []batchReq
	open       int
	cmd, cmdAt int
	nsess      int
	marks      []repl.SessRec
	floor      uint64
	used       bool
}

// plan is one commit plan under construction. max is batchMax (plain
// runs are cut to fit one section), used the legs touched, cmd the
// commands begun, muts the ops that are not plain gets.
type plan struct {
	max  int
	legs []leg
	used []int32
	cmd  int
	muts int
}

// reset empties the plan, keeping its scratch.
func (p *plan) reset() {
	for _, li := range p.used {
		l := &p.legs[li]
		*l = leg{ops: l.ops[:0], groups: l.groups[:0], marks: l.marks[:0]}
	}
	p.used, p.cmd, p.muts = p.used[:0], 0, 0
}

func (p *plan) leg(sh *shard) *leg {
	l := &p.legs[sh.idx]
	if !l.used {
		l.used = true
		p.used = append(p.used, int32(sh.idx))
	}
	return l
}

// add routes one plain op to its owner shard; first marks the start of a
// command, whose ops stay in one group on each shard they reach. A run
// that outgrows one section is cut where the current command began —
// never inside a command, unless the command alone is wider than a
// section (then shard.drain chunks it).
func (p *plan) add(sh *shard, op batchOp, first bool) opRef {
	if first {
		p.cmd++
	}
	l := p.leg(sh)
	if l.cmd != p.cmd {
		l.cmd, l.cmdAt = p.cmd, len(l.ops)
	}
	if op.kind != opGet {
		p.muts++
	}
	l.ops = append(l.ops, op)
	if len(l.ops)-l.open > p.max {
		l.cut(l.cmdAt)
	}
	return opRef{int32(sh.idx), int32(len(l.ops) - 1)}
}

// cut closes the open plain run at end, if it holds anything.
func (l *leg) cut(end int) {
	if end > l.open {
		l.groups = append(l.groups, batchReq{ops: l.ops[l.open:end]})
		l.open = end
	}
}

// addSess routes one seq-tagged command's ops — all owned by sh — as
// the sessioned group g, and returns where the first op landed and the
// group's index in the leg.
func (p *plan) addSess(sh *shard, ops []batchOp, g batchReq) (opRef, int) {
	l := p.leg(sh)
	l.cut(len(l.ops))
	p.muts += len(ops)
	l.ops = append(l.ops, ops...)
	g.ops = l.ops[l.open:]
	l.groups = append(l.groups, g)
	l.open = len(l.ops)
	l.nsess++
	return opRef{int32(sh.idx), int32(l.open - len(ops))}, len(l.groups) - 1
}

func (p *plan) op(r opRef) *batchOp { return &p.legs[r.leg].ops[r.at] }

// seal finishes the leg for submission: close the open run, point every
// group at its final span of ops, chain the groups, hang marks and
// floor on the last (a leg used only for those gets one empty group).
func (l *leg) seal() *batchReq {
	l.cut(len(l.ops))
	if len(l.groups) == 0 {
		l.groups = append(l.groups, batchReq{})
	}
	off := 0
	for i := range l.groups {
		g := &l.groups[i]
		g.ops = l.ops[off : off+len(g.ops)]
		off += len(g.ops)
		if i > 0 {
			l.groups[i-1].next = g
		}
	}
	last := &l.groups[len(l.groups)-1]
	last.marks, last.floor = l.marks, l.floor
	return &l.groups[0]
}

// runPlan commits the plan: every leg's list is submitted before any is
// waited for, so the shards' sections overlap instead of convoying on
// one another's drain locks. Results stay in the legs until reset.
func (s *Server) runPlan(p *plan) {
	for _, li := range p.used {
		s.shards[li].submit(p.legs[li].seal())
	}
	for _, li := range p.used {
		l := &p.legs[li]
		l.groups[len(l.groups)-1].wait()
	}
}

// err joins every op's error (nil when all succeeded).
func (p *plan) err() error {
	var errs []error
	for _, li := range p.used {
		for i := range p.legs[li].ops {
			if err := p.legs[li].ops[i].err; err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
