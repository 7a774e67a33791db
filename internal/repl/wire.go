// Package repl is the preventive replication tier the planner
// prescribes for site disasters: asynchronous primary→follower
// streaming of committed operation groups over TCP.
//
// The paper's Section 3 taxonomy is explicit that a site disaster
// admits no timely rescue — there is no just-in-time action that moves
// data off a machine that no longer exists — so procrastination fails
// and only prevention satisfies the data-safety requirement: the data
// must already be somewhere else when the failure hits.
// core.DerivePlan derives exactly that verdict (`tspplan -hardware
// geo`); this package executes it. A Primary tails the cache server's
// committed batches — the replication unit is the crash-atomic OCS
// group the batch pipeline already commits as one Atlas critical
// section — and streams them over a length-prefixed wire protocol to a
// Follower, which applies them through the same stack API and can be
// promoted to serve writes after the primary's site is lost.
//
// The stream carries resolved effects, not requests: an incr is
// replicated as an absolute set of the value it produced, so replaying
// any suffix of the log over a snapshot converges (last-writer-wins per
// key, and the primary serializes all mutations per shard before
// assigning sequence numbers). Catch-up on (re)connect is driven by a
// bounded in-memory Log keyed by (generation, sequence): a follower
// whose position is inside the retained window streams the missing
// groups; one behind the window — or on the wrong generation, as after
// a primary power failure — receives a state transfer (Begin, State
// frames, End) and then streams from the transfer's position.
//
// The cache server's slot migration is the same state transfer
// filtered to one slot's keys, followed by the filtered log suffix and
// only then End: it writes with the same Writer and reads with the same
// Reader, so both sessions share one framing, one set of bounds checks
// and one convergence argument. Only who dials whom, and what End
// commits (a position or a slot's ownership), differ.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// ProtocolMagic identifies the replication stream and its version; a
// hello frame carrying anything else is rejected. Bump the trailing
// digit on any incompatible framing change.
const ProtocolMagic uint64 = 0x5453_5052_4550_4C35 // "TSPREPL5"

// Frame types, the first payload byte of every frame.
const (
	// FrameHello is the follower's opening frame: magic, then the
	// (generation, sequence) position it has applied through.
	FrameHello = byte(iota + 1)
	// FrameSnapshotBegin announces a state transfer and carries the
	// (generation, sequence) position the transfer is consistent through.
	// The receiver wipes the keys the transfer replaces.
	FrameSnapshotBegin
	// FrameState carries a bounded slice of a state transfer: absolute
	// sets, session dedup records (so a promoted follower or a slot's new
	// owner inherits the exactly-once window), and the sender's
	// evicted-seq floor, in FrameGroup's op and mark records.
	FrameState
	// FrameSnapshotEnd closes the state transfer; the follower commits
	// the position from the matching FrameSnapshotBegin.
	FrameSnapshotEnd
	// FrameGroup carries one committed operation group with its sequence
	// number.
	FrameGroup
	// FrameAck is the follower's cumulative acknowledgement of the
	// sequence number it has applied through.
	FrameAck
)

// maxFrame bounds a frame's payload so a corrupt length prefix cannot
// ask either side to allocate unbounded memory. State frames and
// groups are sized well inside it.
const maxFrame = 1 << 24

// snapshotChunkPairs bounds how many records (ops plus marks) one
// FrameState carries.
const snapshotChunkPairs = 4096

// Op is one replicated effect: an absolute set of Key to Val, or — when
// Del is true — a delete of Key. Increments never appear on the wire;
// the primary resolves them to the value they produced, which is what
// makes suffix replay over a snapshot converge. A state transfer's
// entries are Ops too (sets only).
type Op struct {
	// Del selects delete; otherwise the op is an absolute set.
	Del bool
	// List routes the op to the ordered keyspace (the skip list)
	// instead of the hash map.
	List bool
	// Key is the affected key.
	Key uint64
	// Val is the value stored (ignored for deletes).
	Val uint64
}

// SessRec is one session dedup record on the wire: the highest request
// sequence the primary applied for the session, the reply payload a
// retry of that request must be answered with, and the witness key the
// record is routed by (shardOf(Key) on whichever server holds it — the
// same place the retried command's dedup check will look). The same
// shape rides committed groups (as marks witnessing the group's
// sessioned requests) and state frames.
type SessRec struct {
	// Sess is the client session id (ids start at 1).
	Sess uint64
	// Seq is the highest request sequence applied for the session.
	Seq uint64
	// Payload reconstructs the original reply on a suppressed retry
	// (e.g. an incr's resolved value).
	Payload uint64
	// Key is the witness key the record is routed and stored by.
	Key uint64
}

// Group is one replication unit: the mutations one committed Atlas
// critical section (a drained batch group) produced, in commit order.
type Group struct {
	// Seq is the group's position in the primary's log; consecutive
	// groups have consecutive sequence numbers within a generation.
	Seq uint64
	// Epoch is the durability epoch the primary stamped on the group's
	// relaxed-tier writes when it committed them (0 when the group
	// carried only durable-tier effects, or the epoch clock is off). A
	// follower records the highest epoch it has applied so a promoted
	// replica can report how far the relaxed frontier had propagated.
	Epoch uint64
	// Ops are the group's resolved effects in commit order.
	Ops []Op
	// Marks are the session dedup records the group's sessioned requests
	// committed alongside Ops. A
	// follower applies each mark atomically with the group so its dedup
	// window never trails state it has already applied.
	Marks []SessRec
}

// Msg is one decoded frame, tagged by Frame. Only the fields its frame
// type carries are set: Gen and Seq for FrameHello, FrameSnapshotBegin
// and FrameAck; Seq, Epoch, Ops and Marks for FrameGroup; Ops, Marks
// and Floor for FrameState; nothing for FrameSnapshotEnd.
type Msg struct {
	// Frame is the frame type.
	Frame byte
	// Gen and Seq are a position; Seq is also a group's sequence.
	Gen, Seq uint64
	// Epoch is a group's durability epoch.
	Epoch uint64
	// Floor is a state frame's evicted-seq floor (0: none).
	Floor uint64
	// Ops and Marks are a group's or a state frame's records.
	Ops   []Op
	Marks []SessRec
}

// Writer emits frames onto a stream through a buffer. Hello, End and
// Ack flush; the others leave their frame buffered until the next
// flushing call or Flush.
type Writer struct {
	w *bufio.Writer
	b []byte // the frame being built, length prefix first
}

// NewWriter wraps w for frame output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// start begins a frame of type t in the scratch buffer, leaving room
// for the length prefix, followed by the frame's fixed words.
func (w *Writer) start(t byte, words ...uint64) {
	w.b = append(w.b[:0], 0, 0, 0, 0, t)
	for _, v := range words {
		w.b = binary.LittleEndian.AppendUint64(w.b, v)
	}
}

// send patches the length prefix into the built frame and buffers it.
func (w *Writer) send() error {
	binary.LittleEndian.PutUint32(w.b, uint32(len(w.b)-4))
	_, err := w.w.Write(w.b)
	return err
}

// sendFlush sends the built frame and flushes.
func (w *Writer) sendFlush() error {
	if err := w.send(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Hello sends the follower's opening frame.
func (w *Writer) Hello(gen, seq uint64) error {
	w.start(FrameHello, ProtocolMagic, gen, seq)
	return w.sendFlush()
}

// Begin announces a state transfer consistent through (gen, seq).
func (w *Writer) Begin(gen, seq uint64) error {
	w.start(FrameSnapshotBegin, gen, seq)
	return w.send()
}

// State emits ops, then marks, with floor on the first frame, in as
// many FrameState frames as snapshotChunkPairs requires. Nothing is
// sent when all three are empty.
func (w *Writer) State(ops []Op, marks []SessRec, floor uint64) error {
	for len(ops) > 0 || len(marks) > 0 || floor > 0 {
		n := min(len(ops), snapshotChunkPairs)
		m := min(len(marks), snapshotChunkPairs-n)
		w.start(FrameState, floor)
		w.records(ops[:n], marks[:m])
		if err := w.send(); err != nil {
			return err
		}
		ops, marks, floor = ops[n:], marks[m:], 0
	}
	return nil
}

// Group emits one committed operation group.
func (w *Writer) Group(g Group) error {
	w.start(FrameGroup, g.Seq, g.Epoch)
	w.records(g.Ops, g.Marks)
	return w.send()
}

// End closes the state transfer and flushes.
func (w *Writer) End() error {
	w.start(FrameSnapshotEnd)
	return w.sendFlush()
}

// Ack sends a cumulative acknowledgement of (gen, seq) and flushes. The
// generation makes acks unambiguous across a re-snapshot — a primary
// counting acks toward a `wait repl` barrier must not credit a
// stale-generation ack against a current-generation sequence.
func (w *Writer) Ack(gen, seq uint64) error {
	w.start(FrameAck, gen, seq)
	return w.sendFlush()
}

// Flush pushes buffered frames to the wire.
func (w *Writer) Flush() error { return w.w.Flush() }

// Record kind bits of an op record: bit 0 is delete, bit 1 routes to
// the ordered keyspace.
const (
	kindDel  = byte(1 << 0)
	kindList = byte(1 << 1)
)

// Wire sizes of one op record (kind, key, value) and one mark record.
const (
	opBytes   = 17
	markBytes = 32
)

// records appends the body FrameGroup and FrameState share: op count,
// mark count, the op records, then the mark records.
func (w *Writer) records(ops []Op, marks []SessRec) {
	b := binary.LittleEndian.AppendUint64(w.b, uint64(len(ops)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(marks)))
	for _, op := range ops {
		kind := byte(0)
		if op.Del {
			kind |= kindDel
		}
		if op.List {
			kind |= kindList
		}
		b = append(b, kind)
		b = binary.LittleEndian.AppendUint64(b, op.Key)
		b = binary.LittleEndian.AppendUint64(b, op.Val)
	}
	for _, m := range marks {
		for _, v := range [4]uint64{m.Sess, m.Seq, m.Payload, m.Key} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	w.b = b
}

// Reader decodes frames from a stream. It never allocates from a
// count it has not bounded: a frame is at most maxFrame bytes, and a
// frame's record counts must account for exactly the bytes it holds.
type Reader struct {
	r   *bufio.Reader
	buf []byte // the last frame's payload, reused
}

// NewReader wraps r for frame input.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads and decodes one frame. io.EOF surfaces unwrapped when the
// stream ends cleanly between frames; a frame cut short is
// io.ErrUnexpectedEOF, and an unknown frame type is an error.
func (r *Reader) Next() (Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return Msg{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return Msg{}, fmt.Errorf("repl: frame length %d out of range", n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	p := r.buf[:n]
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Msg{}, err
	}
	f := &frameReader{b: p, off: 1}
	m := Msg{Frame: p[0]}
	switch m.Frame {
	case FrameHello:
		if magic := f.u64(); f.err == nil && magic != ProtocolMagic {
			return m, fmt.Errorf("repl: bad hello magic %#x", magic)
		}
		m.Gen, m.Seq = f.u64(), f.u64()
	case FrameSnapshotBegin, FrameAck:
		m.Gen, m.Seq = f.u64(), f.u64()
	case FrameState:
		m.Floor = f.u64()
		m.Ops, m.Marks = f.records()
	case FrameGroup:
		m.Seq, m.Epoch = f.u64(), f.u64()
		m.Ops, m.Marks = f.records()
	case FrameSnapshotEnd:
	default:
		return m, fmt.Errorf("repl: unknown frame type %d", m.Frame)
	}
	return m, f.err
}

// frameReader decodes the fixed-width fields of a received payload.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (f *frameReader) u64() uint64 {
	if f.err != nil {
		return 0
	}
	if f.off+8 > len(f.b) {
		f.err = fmt.Errorf("repl: truncated frame (%d bytes, need %d)", len(f.b), f.off+8)
		return 0
	}
	v := binary.LittleEndian.Uint64(f.b[f.off:])
	f.off += 8
	return v
}

// records decodes the op and mark records FrameGroup and FrameState
// share. The counts must account for exactly the rest of the frame.
func (f *frameReader) records() ([]Op, []SessRec) {
	n, nm := f.u64(), f.u64()
	if f.err != nil {
		return nil, nil
	}
	rest := uint64(len(f.b) - f.off)
	if n > rest/opBytes || nm > rest/markBytes || n*opBytes+nm*markBytes != rest {
		f.err = fmt.Errorf("repl: %d ops and %d marks do not fill a %d-byte body", n, nm, rest)
		return nil, nil
	}
	ops := make([]Op, n)
	for i := range ops {
		kind := f.b[f.off]
		f.off++
		ops[i] = Op{Del: kind&kindDel != 0, List: kind&kindList != 0, Key: f.u64(), Val: f.u64()}
	}
	var marks []SessRec
	if nm > 0 {
		marks = make([]SessRec, nm)
		for i := range marks {
			marks[i] = SessRec{Sess: f.u64(), Seq: f.u64(), Payload: f.u64(), Key: f.u64()}
		}
	}
	return ops, marks
}
