package main

import (
	"bufio"
	"cmp"
	"fmt"
	"net"
	"strconv"
	"strings"
)

// keyHist is one key's recorded history since its last check, under
// the campaigns' one discipline: a key's values strictly increase in
// issue order, so "survives" is a lower bound on the one value a read
// returns. After a crash whose receipt names frontier p, check accepts
// a read only when it is
//
//   - at least every value that must survive: a durable ack, a
//     barrier-covered ack, a relaxed ack stamped at or below p, and the
//     last check's read (durable linearizability for durable writes,
//     buffered durable linearizability for relaxed ones); and
//   - a value the history explains: the last check's read, an ack since
//     then, or the one issue still in flight.
//
// Absent reads as 0, which only an empty history explains.
type keyHist struct {
	key    uint64
	floor  uint64 // the last check's read, or a later durable or covered ack
	acks   []ack  // relaxed acks above floor, in issue order
	issued uint64 // the issue in flight: sent, not yet acked (0: none)
}

// ack is one acknowledged value and its receipt's epoch (0: durable).
type ack struct{ val, epoch uint64 }

func (h *keyHist) issue(v uint64) { h.issued = v }

// ack records v's acknowledgement: durable when epoch is 0, else a
// relaxed ack stamped `@<epoch>`, or an unreplicated one.
func (h *keyHist) ack(v, epoch uint64) {
	h.issued = 0
	if epoch == 0 {
		h.floor, h.acks = v, h.acks[:0]
		return
	}
	h.acks = append(h.acks, ack{v, epoch})
}

// cover records a `wait` answered after every ack so far: all of them
// must now survive.
func (h *keyHist) cover() {
	if n := len(h.acks); n > 0 {
		h.floor, h.acks = h.acks[n-1].val, h.acks[:0]
	}
}

// check holds got, the key's value read after a crash with frontier p,
// to the history, then starts a new history at it.
func (h *keyHist) check(got, p uint64) error {
	need, explained := h.floor, got == h.floor || got == h.issued
	for _, a := range h.acks {
		if a.epoch <= p {
			need = a.val
		}
		explained = explained || got == a.val
	}
	if got < need {
		return fmt.Errorf("key %#x: read %d, but %d must survive (frontier %d)", h.key, got, need, p)
	}
	if !explained {
		return fmt.Errorf("key %#x: read %d was never acked or in flight (floor %d, %d relaxed acks, issued %d)",
			h.key, got, h.floor, len(h.acks), h.issued)
	}
	h.floor, h.acks, h.issued = got, h.acks[:0], 0
	return nil
}

const delta = 3 // every sessioned increment's delta

// writer is one session's increments on one key, each sent twice (the
// lost-ack retry). Seq-tagged writes are durable on every tier; beyond
// that, each ack is the previous one plus delta (nothing lost or applied
// twice) and each resend answers its first ack (detectability).
type writer struct {
	keyHist
	c              *client
	sess, seq      uint64
	cmd, get, tier string // "incr"/"get" or "zincr"/"zget"; "" or " relaxed"
}

// send issues the next seq and its resend.
func (w *writer) send() error {
	w.seq++
	w.issue(w.floor + delta)
	first, err := w.request(w.c)
	if err != nil {
		return err
	}
	resent, err := w.request(w.c)
	if err != nil {
		return err
	}
	return w.acked(first, resent)
}

// acked holds the current seq's first ack and its resend's answer to
// detectability, and records the ack.
func (w *writer) acked(first, resent uint64) error {
	if first != w.issued {
		return fmt.Errorf("session %d seq %d%s: ack %d, want %d (an acked write lost or applied twice)",
			w.sess, w.seq, w.tier, first, w.issued)
	}
	if resent != first {
		return fmt.Errorf("session %d seq %d%s: resend answered %d, first ack %d", w.sess, w.seq, w.tier, resent, first)
	}
	w.ack(first, 0)
	return nil
}

// resend repeats the current seq on c, which must answer its first ack.
func (w *writer) resend(c *client, where string) error {
	v, err := w.request(c)
	if err == nil && v != w.floor {
		err = fmt.Errorf("session %d seq %d%s: resend %s answered %d, first ack %d", w.sess, w.seq, w.tier, where, v, w.floor)
	}
	return err
}

// request sends the current seq on c and returns the value it answers.
func (w *writer) request(c *client) (uint64, error) {
	rep, err := c.cmd("%s %d %d seq=%d%s", w.cmd, w.key, delta, w.seq, w.tier)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(rep, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("session %d seq %d: ack %q", w.sess, w.seq, rep)
	}
	return v, nil
}

// client is one line-protocol connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

// conns dials a cycle's connections and closes them all at its end.
type conns []*client

func (cs *conns) dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, r: bufio.NewReader(conn)}
	*cs = append(*cs, c)
	return c, nil
}

func (cs *conns) close() {
	for _, c := range *cs {
		c.conn.Close()
	}
}

// line reads one reply line.
func (c *client) line() (string, error) {
	rep, err := c.r.ReadString('\n')
	return strings.TrimRight(rep, "\r\n"), err
}

// cmd sends one request line and returns its reply line.
func (c *client) cmd(format string, args ...any) (string, error) {
	if _, err := fmt.Fprintf(c.conn, format+"\r\n", args...); err != nil {
		return "", err
	}
	return c.line()
}

// expect sends one request line whose reply must start with prefix.
func (c *client) expect(prefix, format string, args ...any) (string, error) {
	rep, err := c.cmd(format, args...)
	if err == nil && !strings.HasPrefix(rep, prefix) {
		err = fmt.Errorf("%s: %q", fmt.Sprintf(format, args...), rep)
	}
	return rep, err
}

// crash power-fails every shard and returns the receipt's frontier.
func (c *client) crash() (uint64, error) {
	const receipt = "OK RECOVERED EPOCH "
	rep, err := c.expect(receipt, "crash")
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(strings.TrimPrefix(rep, receipt), 10, 64)
}

// stat returns the value of the `stats` row name.
func (c *client) stat(name string) (v uint64, err error) {
	err = fmt.Errorf("stats: no %s row", name)
	rep, rerr := c.cmd("stats")
	for ; rerr == nil && rep != "END"; rep, rerr = c.line() {
		if s, ok := strings.CutPrefix(rep, "STAT "+name+" "); ok {
			v, err = strconv.ParseUint(s, 10, 64)
		}
	}
	return v, cmp.Or(rerr, err)
}

// read returns key's value through get ("get" or "zget"), 0 when absent.
func (c *client) read(get string, key uint64) (uint64, error) {
	rep, err := c.cmd("%s %d", get, key)
	if err != nil || rep == "NOT_FOUND" {
		return 0, err
	}
	f := strings.Fields(rep)
	if len(f) != 3 || f[0] != "VALUE" || f[1] != strconv.FormatUint(key, 10) {
		return 0, fmt.Errorf("%s %d: %q", get, key, rep)
	}
	return strconv.ParseUint(f[2], 10, 64)
}

// set writes v under h's key on tier ("" or " relaxed") and records the
// ack: STORED for durable, a `@<epoch>` receipt for relaxed.
func (c *client) set(h *keyHist, v uint64, tier string) error {
	h.issue(v)
	rep, err := c.cmd("set %d %d%s", h.key, v, tier)
	i := strings.LastIndexByte(rep, '@')
	switch e, perr := strconv.ParseUint(rep[i+1:], 10, 64); {
	case err != nil:
		return err
	case tier == "" && strings.HasPrefix(rep, "STORED"):
		h.ack(v, 0)
	case tier != "" && i >= 0 && perr == nil:
		h.ack(v, e)
	default:
		return fmt.Errorf("set %d %d%s: %q", h.key, v, tier, rep)
	}
	return nil
}
