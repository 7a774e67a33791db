package proto

import (
	"bytes"
	"errors"
)

// RESP is a RESP2 adapter: enough of the Redis serialization protocol
// that redis-cli and redis-benchmark drive the server directly
// (GET/SET/MGET/MSET/INCR/INCRBY/DEL/PING/INFO/COMMAND/QUIT), plus the
// server's own admin verbs (STATS/CRASH/PROMOTE) as extensions. The
// store's keyspace is uint64→uint64, so decimal arguments are used
// verbatim and anything non-numeric is mapped through FNV-1a — stable,
// so SET then GET of the same text key round-trips.
type RESP struct{}

// Name returns the protocol's telemetry label.
func (RESP) Name() string { return "resp" }

// RESP parse errors; any of them tears the connection down, since a
// framing error leaves no request boundary to recover to.
var (
	errIncomplete  = errors.New("resp: incomplete")
	errBadHeader   = errors.New("RESP protocol error: bad header")
	errExpectBulk  = errors.New("RESP protocol error: expected bulk string")
	errBadBulkLen  = errors.New("RESP protocol error: bad bulk length")
	errBadBulkTerm = errors.New("RESP protocol error: bad bulk terminator")
)

// respHeaderMax bounds a "*<n>\r\n" / "$<n>\r\n" header; anything
// longer without a newline is garbage, not a slow client.
const respHeaderMax = 32

// respArrayMax caps declared array and bulk lengths — far above any
// legitimate request, far below an allocation-as-a-service attack.
const respArrayMax = 1 << 26

// respLen parses a "<type><decimal>\r\n" header at buf[0]. n == 0 with
// a nil error means more bytes are needed.
func respLen(buf []byte) (v int, n int, err error) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		if len(buf) > respHeaderMax {
			return 0, 0, errBadHeader
		}
		return 0, 0, nil
	}
	line := buf[1:i]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	u, ok := parseUint64(line)
	if !ok || u > respArrayMax {
		return 0, 0, errBadHeader
	}
	return int(u), i + 1, nil
}

// respBulk parses one "$<len>\r\n<payload>\r\n" element.
func respBulk(buf []byte) (payload []byte, n int, err error) {
	if len(buf) == 0 {
		return nil, 0, errIncomplete
	}
	if buf[0] != '$' {
		return nil, 0, errExpectBulk
	}
	ln, hdr, err := respLen(buf)
	if err != nil {
		if err == errBadHeader {
			err = errBadBulkLen
		}
		return nil, 0, err
	}
	if hdr == 0 {
		return nil, 0, errIncomplete
	}
	total := hdr + ln + 2
	if len(buf) < total {
		return nil, 0, errIncomplete
	}
	if buf[hdr+ln] != '\r' || buf[hdr+ln+1] != '\n' {
		return nil, 0, errBadBulkTerm
	}
	return buf[hdr : hdr+ln], total, nil
}

// respArgs streams a request's arguments without materializing an
// argv slice: array mode walks bulk elements, inline mode walks
// whitespace tokens.
type respArgs struct {
	inline *fields
	buf    []byte
	pos    int
	left   int
}

// next returns the next argument, nil when exhausted, or an error
// (errIncomplete when the stream needs more bytes).
func (a *respArgs) next() ([]byte, error) {
	if a.inline != nil {
		return a.inline.next(), nil
	}
	if a.left == 0 {
		return nil, nil
	}
	payload, n, err := respBulk(a.buf[a.pos:])
	if err != nil {
		return nil, err
	}
	a.pos += n
	a.left--
	return payload, nil
}

// drain consumes any remaining arguments so the stream stays aligned
// after an arity error.
func (a *respArgs) drain() error {
	for {
		t, err := a.next()
		if err != nil {
			return err
		}
		if t == nil {
			return nil
		}
	}
}

// Parse decodes one RESP request: an array of bulk strings, or an
// inline command line (redis-cli's fallback syntax, which also lets a
// RESP listener speak the native command set one line at a time).
func (r RESP) Parse(buf []byte, req *Request) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	req.reset()
	if buf[0] != '*' {
		i := bytes.IndexByte(buf, '\n')
		if i < 0 {
			return 0, nil
		}
		n := i + 1
		f := fields{b: buf[:i]}
		cmd := f.next()
		if cmd == nil {
			return n, nil
		}
		st := respArgs{inline: &f}
		if err := parseRESPCommand(cmd, &st, req); err != nil {
			return 0, err
		}
		return n, nil
	}
	count, hdr, err := respLen(buf)
	if err != nil {
		return 0, err
	}
	if hdr == 0 {
		return 0, nil
	}
	if count == 0 {
		return hdr, nil // empty array: no-op
	}
	st := respArgs{buf: buf, pos: hdr, left: count}
	cmd, err := st.next()
	if err != nil {
		if err == errIncomplete {
			return 0, nil
		}
		return 0, err
	}
	if err := parseRESPCommand(cmd, &st, req); err != nil {
		if err == errIncomplete {
			return 0, nil
		}
		return 0, err
	}
	return st.pos, nil
}

// numOrHash maps an argument to the store's uint64 domain: decimal
// text is used verbatim, anything else hashes through FNV-1a.
func numOrHash(b []byte) uint64 {
	if v, ok := parseUint64(b); ok {
		return v
	}
	return fnv1a(b)
}

// wrongArgs marks req with redis's arity-error wording after draining
// the remaining arguments.
func wrongArgs(st *respArgs, req *Request, name string) error {
	if err := st.drain(); err != nil {
		return err
	}
	req.bad(KErrClient, "wrong number of arguments for '"+name+"' command")
	return nil
}

// respTrailingOpts consumes a mutating command's optional trailing
// options — a durability tier and/or a seq=<n> tag, in either order,
// each at most once — plus end-of-arguments. It reports done=false
// (request marked bad, or err set) when the caller must return.
func respTrailingOpts(st *respArgs, req *Request, name string) (done bool, err error) {
	var haveDur, haveSeq bool
	for {
		t, err := st.next()
		if err != nil {
			return false, err
		}
		if t == nil {
			return true, nil
		}
		isOpt, ok := applyOpt(t, req, &haveDur, &haveSeq)
		if ok {
			continue
		}
		if isOpt {
			// req is already marked bad; realign on the request boundary.
			return false, st.drain()
		}
		return false, wrongArgs(st, req, name)
	}
}

// respVariadicTail consumes a variadic key list (DEL, MSET) whose last
// one or two arguments may be trailing options — a durability tier
// and/or a seq=<n> tag. The two most recent tokens are held back so
// trailing option tokens are recognized instead of hashing to keys; a
// key literally spelled like an option must therefore not be last (the
// same documented ambiguity the tier token always had). Keys land in
// req.KV; a malformed option marks req bad.
func respVariadicTail(st *respArgs, req *Request) error {
	var newest, older []byte
	for {
		k, err := st.next()
		if err != nil {
			return err
		}
		if k == nil {
			break
		}
		if older != nil {
			req.KV = append(req.KV, numOrHash(older))
		}
		older, newest = newest, k
	}
	var haveDur, haveSeq bool
	if newest != nil {
		if isOpt, ok := applyOpt(newest, req, &haveDur, &haveSeq); isOpt {
			if !ok {
				return nil
			}
			newest = nil
		}
	}
	// Only when the final token was an option can the one before it be
	// one too — options are strictly trailing.
	if older != nil && newest == nil {
		if isOpt, ok := applyOpt(older, req, &haveDur, &haveSeq); isOpt {
			if !ok {
				return nil
			}
			older = nil
		}
	}
	if older != nil {
		req.KV = append(req.KV, numOrHash(older))
	}
	if newest != nil {
		req.KV = append(req.KV, numOrHash(newest))
	}
	return nil
}

// parseRESPCommand decodes one command and its streamed arguments: look
// the word up in the command table (or among the alias spellings) and
// parse the arguments the row declares. It is the whole RESP grammar but
// for two hand-written argument tails.
func parseRESPCommand(cmd []byte, st *respArgs, req *Request) error {
	c, al := lookupRESP(cmd)
	sp := &Specs[c]
	if al != nil && al.sub != "" {
		// CLIENT SESSION <id> is the redis-shaped spelling of the session
		// handshake; other CLIENT subcommands are not served.
		sub, err := st.next()
		if err != nil {
			return err
		}
		if sub == nil || !eqFold(sub, al.sub) {
			if err := st.drain(); err != nil {
				return err
			}
			req.bad(KErrClient, "unknown CLIENT subcommand (try CLIENT SESSION <id>)")
			return nil
		}
	}
	switch {
	case c == CmdBad:
		if err := st.drain(); err != nil {
			return err
		}
		req.bad(KErrClient, "unknown command")
		return nil
	case c == CmdStats || c == CmdCrash:
		// One optional argument — a view word, a signed shard index —
		// and anything after it is ignored.
		arg, err := st.next()
		if err != nil {
			return err
		}
		if err := st.drain(); err != nil {
			return err
		}
		req.Cmd = c
		switch {
		case arg == nil:
		case c == CmdStats:
			req.Stats = parseStatsSub(arg)
		default:
			req.HasShard = true
			req.Shard = parseShard(arg)
		}
		return nil
	case sp.variadic():
		return parseRESPList(c, sp, st, req)
	}
	return parseRESPArgs(c, sp, al, st, req)
}

// parseRESPList decodes a variadic key (or pair) list; a mutating
// command's may end in trailing options.
func parseRESPList(c Cmd, sp *Spec, st *respArgs, req *Request) error {
	if sp.Mutates() {
		if err := respVariadicTail(st, req); err != nil || req.Cmd == CmdBad {
			return err
		}
	} else {
		for {
			k, err := st.next()
			if err != nil {
				return err
			}
			if k == nil {
				break
			}
			req.KV = append(req.KV, numOrHash(k))
		}
	}
	if len(req.KV) == 0 || len(req.KV)%sp.Stride != 0 {
		return wrongArgs(st, req, sp.RESP)
	}
	req.Cmd = c
	return nil
}

// parseRESPArgs decodes a fixed argument list. The error replies have
// always been chosen in this order: the argument count, then a mutating
// command's trailing options or the end of the request (an argument-less
// command ignores extras, as redis's PING does), then the first
// malformed argument — so values are decoded as they are read, but a bad
// one is only reported last. An alias spelling brings its own argument
// kinds and its own name for arity errors.
func parseRESPArgs(c Cmd, sp *Spec, al *alias, st *respArgs, req *Request) error {
	name, args := sp.RESP, sp.Args
	if al != nil {
		name, args = al.arity, al.args
	}
	n, bad := 0, ""
	for ; n < len(args); n++ {
		t, err := st.next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		v, ok := parseUint64(t)
		switch {
		case args[n] == ArgAddr:
			req.Addr = string(t)
			continue
		case ok:
		case args[n] == ArgInt:
			if bad == "" {
				bad = "value is not an integer or out of range"
			}
		default:
			v = fnv1a(t)
		}
		if v == 0 && args[n] == ArgID && bad == "" {
			// No hash realistically produces 0, which is reserved as "no
			// session".
			bad = "bad session id (must be >= 1)"
		}
		req.KV = append(req.KV, v)
	}
	switch {
	case n < len(args)-sp.Opt:
		return wrongArgs(st, req, name)
	case sp.Mutates():
		if done, err := respTrailingOpts(st, req, name); !done {
			return err
		}
	case len(args) == 0:
		if err := st.drain(); err != nil {
			return err
		}
	default:
		if extra, err := st.next(); err != nil {
			return err
		} else if extra != nil {
			return wrongArgs(st, req, name)
		}
	}
	if bad != "" {
		req.bad(KErrClient, bad)
		return nil
	}
	if al != nil {
		for i := len(al.args); i < len(sp.Args); i++ {
			req.KV = append(req.KV, al.fill)
		}
	}
	if c == CmdWait {
		// Redis-shaped WAIT <numreplicas> <timeout-ms>: numreplicas 0 waits
		// on the local persistent epoch frontier (the epoch current when
		// the wait executes), numreplicas > 0 for that many follower acks.
		req.WaitRepl = req.KV[0] > 0
	}
	req.Cmd = c
	return nil
}

// appendBulkUint appends v as a RESP bulk string of decimal digits.
func appendBulkUint(dst []byte, v uint64) []byte {
	var tmp [20]byte
	s := appendUint(tmp[:0], v)
	dst = append(dst, '$')
	dst = appendUint(dst, uint64(len(s)))
	dst = append(dst, '\r', '\n')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// appendBulk appends s as a RESP bulk string.
func appendBulk[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '$')
	dst = appendUint(dst, uint64(len(s)))
	dst = append(dst, '\r', '\n')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// Encode appends rep's RESP2 form to dst.
func (RESP) Encode(dst []byte, rep *Reply) []byte {
	switch rep.Kind {
	case KNone:
		return dst
	case KStored, KStoredN, KQuit:
		return append(dst, "+OK\r\n"...)
	case KValue:
		return appendBulkUint(dst, rep.Val)
	case KNotFound:
		return append(dst, "$-1\r\n"...)
	case KInt:
		dst = append(dst, ':')
		dst = appendUint(dst, rep.Val)
		return append(dst, '\r', '\n')
	case KDelete:
		n := 0
		for _, it := range rep.Items {
			if it.Found {
				n++
			}
		}
		dst = append(dst, ':')
		dst = appendUint(dst, uint64(n))
		return append(dst, '\r', '\n')
	case KMGet:
		dst = append(dst, '*')
		dst = appendUint(dst, uint64(len(rep.Items)))
		dst = append(dst, '\r', '\n')
		for _, it := range rep.Items {
			if it.Found {
				dst = appendBulkUint(dst, it.Val)
			} else {
				dst = append(dst, "$-1\r\n"...)
			}
		}
		return dst
	case KRange:
		// A flat array of key, value, key, value, ... bulk strings —
		// the shape redis's ZRANGE WITHSCORES uses.
		dst = append(dst, '*')
		dst = appendUint(dst, uint64(2*len(rep.Items)))
		dst = append(dst, '\r', '\n')
		for _, it := range rep.Items {
			dst = appendBulkUint(dst, it.Key)
			dst = appendBulkUint(dst, it.Val)
		}
		return dst
	case KRaw:
		return appendBulk(dst, rep.Msg)
	case KPong:
		return append(dst, "+PONG\r\n"...)
	case KEmpty:
		return append(dst, "*0\r\n"...)
	case KMoved:
		// Redis cluster's redirect shape: an error line clients can
		// pattern-match without a new frame type.
		dst = append(dst, "-MOVED "...)
		dst = appendUint(dst, uint64(rep.N))
		dst = append(dst, ' ')
		dst = append(dst, rep.Msg...)
		return append(dst, '\r', '\n')
	default: // error kinds
		dst = append(dst, "-ERR "...)
		dst = append(dst, rep.Msg...)
		return append(dst, '\r', '\n')
	}
}

// Resync reports the stream unrecoverable: a RESP request abandoned
// mid-frame leaves no boundary to skip to, so an oversized request
// costs the connection (its error reply still flushes first).
func (RESP) Resync(buf []byte) (int, ResyncState) {
	return 0, ResyncFatal
}

// AppendRequest appends req as a RESP array of bulk strings — the
// client side of the protocol, for benchmarks and round-trip tests.
// Requests RESP cannot express (CmdNone, CmdBad, native-only commands)
// append nothing. Only the two-integer WAIT exists on this wire: a
// native epoch target beyond "current" has no RESP form.
func (RESP) AppendRequest(dst []byte, req *Request) []byte {
	sp := req.Cmd.Spec()
	if sp.RESP == "" {
		return dst
	}
	var buf [24]byte
	tail := appendTail(buf[:0], req)
	tier := sp.Mutates() && req.Dur != DurDurable
	seq := sp.Mutates() && req.HasSeq
	n := 1 + len(req.KV)
	if tier {
		n++
	}
	if seq {
		n++
	}
	if len(tail) > 0 {
		n++
	}
	dst = append(dst, '*')
	dst = appendUint(dst, uint64(n))
	dst = append(dst, "\r\n$"...)
	dst = appendUint(dst, uint64(len(sp.RESP)))
	dst = append(dst, '\r', '\n')
	for i := 0; i < len(sp.RESP); i++ {
		dst = append(dst, sp.RESP[i]-('a'-'A'))
	}
	dst = append(dst, '\r', '\n')
	for _, v := range req.KV {
		dst = appendBulkUint(dst, v)
	}
	if tier {
		dst = appendBulk(dst, req.Dur.String())
	}
	if seq {
		var tmp [28]byte
		dst = appendBulk(dst, appendUint(append(tmp[:0], "seq="...), req.Seq))
	}
	if len(tail) > 0 {
		dst = appendBulk(dst, tail)
	}
	return dst
}
