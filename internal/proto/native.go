package proto

import "bytes"

// Native is the server's original line-oriented text protocol, kept
// wire-compatible with the pre-codec server: the same commands, the
// same reply spellings, the same error strings. One request is one
// CRLF (or LF) terminated line; fields are space/tab separated; keys
// and values are unsigned decimal integers.
type Native struct{}

// Name returns the protocol's telemetry label.
func (Native) Name() string { return "native" }

// nativeSep reports whether c separates fields (the ASCII subset of
// strings.Fields' separators — the protocol is ASCII).
func nativeSep(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// fields iterates a line's whitespace-separated tokens without
// allocating.
type fields struct{ b []byte }

// next returns the next token, or nil when the line is exhausted.
func (f *fields) next() []byte {
	for len(f.b) > 0 && nativeSep(f.b[0]) {
		f.b = f.b[1:]
	}
	if len(f.b) == 0 {
		return nil
	}
	j := 0
	for j < len(f.b) && !nativeSep(f.b[j]) {
		j++
	}
	t := f.b[:j]
	f.b = f.b[j:]
	return t
}

// reset clears a request slot for reuse, keeping KV's backing array.
func (r *Request) reset() {
	r.Cmd = CmdNone
	r.KV = r.KV[:0]
	r.Stats = StatsAggregate
	r.Shard = 0
	r.HasShard = false
	r.Bad = KNone
	r.BadMsg = ""
	r.Dur = DurDurable
	r.WaitRepl = false
	r.Seq = 0
	r.HasSeq = false
	r.Addr = ""
}

// bad marks the request malformed with the error reply to answer.
func (r *Request) bad(kind Kind, msg string) {
	r.Cmd = CmdBad
	r.Bad = kind
	r.BadMsg = msg
}

// Parse decodes the first complete line in buf. Whitespace-only lines
// decode as CmdNone (consumed silently, like the old handler's empty-
// line skip); malformed commands decode as CmdBad carrying the
// pre-codec error strings.
func (Native) Parse(buf []byte, req *Request) (int, error) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return 0, nil
	}
	n := i + 1
	req.reset()
	f := fields{b: buf[:i]}
	cmd := f.next()
	if cmd == nil {
		return n, nil
	}
	parseNativeCommand(cmd, &f, req)
	return n, nil
}

// ParseEOF decodes trailing bytes at EOF as a final unterminated line
// — the same grace bufio.Scanner extended the old handler.
func (Native) ParseEOF(buf []byte, req *Request) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	req.reset()
	f := fields{b: buf}
	if cmd := f.next(); cmd != nil {
		parseNativeCommand(cmd, &f, req)
	}
	return len(buf), nil
}

// parseDur recognizes a durability-tier token. Mutating commands accept
// one as an optional trailing argument in both adapters.
func parseDur(t []byte) (Durability, bool) {
	switch {
	case eqFold(t, "durable"):
		return DurDurable, true
	case eqFold(t, "relaxed"):
		return DurRelaxed, true
	case eqFold(t, "fire"):
		return DurFire, true
	}
	return DurDurable, false
}

// badOptMsg is the error text for an unrecognized (or duplicated)
// trailing option token.
const badOptMsg = "bad option (durable|relaxed|fire|seq=<n>)"

// badSeqMsg is the error text for a malformed, zero, or duplicated
// request sequence number.
const badSeqMsg = "bad seq (must be an integer >= 1, at most once)"

// seqOpt recognizes a `seq=<n>` trailing token. isSeq reports that the
// token carried the seq= prefix; ok that its value parsed and n >= 1.
func seqOpt(t []byte) (n uint64, isSeq, ok bool) {
	if len(t) < 4 || !eqFold(t[:4], "seq=") {
		return 0, false, false
	}
	v, okv := parseUint64(t[4:])
	return v, true, okv && v > 0
}

// applyOpt folds one trailing-option token — a durability tier or a
// seq=<n> tag — into req. isOpt reports whether t was an option token
// at all; when it was but its value was bad or duplicated, req is
// marked bad and ok is false. Both adapters share it.
func applyOpt(t []byte, req *Request, haveDur, haveSeq *bool) (isOpt, ok bool) {
	if d, okd := parseDur(t); okd {
		if *haveDur {
			req.bad(KErrClient, badOptMsg)
			return true, false
		}
		*haveDur = true
		req.Dur = d
		return true, true
	}
	if n, isSeq, oks := seqOpt(t); isSeq {
		if !oks || *haveSeq {
			req.bad(KErrClient, badSeqMsg)
			return true, false
		}
		*haveSeq = true
		req.Seq = n
		req.HasSeq = true
		return true, true
	}
	return false, false
}

// parseTrailingOpts consumes a mutating command's optional trailing
// options — a durability tier and/or a seq=<n> tag, in either order,
// each at most once — plus end-of-line, reporting false (with the
// request marked bad) on anything else.
func parseTrailingOpts(f *fields, req *Request) bool {
	return parseOptsFrom(f.next(), f, req)
}

// parseOptsFrom is parseTrailingOpts with the first token already in
// hand — mset's argument loop stops on the first non-numeric token.
func parseOptsFrom(t []byte, f *fields, req *Request) bool {
	var haveDur, haveSeq bool
	for ; t != nil; t = f.next() {
		isOpt, ok := applyOpt(t, req, &haveDur, &haveSeq)
		if !ok {
			if !isOpt {
				req.bad(KErrClient, badOptMsg)
			}
			return false
		}
	}
	return true
}

// parseNativeCommand decodes one tokenized command line into req: look
// the word up in the command table and parse the arguments the row
// declares. It is the whole native grammar but for three hand-written
// argument tails.
func parseNativeCommand(cmd []byte, f *fields, req *Request) {
	c := lookupNative(cmd)
	sp := &Specs[c]
	switch {
	case c == CmdBad:
		req.bad(KErrProto, "unknown command")
	case c == CmdWait:
		parseNativeWait(sp, f, req)
	case c == CmdStats:
		req.Cmd = CmdStats
		if arg := f.next(); arg != nil && f.next() == nil {
			req.Stats = parseStatsSub(arg)
		}
	case c == CmdCrash:
		arg := f.next()
		if arg != nil && f.next() != nil {
			req.bad(KErrClient, sp.Usage)
			return
		}
		req.Cmd = CmdCrash
		if arg != nil {
			req.HasShard = true
			req.Shard = parseShard(arg)
		}
	case sp.variadic():
		parseNativeList(c, sp, f, req)
	default:
		parseNativeArgs(c, sp, f, req)
	}
}

// parseNativeArgs decodes a fixed argument list. The error texts have
// always been chosen in this order: the argument count, then the
// trailing options of a mutating command or (unless the row is lax) the
// end of the line, then the first malformed argument — so the numbers
// are parsed as they are read, but a bad one is only reported last.
func parseNativeArgs(c Cmd, sp *Spec, f *fields, req *Request) {
	n, badAt := 0, -1
	for ; n < len(sp.Args); n++ {
		t := f.next()
		if t == nil {
			break
		}
		if sp.Args[n] == ArgAddr {
			req.Addr = string(t)
			continue
		}
		v, ok := parseUint64(t)
		if (!ok || (v == 0 && sp.Args[n] == ArgID)) && badAt < 0 {
			badAt = n
		}
		req.KV = append(req.KV, v)
	}
	required := len(sp.Args) - sp.Opt
	ok := n >= required
	if ok && sp.Mutates() {
		if !parseTrailingOpts(f, req) {
			return
		}
	} else if ok && !sp.Lax {
		if t := f.next(); t != nil {
			ok = eqFold(t, sp.Word) && f.next() == nil
		}
	}
	switch {
	case !ok && sp.Usage == "":
		req.bad(KErrProto, "unknown command")
	case !ok:
		req.bad(KErrClient, sp.Usage)
	case badAt >= required:
		req.bad(KErrClient, sp.BadOpt)
	case badAt >= 0:
		req.bad(KErrClient, sp.BadArg)
	default:
		req.Cmd = c
	}
}

// parseNativeList decodes a variadic key (or pair) list. On a mutating
// command the first non-numeric token ends the list: it and the rest are
// the trailing options.
func parseNativeList(c Cmd, sp *Spec, f *fields, req *Request) {
	for t := f.next(); t != nil; t = f.next() {
		v, ok := parseUint64(t)
		if !ok {
			if !sp.Mutates() {
				req.bad(KErrClient, sp.BadArg)
				return
			}
			if !parseOptsFrom(t, f, req) {
				return
			}
			break
		}
		req.KV = append(req.KV, v)
	}
	if len(req.KV) == 0 || len(req.KV)%sp.Stride != 0 {
		req.bad(KErrClient, sp.Usage)
		return
	}
	req.Cmd = c
}

// parseNativeWait decodes wait [epoch [timeout-ms]], which blocks on the
// persistent epoch frontier (epoch 0 or none = the epoch current at
// execution), and wait repl [timeout-ms], which blocks on one follower
// ack instead.
func parseNativeWait(sp *Spec, f *fields, req *Request) {
	var target, timeout uint64
	a := f.next()
	ok := true
	switch {
	case a == nil:
	case eqFold(a, "repl"):
		req.WaitRepl = true
		target = 1
	default:
		target, ok = parseUint64(a)
	}
	if t := f.next(); ok && t != nil {
		timeout, ok = parseUint64(t)
		ok = ok && f.next() == nil
	}
	if !ok {
		req.bad(KErrClient, sp.Usage)
		return
	}
	req.Cmd = CmdWait
	req.KV = append(req.KV, target, timeout)
}

// parseStatsSub recognizes a stats variant word; anything else is the
// aggregate view.
func parseStatsSub(arg []byte) StatsSub {
	switch {
	case eqFold(arg, "shards"):
		return StatsShards
	case eqFold(arg, "reset"):
		return StatsReset
	}
	return StatsAggregate
}

// parseShard parses a signed shard index; anything unparseable maps to
// -1, which fails the server's range check with the same error an
// explicit -1 does (matching the old strconv.Atoi behavior).
func parseShard(b []byte) int {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	v, ok := parseUint64(b)
	if !ok || v > 1<<31 {
		return -1
	}
	if neg {
		return -int(v)
	}
	return int(v)
}

// Encode appends rep's native-text form — one or more CRLF-terminated
// lines — to dst.
func (Native) Encode(dst []byte, rep *Reply) []byte {
	switch rep.Kind {
	case KNone, KQuit:
		return dst
	case KStored:
		dst = append(dst, "STORED"...)
		dst = appendEpoch(dst, rep.Epoch)
		return append(dst, '\r', '\n')
	case KStoredN:
		dst = append(dst, "STORED "...)
		dst = appendUint(dst, uint64(rep.N))
		dst = appendEpoch(dst, rep.Epoch)
		return append(dst, '\r', '\n')
	case KValue:
		dst = append(dst, "VALUE "...)
		dst = appendUint(dst, rep.Key)
		dst = append(dst, ' ')
		dst = appendUint(dst, rep.Val)
		return append(dst, '\r', '\n')
	case KNotFound:
		return append(dst, "NOT_FOUND\r\n"...)
	case KInt:
		dst = appendUint(dst, rep.Val)
		dst = appendEpoch(dst, rep.Epoch)
		return append(dst, '\r', '\n')
	case KDelete:
		for _, it := range rep.Items {
			if it.Found {
				dst = append(dst, "DELETED\r\n"...)
			} else {
				dst = append(dst, "NOT_FOUND\r\n"...)
			}
		}
		return dst
	case KMGet:
		for _, it := range rep.Items {
			if it.Found {
				dst = append(dst, "VALUE "...)
				dst = appendUint(dst, it.Key)
				dst = append(dst, ' ')
				dst = appendUint(dst, it.Val)
			} else {
				dst = append(dst, "NOT_FOUND "...)
				dst = appendUint(dst, it.Key)
			}
			dst = append(dst, '\r', '\n')
		}
		return append(dst, "END\r\n"...)
	case KRange:
		for _, it := range rep.Items {
			dst = append(dst, "VALUE "...)
			dst = appendUint(dst, it.Key)
			dst = append(dst, ' ')
			dst = appendUint(dst, it.Val)
			dst = append(dst, '\r', '\n')
		}
		return append(dst, "END\r\n"...)
	case KRaw:
		dst = append(dst, rep.Msg...)
		return append(dst, '\r', '\n')
	case KPong:
		return append(dst, "PONG\r\n"...)
	case KEmpty:
		return append(dst, "END\r\n"...)
	case KMoved:
		dst = append(dst, "MOVED "...)
		dst = appendUint(dst, uint64(rep.N))
		dst = append(dst, ' ')
		dst = append(dst, rep.Msg...)
		return append(dst, '\r', '\n')
	case KErrClient:
		dst = append(dst, "CLIENT_ERROR "...)
		dst = append(dst, rep.Msg...)
		return append(dst, '\r', '\n')
	case KErrServer:
		dst = append(dst, "SERVER_ERROR "...)
		dst = append(dst, rep.Msg...)
		return append(dst, '\r', '\n')
	default: // KErrProto and anything unmapped
		dst = append(dst, "ERROR "...)
		dst = append(dst, rep.Msg...)
		return append(dst, '\r', '\n')
	}
}

// appendEpoch appends the " @<epoch>" durability-receipt suffix when a
// reply carries an epoch stamp (relaxed/fire acknowledgements).
func appendEpoch(dst []byte, epoch uint64) []byte {
	if epoch == 0 {
		return dst
	}
	dst = append(dst, " @"...)
	return appendUint(dst, epoch)
}

// Resync skips to the next line boundary: everything up to and
// including the next LF belongs to the abandoned oversized request.
func (Native) Resync(buf []byte) (int, ResyncState) {
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		return i + 1, ResyncDone
	}
	return len(buf), ResyncMore
}

// AppendRequest appends req's native wire form (one CRLF-terminated
// line) to dst — the client side of the protocol, used by benchmarks,
// examples and round-trip tests. Requests the native grammar cannot
// express (CmdNone, CmdBad, RESP-only commands) append nothing.
func (Native) AppendRequest(dst []byte, req *Request) []byte {
	sp := req.Cmd.Spec()
	if sp.Native == "" {
		return dst
	}
	dst = append(dst, sp.Native...)
	kv := req.KV
	if req.Cmd == CmdWait {
		// The barrier's count and a zero timeout are implied, not sent.
		if req.WaitRepl {
			dst = append(dst, " repl"...)
			kv = kv[min(1, len(kv)):]
		}
		if len(req.KV) > 1 && req.KV[1] == 0 {
			kv = kv[:len(kv)-1]
		}
	}
	for _, v := range kv {
		dst = append(dst, ' ')
		dst = appendUint(dst, v)
	}
	if sp.Mutates() {
		if req.Dur != DurDurable {
			dst = append(dst, ' ')
			dst = append(dst, req.Dur.String()...)
		}
		if req.HasSeq {
			dst = append(dst, " seq="...)
			dst = appendUint(dst, req.Seq)
		}
	}
	var buf [24]byte
	if tail := appendTail(buf[:0], req); len(tail) > 0 {
		dst = append(dst, ' ')
		dst = append(dst, tail...)
	}
	return append(dst, '\r', '\n')
}

// appendTail appends the text of the one trailing argument Request.KV
// does not carry — a stats view word, a crash shard index, a migrate
// address — or nothing. Both adapters' AppendRequests frame it.
func appendTail(dst []byte, req *Request) []byte {
	switch req.Cmd {
	case CmdStats:
		switch req.Stats {
		case StatsShards:
			dst = append(dst, "shards"...)
		case StatsReset:
			dst = append(dst, "reset"...)
		}
	case CmdCrash:
		if req.HasShard {
			dst = appendUint(dst, uint64(req.Shard))
		}
	case CmdMigrate:
		dst = append(dst, req.Addr...)
	}
	return dst
}
