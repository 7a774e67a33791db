package proto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
)

// This file is the client half of the native protocol: a reply reader
// that turns the server's wire text back into the same typed Reply the
// server encoded from. It exists for the cluster routing tier — a
// proxy multiplexes many frontend requests onto one pipelined backend
// connection, and because the server answers each connection strictly
// in request order, matching replies to requests is a FIFO walk that
// only needs to know each in-flight request's command (multi-line
// replies such as mget's VALUE…END block are framed by the command
// that provoked them, not by the wire).

// ErrReply is returned by ReadNativeReply when the server's reply does
// not parse as any reply the command can produce — the stream is out
// of step and the connection must be abandoned.
var ErrReply = errors.New("proto: unparseable reply")

// readLine returns the next LF-terminated line without the
// terminator, tolerating lines longer than r's buffer.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Rare (stats text): fall back to an allocating accumulation.
		acc := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			acc = append(acc, line...)
		}
		line = acc
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// splitStamp splits an " @<epoch>" durability-receipt suffix off a
// reply line, returning the line without it and the epoch (0 if none).
func splitStamp(line []byte) ([]byte, uint64) {
	i := bytes.LastIndex(line, []byte(" @"))
	if i < 0 {
		return line, 0
	}
	if e, ok := parseUint64(line[i+2:]); ok {
		return line[:i], e
	}
	return line, 0
}

// classifyCommon recognizes the reply shapes every command can
// produce: redirects and the three error spellings. It reports whether
// it consumed the line into rep.
func classifyCommon(line []byte, rep *Reply) bool {
	switch {
	case bytes.HasPrefix(line, []byte("MOVED ")):
		f := fields{b: line[6:]}
		slot, addr := f.next(), f.next()
		if s, ok := parseUint64(slot); ok && addr != nil {
			rep.Kind = KMoved
			rep.N = int(s)
			rep.Msg = string(addr)
			return true
		}
	case bytes.HasPrefix(line, []byte("CLIENT_ERROR ")):
		rep.Kind = KErrClient
		rep.Msg = string(line[13:])
		return true
	case bytes.HasPrefix(line, []byte("SERVER_ERROR ")):
		rep.Kind = KErrServer
		rep.Msg = string(line[13:])
		return true
	case bytes.HasPrefix(line, []byte("ERROR ")):
		rep.Kind = KErrProto
		rep.Msg = string(line[6:])
		return true
	}
	return false
}

// parseValueLine parses "VALUE <key> <val>".
func parseValueLine(line []byte) (k, v uint64, ok bool) {
	f := fields{b: line[6:]}
	kb, vb := f.next(), f.next()
	kn, ok1 := parseUint64(kb)
	vn, ok2 := parseUint64(vb)
	return kn, vn, ok1 && ok2
}

// ReadNativeReply reads one complete native reply for a request of
// command cmd carrying nkeys keys, into rep. rep.Items is reset and
// reused. The reply read may also be a redirect (KMoved) or an error
// kind regardless of cmd. A nil error means rep holds a well-formed
// reply; ErrReply (wrapped with the offending line) means the stream
// no longer corresponds to the request FIFO and the connection is
// unusable.
func ReadNativeReply(r *bufio.Reader, cmd Cmd, nkeys int, rep *Reply) error {
	*rep = Reply{Items: rep.Items[:0]}
	line, err := readLine(r)
	if err != nil {
		return err
	}
	if classifyCommon(line, rep) {
		return nil
	}
	line, stamp := splitStamp(line)
	rep.Epoch = stamp

	// A reply is framed by the kind its command answers with, not by the
	// wire: that is the table's Reply column.
	sp := cmd.Spec()
	switch sp.Reply {
	case KValue:
		if bytes.HasPrefix(line, []byte("VALUE ")) {
			if k, v, ok := parseValueLine(line); ok {
				rep.Kind, rep.Key, rep.Val = KValue, k, v
				return nil
			}
		}
		if bytes.Equal(line, []byte("NOT_FOUND")) {
			rep.Kind = KNotFound
			return nil
		}

	case KStored:
		if bytes.Equal(line, []byte("STORED")) {
			rep.Kind = KStored
			return nil
		}

	case KStoredN:
		if bytes.HasPrefix(line, []byte("STORED ")) {
			if n, ok := parseUint64(line[7:]); ok {
				rep.Kind, rep.N = KStoredN, int(n)
				return nil
			}
		}

	case KInt:
		if v, ok := parseUint64(line); ok {
			rep.Kind, rep.Val = KInt, v
			return nil
		}

	case KDelete:
		// One DELETED/NOT_FOUND line per requested key; the first is
		// already in hand.
		for i := 0; ; i++ {
			switch {
			case bytes.Equal(line, []byte("DELETED")):
				rep.Items = append(rep.Items, Item{Found: true})
			case bytes.Equal(line, []byte("NOT_FOUND")):
				rep.Items = append(rep.Items, Item{})
			default:
				return fmt.Errorf("%w: %q answering %d-key delete", ErrReply, line, nkeys)
			}
			if i == nkeys-1 {
				rep.Kind = KDelete
				return nil
			}
			if line, err = readLine(r); err != nil {
				return err
			}
		}

	case KMGet, KRange:
		// VALUE / NOT_FOUND lines up to END; the first is in hand.
		for {
			switch {
			case bytes.Equal(line, []byte("END")):
				rep.Kind = sp.Reply
				return nil
			case bytes.HasPrefix(line, []byte("VALUE ")):
				k, v, ok := parseValueLine(line)
				if !ok {
					return fmt.Errorf("%w: %q in multi-value reply", ErrReply, line)
				}
				rep.Items = append(rep.Items, Item{Key: k, Val: v, Found: true})
			case bytes.HasPrefix(line, []byte("NOT_FOUND ")):
				k, ok := parseUint64(line[10:])
				if !ok {
					return fmt.Errorf("%w: %q in multi-value reply", ErrReply, line)
				}
				rep.Items = append(rep.Items, Item{Key: k})
			default:
				return fmt.Errorf("%w: %q in multi-value reply", ErrReply, line)
			}
			if line, err = readLine(r); err != nil {
				return err
			}
		}

	case KPong:
		if bytes.Equal(line, []byte("PONG")) {
			rep.Kind = KPong
			return nil
		}

	case KRaw:
		if !sp.Block {
			// Single pre-rendered text line.
			rep.Kind, rep.Msg = KRaw, string(line)
			if stamp != 0 {
				// The stamp split was wrong for raw text; restore it.
				rep.Msg = string(line) + " @" + string(appendUint(nil, stamp))
				rep.Epoch = 0
			}
			return nil
		}
		// Lines up to END, returned verbatim as one text (stats' STAT
		// lines; cluster's SLOTS table).
		var acc []byte
		for {
			if bytes.Equal(line, []byte("END")) {
				acc = append(acc, "END"...)
				rep.Kind, rep.Msg = KRaw, string(acc)
				return nil
			}
			acc = append(acc, line...)
			acc = append(acc, '\r', '\n')
			if line, err = readLine(r); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("%w: %q answering %v", ErrReply, line, cmd)
}
