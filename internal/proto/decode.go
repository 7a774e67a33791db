package proto

import (
	"errors"
	"io"
)

// Decoder limits and defaults.
const (
	// DefaultMaxRequest is the request-size ceiling when the caller
	// passes 0: generous enough for thousand-key msets, small enough
	// that one abusive connection cannot balloon server memory.
	DefaultMaxRequest = 1 << 20

	// maxBatch caps how many requests one Next call returns. It bounds
	// the arena and keeps a firehose client from starving the write
	// side; a fuller socket just yields back-to-back full batches.
	maxBatch = 256

	// minReadBuf is the initial read-buffer size.
	minReadBuf = 4 << 10
)

// tooLargeMsg is the error text answered when a single request
// exceeds the decoder's ceiling.
const tooLargeMsg = "request too large"

// Decoder turns a byte stream into batches of decoded requests. Each
// Next call surfaces every complete request already buffered (reading
// from the stream only when none is) so a client that pipelines N
// commands into one TCP segment gets all N back as one batch — the
// unit the server feeds to the shard pipeline as a single enqueue.
//
// The returned batch and the KV slices inside it alias the decoder's
// arena and read buffer; they are valid only until the next Next call.
type Decoder struct {
	r   io.Reader
	a   Adapter
	max int

	buf        []byte
	start, end int

	reqs []Request

	resyncing bool
	fatal     bool
	err       error
}

// NewDecoder wraps r with adapter a. maxRequest bounds the wire size
// of a single request (0 means DefaultMaxRequest); a request that
// exceeds it decodes as CmdBad("request too large") and the stream is
// resynchronized — or torn down, if the protocol cannot skip ahead.
func NewDecoder(r io.Reader, a Adapter, maxRequest int) *Decoder {
	if maxRequest <= 0 {
		maxRequest = DefaultMaxRequest
	}
	return &Decoder{r: r, a: a, max: maxRequest, buf: make([]byte, minReadBuf)}
}

// Use switches the adapter — the protocol-sniffing hook: Peek at the
// first byte, pick the protocol, Use it, then start calling Next.
func (d *Decoder) Use(a Adapter) { d.a = a }

// Sniff fixes the stream's protocol from its first byte and returns its
// adapter: RESP framing always leads with '*', which no native command
// starts with. A server and the proxy call it once per connection.
func (d *Decoder) Sniff() (Adapter, error) {
	b, err := d.Peek()
	if err != nil {
		return nil, err
	}
	var a Adapter = Native{}
	if b == '*' {
		a = RESP{}
	}
	d.Use(a)
	return a, nil
}

// Adapter returns the adapter currently decoding the stream.
func (d *Decoder) Adapter() Adapter { return d.a }

// Leftover returns the bytes buffered but not yet consumed by the
// decoder. It is the hand-off a caller needs when a command switches
// the connection from the request protocol to a framed stream (the
// cluster tier's acceptslot does this): resume reading from Leftover
// first, then the underlying stream. The slice aliases the decoder's
// buffer and is valid only until the next Next/Peek call.
func (d *Decoder) Leftover() []byte { return d.buf[d.start:d.end] }

// Peek returns the first unconsumed byte, reading if none is buffered.
func (d *Decoder) Peek() (byte, error) {
	for d.end == d.start {
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
	return d.buf[d.start], nil
}

// slot returns the i'th arena request, growing the arena as needed.
// Reused slots keep their KV backing arrays, so steady-state decoding
// does not allocate.
func (d *Decoder) slot(i int) *Request {
	for len(d.reqs) <= i {
		d.reqs = append(d.reqs, Request{})
	}
	return &d.reqs[i]
}

// fill reads more bytes from the stream, compacting or growing the
// buffer as needed. The buffer stops growing once it can already hold
// an over-limit request — that is the too-large detection point.
func (d *Decoder) fill() error {
	if d.end == len(d.buf) {
		if d.start > 0 {
			copy(d.buf, d.buf[d.start:d.end])
			d.end -= d.start
			d.start = 0
		} else if len(d.buf) <= d.max {
			grown := make([]byte, 2*len(d.buf))
			copy(grown, d.buf[:d.end])
			d.buf = grown
		} else {
			// Pending already exceeds max; Next handles it.
			return nil
		}
	}
	n, err := d.r.Read(d.buf[d.end:])
	d.end += n
	if n > 0 {
		return nil
	}
	return err
}

// errStop is a sentinel fill() cannot return; used to break the read
// loop when pending bytes already exceed the ceiling.
var errStop = errors.New("proto: internal stop")

// Next returns the next batch of decoded requests. It blocks until at
// least one request (or a decode problem rendered as a CmdBad request)
// is available, then returns every further request already buffered,
// up to an internal batch cap. After ErrDesync or an I/O error the
// decoder is dead.
func (d *Decoder) Next() ([]Request, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.fatal {
		d.err = ErrDesync
		return nil, d.err
	}
	for {
		if d.resyncing {
			if err := d.resync(); err != nil {
				d.err = err
				return nil, err
			}
		}
		k := 0
		for k < maxBatch {
			n, err := d.a.Parse(d.buf[d.start:d.end], d.slot(k))
			if err != nil {
				// Stream out of sync: answer a protocol error in this
				// batch, then die on the next call.
				req := d.slot(k)
				req.reset()
				req.bad(KErrProto, err.Error())
				k++
				d.fatal = true
				return d.reqs[:k], nil
			}
			if n > d.max || n == 0 && d.end-d.start > d.max {
				// One request is larger than the ceiling, whether it
				// arrived whole or not. Answer the error now; the next
				// call skips its bytes from d.start (Adapter.Resync).
				req := d.slot(k)
				req.reset()
				req.bad(KErrClient, tooLargeMsg)
				k++
				d.resyncing = true
				return d.reqs[:k], nil
			}
			if n == 0 {
				break
			}
			d.start += n
			if d.reqs[k].Cmd != CmdNone {
				k++
			}
		}
		if k > 0 {
			return d.reqs[:k], nil
		}
		if err := d.fillOrFinish(); err != nil {
			if err == errStop {
				continue
			}
			if err == errFinalReq {
				return d.reqs[:1], nil
			}
			d.err = err
			return nil, err
		}
	}
}

// fillOrFinish reads more input; at clean EOF with leftover bytes it
// gives the adapter one chance to treat them as a final request (the
// old bufio.Scanner returned a trailing unterminated line the same
// way). Returns errStop when pending bytes already exceed the ceiling,
// so Next loops back into the too-large path without reading.
func (d *Decoder) fillOrFinish() error {
	if d.end-d.start > d.max {
		return errStop
	}
	err := d.fill()
	if err == nil {
		return nil
	}
	if err == io.EOF && d.end > d.start {
		if ep, ok := d.a.(eofParser); ok {
			n, perr := ep.ParseEOF(d.buf[d.start:d.end], d.slot(0))
			if perr == nil && n > 0 {
				d.start += n
				d.err = io.EOF // next call reports EOF
				if d.reqs[0].Cmd == CmdNone {
					return io.EOF
				}
				return errFinalReq
			}
		}
		return io.ErrUnexpectedEOF
	}
	return err
}

// errFinalReq signals Next that slot 0 holds a final EOF-terminated
// request to deliver before reporting EOF.
var errFinalReq = errors.New("proto: final request")

// eofParser is an optional Adapter extension: decode trailing bytes at
// EOF as a final request even without a terminator.
type eofParser interface {
	// ParseEOF decodes buf as a final, unterminated request.
	ParseEOF(buf []byte, req *Request) (int, error)
}

// resync discards bytes of the abandoned oversized request until the
// adapter reports a request boundary.
func (d *Decoder) resync() error {
	for {
		n, st := d.a.Resync(d.buf[d.start:d.end])
		d.start += n
		switch st {
		case ResyncDone:
			d.resyncing = false
			return nil
		case ResyncFatal:
			return ErrDesync
		}
		if err := d.fill(); err != nil {
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
}
