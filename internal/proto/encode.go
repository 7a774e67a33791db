package proto

import "io"

// DefaultFlushBound is the staging-buffer size that triggers an early
// flush mid-batch, bounding encoder memory when a pipelined batch
// produces more reply bytes than one write should carry.
const DefaultFlushBound = 64 << 10

// Encoder stages encoded replies in a reusable buffer and writes them
// out in one syscall per decoded batch — the write-side half of the
// codec's procrastination: replies for N pipelined commands cost one
// write, not N.
type Encoder struct {
	w     io.Writer
	a     Adapter
	buf   []byte
	bound int
}

// NewEncoder wraps w with adapter a. bound is the staged-bytes
// threshold that forces an early flush (0 means DefaultFlushBound).
func NewEncoder(w io.Writer, a Adapter, bound int) *Encoder {
	if bound <= 0 {
		bound = DefaultFlushBound
	}
	return &Encoder{w: w, a: a, buf: make([]byte, 0, 1<<10), bound: bound}
}

// Use switches the adapter (paired with Decoder.Use after a sniff).
func (e *Encoder) Use(a Adapter) { e.a = a }

// Stage encodes rep into the staging buffer, flushing first if the
// buffer already holds bound bytes. The reply is not on the wire until
// Flush unless the bound spills it.
func (e *Encoder) Stage(rep *Reply) error {
	if len(e.buf) >= e.bound {
		if err := e.Flush(); err != nil {
			return err
		}
	}
	e.buf = e.a.Encode(e.buf, rep)
	return nil
}

// Flush writes every staged byte in one call and resets the buffer.
func (e *Encoder) Flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}
