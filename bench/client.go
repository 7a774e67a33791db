package main

import (
	"bytes"
	"fmt"
	"net"
	"time"
)

// replyTimeout bounds how long a pass or a control command waits for
// replies. A server that answers with fewer lines than a burst calls
// for would otherwise hang the closed loop; the timeout turns that into
// a reported failure. It is armed once per pass, not per burst, so the
// timed path never touches the deadline timer.
const replyTimeout = 60 * time.Second

// burstTimes are one burst's clock readings in nanoseconds since the
// run began. wrote and firstByte are taken only while tracing.
type burstTimes struct {
	start, wrote, firstByte, end int64
}

// client is one closed-loop connection: it writes a burst, then reads
// until every reply line of that burst has arrived, and only then
// prepares the next.
type client struct {
	conn  net.Conn
	epoch time.Time // the run's time zero
	trace bool
	rbuf  []byte

	bytesOut, bytesIn int64
}

func dial(addr string, epoch time.Time) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, epoch: epoch, rbuf: make([]byte, 64<<10)}, nil
}

func (c *client) close() { _ = c.conn.Close() }

// arm starts the reply timeout for the pass about to run; disarm ends it.
func (c *client) arm()    { _ = c.conn.SetReadDeadline(time.Now().Add(replyTimeout)) }
func (c *client) disarm() { _ = c.conn.SetReadDeadline(time.Time{}) }

func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

// exchange writes req and reads until `lines` newline-terminated reply
// lines have arrived. The returned reply aliases the client's read
// buffer and is valid until the next exchange.
func (c *client) exchange(req []byte, lines int) ([]byte, burstTimes, error) {
	var tm burstTimes
	tm.start = c.now()
	if _, err := c.conn.Write(req); err != nil {
		return nil, tm, fmt.Errorf("write burst: %w", err)
	}
	if c.trace {
		tm.wrote = c.now()
	}
	got, seen := 0, 0
	for seen < lines {
		if got == len(c.rbuf) {
			c.rbuf = append(c.rbuf, make([]byte, len(c.rbuf))...)
		}
		n, err := c.conn.Read(c.rbuf[got:])
		if err != nil {
			return nil, tm, fmt.Errorf("read reply (%d of %d lines): %w", seen, lines, err)
		}
		if got == 0 && c.trace {
			tm.firstByte = c.now()
		}
		seen += bytes.Count(c.rbuf[got:got+n], []byte{'\n'})
		got += n
	}
	tm.end = c.now()
	c.bytesOut += int64(len(req))
	c.bytesIn += int64(got)
	return c.rbuf[:got], tm, nil
}

// command sends one control request outside any timed region and
// returns its reply text: up to and including the END line when
// multiline is set, else one line.
func (c *client) command(req string, multiline bool) (string, error) {
	if _, err := c.conn.Write([]byte(req + "\r\n")); err != nil {
		return "", err
	}
	c.arm()
	defer c.disarm()
	var acc []byte
	for {
		n, err := c.conn.Read(c.rbuf)
		if err != nil {
			return "", fmt.Errorf("%s: %w", req, err)
		}
		acc = append(acc, c.rbuf[:n]...)
		if !bytes.HasSuffix(acc, []byte("\n")) {
			continue
		}
		if !multiline || bytes.HasSuffix(acc, []byte("END\r\n")) {
			return string(acc), nil
		}
	}
}

// stats fetches and parses the server's `stats` counters.
func (c *client) stats() (counters, error) {
	text, err := c.command("stats", true)
	if err != nil {
		return nil, err
	}
	return parseStats(text), nil
}
