package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"
)

// The load generator: one persistent HTTP/1.1 connection per client,
// pre-rendered request bytes, and responses read into a reused buffer
// without allocating. Client and daemon share a small host, so a
// heavyweight client (net/http's, with per-request goroutines and header
// maps) would bill its own cost to the daemon. The requests on the wire are
// ordinary HTTP; only the generator is lean.

// daemon is a serving handler behind a loopback listener.
type daemon struct {
	ln  net.Listener
	srv *http.Server
	out chan error
}

func listen(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{ln: ln, srv: &http.Server{Handler: h}, out: make(chan error, 1)}
	go func() { d.out <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *daemon) addr() string { return d.ln.Addr().String() }

// stop closes the listener and every connection, and waits for Serve to
// return.
func (d *daemon) stop() {
	_ = d.srv.Close() // Serve reports http.ErrServerClosed, awaited below
	<-d.out
}

// client is one persistent connection.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte // response body, valid until the next call
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &client{conn: c, br: bufio.NewReaderSize(c, 64<<10), buf: make([]byte, 0, 64<<10)}, nil
}

func (c *client) close() { _ = c.conn.Close() } // read side only; nothing to flush

// postRequest renders one POST with an optional Idempotency-Key.
func postRequest(path string, body []byte, key string) []byte {
	h := "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
	if key != "" {
		h += "Idempotency-Key: " + key + "\r\n"
	}
	h += "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(h), body...)
}

func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// do writes one pre-rendered request and reads the response. The daemon
// frames its bodies with Content-Length or chunked encoding; both are read.
func (c *client) do(req []byte) (status int, body []byte, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status, ok := atoiBytes(line[9:12])
	if !ok {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	clen, chunked := -1, false
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		if v, ok := headerValue(h, "content-length:"); ok {
			if clen, ok = atoiBytes(v); !ok {
				return 0, nil, fmt.Errorf("bad content-length %q", v)
			}
		} else if v, ok := headerValue(h, "transfer-encoding:"); ok && string(v) == "chunked" {
			chunked = true
		}
	}
	c.buf = c.buf[:0]
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if n > 0 {
				if err := c.readBody(int(n)); err != nil {
					return 0, nil, err
				}
			}
			if _, err := c.br.Discard(2); err != nil { // CRLF after the chunk
				return 0, nil, err
			}
			if n == 0 {
				break
			}
		}
	case clen > 0:
		if err := c.readBody(clen); err != nil {
			return 0, nil, err
		}
	}
	return status, c.buf, nil
}

func (c *client) readBody(n int) error {
	off := len(c.buf)
	if cap(c.buf)-off < n {
		grown := make([]byte, off, 2*(off+n))
		copy(grown, c.buf)
		c.buf = grown
	}
	c.buf = c.buf[:off+n]
	_, err := io.ReadFull(c.br, c.buf[off:])
	return err
}

// headerValue matches a header line against a lowercase "name:" prefix and
// returns the trimmed value.
func headerValue(h []byte, prefix string) ([]byte, bool) {
	if len(h) < len(prefix) {
		return nil, false
	}
	for i := 0; i < len(prefix); i++ {
		c := h[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return nil, false
		}
	}
	return bytes.TrimSpace(h[len(prefix):]), true
}

func atoiBytes(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// pacer releases operations of an open loop at fixed due times. Sleeps
// shorter than about a millisecond overshoot on a busy host, so the pacer
// sleeps only while the due time is further than spinMargin away and then
// yields in a loop until it arrives. Each operation's latency is measured
// from its due time, so a stall also charges the operations queued behind
// it; the pacer's own lateness is reported separately as lag.
type pacer struct {
	start  time.Time
	period time.Duration
}

const spinMargin = 1500 * time.Microsecond

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.period) }

// wait blocks until operation i is due and returns its due time and how
// late the pacer released it.
func (p pacer) wait(i int) (due time.Time, lag time.Duration) {
	due = p.due(i)
	if d := time.Until(due); d > spinMargin {
		time.Sleep(d - spinMargin)
	}
	for {
		now := time.Now()
		if !now.Before(due) {
			return due, now.Sub(due)
		}
		runtime.Gosched()
	}
}
