package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// client is one wire-protocol connection to a spatiald (or coordinator).
// It speaks the framing documented in internal/server/session.go: data
// lines, then exactly one "ok" / "partial: ..." / "error: ..." line.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// reply is one framed response with its client-side timings.
type reply struct {
	lines  []string // data lines, status excluded
	status string
	// first is the time from send to the first data line (0 when none);
	// total is the time from send to the status line.
	first, total time.Duration
}

func (r reply) ok() bool { return r.status == "ok" }

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}
	greet, err := c.readLine()
	if err != nil || greet != "spatiald ready" {
		conn.Close()
		return nil, fmt.Errorf("dial %s: bad greeting %q: %v", addr, greet, err)
	}
	return c, nil
}

func (c *client) close() {
	_, _ = c.w.WriteString("quit\n")
	_ = c.w.Flush()
	c.conn.Close()
}

func (c *client) readLine() (string, error) {
	s, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

// send writes one command line without waiting for its reply (the
// open-loop writer pipelines commands this way).
func (c *client) send(line string) error {
	if _, err := c.w.WriteString(line + "\n"); err != nil {
		return err
	}
	return c.w.Flush()
}

// recv reads one framed reply; start is when its command was sent.
func (c *client) recv(start time.Time) (reply, error) {
	var rp reply
	for {
		s, err := c.readLine()
		if err != nil {
			return rp, err
		}
		if s == "ok" || strings.HasPrefix(s, "partial:") || strings.HasPrefix(s, "error:") {
			rp.status = s
			rp.total = time.Since(start)
			return rp, nil
		}
		if rp.first == 0 {
			rp.first = time.Since(start)
		}
		rp.lines = append(rp.lines, s)
	}
}

// do sends one command and waits for its reply (closed loop).
func (c *client) do(line string) (reply, error) {
	start := time.Now()
	if err := c.send(line); err != nil {
		return reply{}, err
	}
	return c.recv(start)
}

// mustOK runs an administrative command and fails on any non-ok status.
func (c *client) mustOK(line string) (reply, error) {
	rp, err := c.do(line)
	if err != nil {
		return rp, fmt.Errorf("%q: %w", line, err)
	}
	if !rp.ok() {
		return rp, fmt.Errorf("%q: %s", line, rp.status)
	}
	return rp, nil
}

// resultCount parses the "<verb>: N results" summary line a query verb
// prints (local and coordinator forms alike).
func resultCount(rp reply, verb string) (int, bool) {
	prefix := verb + ": "
	for i := len(rp.lines) - 1; i >= 0; i-- {
		s := rp.lines[i]
		if !strings.HasPrefix(s, prefix) {
			continue
		}
		f := strings.Fields(s[len(prefix):])
		if len(f) < 2 || f[1] != "results" {
			continue
		}
		n, err := strconv.Atoi(f[0])
		return n, err == nil
	}
	return 0, false
}

// insertedID parses "inserted id N into ...".
func insertedID(rp reply) (uint64, bool) {
	for _, s := range rp.lines {
		if rest, ok := strings.CutPrefix(s, "inserted id "); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				id, err := strconv.ParseUint(f[0], 10, 64)
				return id, err == nil
			}
		}
	}
	return 0, false
}
