package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// clientConn is one blocking HTTP/1.1 keep-alive connection to a node.
// The generator runs exactly one goroutine per connection and hands no
// request to another goroutine, so it adds no scheduling of its own to
// the latency it measures.
type clientConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialClient(addr string) (*clientConn, error) {
	cc := &clientConn{addr: addr}
	return cc, cc.redial()
}

func (cc *clientConn) redial() error {
	cc.close()
	c, err := net.DialTimeout("tcp", cc.addr, 2*time.Second)
	if err != nil {
		return fmt.Errorf("dial node %s: %w", cc.addr, err)
	}
	cc.c = c
	if cc.br == nil {
		cc.br = bufio.NewReaderSize(c, 64<<10)
	} else {
		cc.br.Reset(c)
	}
	return nil
}

func (cc *clientConn) close() {
	if cc.c != nil {
		cc.c.Close()
		cc.c = nil
	}
}

var errChunked = errors.New("response without Content-Length")

// do writes one rendered request and reads the whole response. ttfb runs
// from just before the request is written to the arrival of the first
// response byte, total to the last body byte. The returned body is only
// valid until the next call. Any error leaves the connection closed; the
// caller redials.
func (cc *clientConn) do(req []byte, deadline time.Time) (status int, body []byte, ttfb, total time.Duration, err error) {
	if cc.c == nil {
		if err = cc.redial(); err != nil {
			return
		}
	}
	defer func() {
		if err != nil {
			cc.close()
		}
	}()
	if err = cc.c.SetDeadline(deadline); err != nil {
		return
	}
	start := time.Now()
	if _, err = cc.c.Write(req); err != nil {
		return
	}
	if _, err = cc.br.Peek(1); err != nil {
		return
	}
	ttfb = time.Since(start)

	line, err := cc.br.ReadSlice('\n')
	if err != nil {
		return
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		err = fmt.Errorf("malformed status line %q", line)
		return
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return
	}
	length := -1
	for {
		if line, err = cc.br.ReadSlice('\n'); err != nil {
			return
		}
		if len(line) <= 2 {
			break
		}
		const name = "content-length:"
		if len(line) > len(name) && bytes.EqualFold(line[:len(name)], []byte(name)) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(name):]))); err != nil {
				return
			}
		}
	}
	if length < 0 {
		// The node always frames bodies with Content-Length; anything else
		// is a response this client cannot delimit.
		err = errChunked
		return
	}
	if cap(cc.body) < length {
		cc.body = make([]byte, length)
	}
	body = cc.body[:length]
	if _, err = io.ReadFull(cc.br, body); err != nil {
		return
	}
	total = time.Since(start)
	return
}
