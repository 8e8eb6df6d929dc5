package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nakika/internal/wire"
)

// The TCP protocol. Both sides exchange 4-byte length-prefixed frames
// (wire.go), and one persistent connection per peer address carries many
// in-flight calls at once:
//
//	hello:    0x00 0xF1 "nkmux1"          client → server, first frame
//	helloAck: 0x00 0xF2 "nkmux1"          server → client, first reply
//	request:  0x00 0xF3 uvarint(id) <request payload>
//	reply:    0x00 0xF4 uvarint(id) <reply payload>
//
// A server closes a connection whose first frame is not the hello without
// dispatching anything, and a client treats any handshake reply but the ack
// as a failed dial.
//
// Outbound frames are corked: concurrent senders append complete frames to
// a shared buffer and a single writer goroutine flushes each batch with one
// Write call, so a burst of replication pushes or hedged reads costs one
// syscall, not one per call. The reader goroutine demuxes replies to
// waiting callers by request ID; per-call timeouts abandon only the call
// (the ID's eventual reply is dropped), never the connection.
const (
	muxMagic    = 0x00
	muxHello    = 0xF1
	muxHelloAck = 0xF2
	muxReq      = 0xF3
	muxReply    = 0xF4
)

// muxToken names the protocol in the hello/helloAck frames, so a stray
// client of some other protocol is refused at the first frame.
var muxToken = []byte("nkmux1")

// maxCork bounds the corked-write buffer: a sender that would push the
// batch past this waits for the writer to drain, so one slow peer cannot
// absorb unbounded memory. A single frame larger than the cap still passes
// (the wait condition is on the buffered bytes, not the frame).
const maxCork = 4 << 20

// errConnClosed reports an enqueue on a connection torn down by Close.
var errConnClosed = errors.New("transport: connection closed")

// errStaleConn reports a call that found its connection already dead before
// the request was written — safe to retry on a fresh dial, because the
// handler cannot have seen the request.
var errStaleConn = errors.New("transport: connection died before send")

// errCallTimeout reports a per-call timeout; the connection itself stays up.
var errCallTimeout = errors.New("transport: call timed out")

// helloFrame renders the client hello payload.
func helloFrame() []byte {
	return append([]byte{muxMagic, muxHello}, muxToken...)
}

// helloAckFrame renders the server helloAck payload.
func helloAckFrame() []byte {
	return append([]byte{muxMagic, muxHelloAck}, muxToken...)
}

// isMuxHello reports whether a first frame is the mux handshake.
func isMuxHello(payload []byte) bool {
	return len(payload) >= 2 && payload[0] == muxMagic && payload[1] == muxHello &&
		bytes.Equal(payload[2:], muxToken)
}

// isMuxHelloAck reports whether a handshake reply accepts mux mode.
func isMuxHelloAck(payload []byte) bool {
	return len(payload) >= 2 && payload[0] == muxMagic && payload[1] == muxHelloAck &&
		bytes.Equal(payload[2:], muxToken)
}

// appendMuxHeader appends the request/reply mux header.
func appendMuxHeader(buf []byte, kind byte, id uint64) []byte {
	buf = append(buf, muxMagic, kind)
	return wire.AppendUvarint(buf, id)
}

// parseMuxFrame splits a request or reply frame into kind, request ID, and
// the inner payload. ok is false for anything else.
func parseMuxFrame(payload []byte) (kind byte, id uint64, inner []byte, ok bool) {
	if len(payload) < 2 || payload[0] != muxMagic || (payload[1] != muxReq && payload[1] != muxReply) {
		return 0, 0, nil, false
	}
	r := wire.Reader{Buf: payload, Off: 2}
	id, err := r.Uvarint()
	if err != nil {
		return 0, 0, nil, false
	}
	return payload[1], id, payload[r.Off:], true
}

// ---------------------------------------------------------------------------
// Corked writer
// ---------------------------------------------------------------------------

// corkedWriter batches outbound frames: senders cork complete frames into a
// shared buffer, one writer goroutine flushes each batch in a single Write.
type corkedWriter struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	err    error
	closed bool
}

func newCorkedWriter(conn net.Conn) *corkedWriter {
	w := &corkedWriter{conn: conn, buf: make([]byte, 0, 4096)}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// enqueue corks one frame (length header plus payload) into the next batch.
// It blocks while the buffer is over the cork cap, and reports the write
// error once the connection has failed.
func (w *corkedWriter) enqueue(payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", len(payload))
	}
	w.mu.Lock()
	for len(w.buf) > maxCork && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return errConnClosed
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}

// run flushes batches until the connection fails or the writer is closed.
func (w *corkedWriter) run() {
	var batch []byte
	for {
		w.mu.Lock()
		for len(w.buf) == 0 && w.err == nil && !w.closed {
			w.cond.Wait()
		}
		if w.err != nil || w.closed {
			w.mu.Unlock()
			return
		}
		batch, w.buf = w.buf, batch[:0]
		w.cond.Broadcast() // wake senders blocked on the cork cap
		w.mu.Unlock()
		if _, err := w.conn.Write(batch); err != nil {
			w.fail(err)
			return
		}
	}
}

// fail records the terminal error and wakes everyone.
func (w *corkedWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// close wakes the writer goroutine and blocked senders for teardown.
func (w *corkedWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Client-side mux connection
// ---------------------------------------------------------------------------

// muxResult carries one demuxed reply (or the connection's death) to a
// waiting caller.
type muxResult struct {
	payload []byte
	err     error
}

// muxConn is one established multiplexed connection to a peer address.
type muxConn struct {
	conn net.Conn
	w    *corkedWriter

	mu      sync.Mutex
	waiters map[uint64]chan muxResult
	nextID  uint64
	dead    error
}

func newMuxConn(conn net.Conn) *muxConn {
	return &muxConn{conn: conn, w: newCorkedWriter(conn), waiters: make(map[uint64]chan muxResult)}
}

// alive reports whether the connection can still carry calls.
func (m *muxConn) alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead == nil
}

// fail marks the connection dead, tears down the socket, and delivers the
// error to every waiting caller.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.dead != nil {
		m.mu.Unlock()
		return
	}
	m.dead = err
	waiters := m.waiters
	m.waiters = make(map[uint64]chan muxResult)
	m.mu.Unlock()
	m.w.fail(err)
	m.conn.Close()
	for _, ch := range waiters {
		ch <- muxResult{err: err}
	}
}

// readLoop demuxes reply frames to waiting callers until the connection
// dies. Replies for abandoned IDs (timed-out calls) are dropped.
func (m *muxConn) readLoop() {
	for {
		payload, err := readFrame(m.conn)
		if err != nil {
			m.fail(err)
			return
		}
		kind, id, inner, ok := parseMuxFrame(payload)
		if !ok || kind != muxReply {
			continue
		}
		m.mu.Lock()
		ch := m.waiters[id]
		delete(m.waiters, id)
		m.mu.Unlock()
		if ch != nil {
			ch <- muxResult{payload: inner}
		}
	}
}

// roundTrip issues one call and waits for its reply payload under the
// timeout. The request is encoded straight into a pooled frame buffer (one
// copy into the cork batch, one syscall per batch). A timeout abandons only
// this call; the connection stays up for the others in flight.
func (m *muxConn) roundTrip(from, to string, msg Message, timeout time.Duration) ([]byte, error) {
	m.mu.Lock()
	if m.dead != nil {
		m.mu.Unlock()
		return nil, errStaleConn
	}
	m.nextID++
	id := m.nextID
	ch := make(chan muxResult, 1)
	m.waiters[id] = ch
	m.mu.Unlock()

	frame := framePool.Get().(*[]byte)
	buf := appendMuxHeader((*frame)[:0], muxReq, id)
	buf = appendRequest(buf, from, to, msg)
	err := m.w.enqueue(buf)
	*frame = buf
	framePool.Put(frame)
	if err != nil {
		m.mu.Lock()
		delete(m.waiters, id)
		m.mu.Unlock()
		if err != errConnClosed {
			// The writer failed before flushing this frame: the peer never
			// dispatched it, so the call is retryable.
			err = errStaleConn
		}
		return nil, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.payload, r.err
	case <-timer.C:
		m.mu.Lock()
		delete(m.waiters, id)
		m.mu.Unlock()
		return nil, fmt.Errorf("%w after %s", errCallTimeout, timeout)
	}
}

// framePool recycles the scratch buffers mux frames are assembled in before
// they are corked (enqueue copies them out).
var framePool = sync.Pool{
	New: func() interface{} { b := make([]byte, 0, 1024); return &b },
}
