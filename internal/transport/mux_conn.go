package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
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
// a shared buffer, and a sender that finds no write running writes the
// whole buffer itself, so a burst of replication pushes or hedged reads
// costs one syscall, not one per call, and no goroutine hand-off. The
// reader goroutine demuxes replies to waiting callers by request ID;
// per-call timeouts abandon only the call (the ID's eventual reply is
// dropped), never the connection — unless the call's write itself missed
// the deadline, which leaves a partial frame on the wire and so fails the
// connection.
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

// maxCork bounds the corked-write buffer: a sender that finds more than
// this corked behind a running write waits for that write before corking
// its own frame, so one slow peer cannot absorb unbounded memory. A single
// frame larger than the cap still passes (the wait condition is on the
// buffered bytes, not the frame).
const maxCork = 4 << 20

// errConnClosed fails the connections Close tears down.
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

// muxCounters is the mux's work, shared by every connection of one TCP.
type muxCounters struct {
	inFlight, timeouts, dials, frames, writes atomic.Int64
}

// corkedWriter batches outbound frames with no goroutine of its own: a
// sender corks its frame into the shared buffer and, when no write is
// running, writes the whole buffer itself, so every frame corked while the
// previous write ran goes out in one Write. A sender whose frame is in
// someone else's write, or behind it, waits for that write. Every wait and
// every write is bounded by the sender's deadline; a write that misses it
// fails the connection, because a partial frame cannot be resumed.
type corkedWriter struct {
	conn  net.Conn
	stats *muxCounters

	mu      sync.Mutex
	buf     []byte        // frames corked for the next write
	spare   []byte        // the last written batch, reused for the next
	corked  uint64        // frames ever corked
	written uint64        // frames ever written
	writing bool          // a sender is inside Write
	done    chan struct{} // closed when the running write returns; made by its first waiter
	err     error         // the write error that failed the connection
}

func newCorkedWriter(conn net.Conn, stats *muxCounters) *corkedWriter {
	return &corkedWriter{conn: conn, stats: stats, buf: make([]byte, 0, 4096)}
}

// send corks one frame (length header plus payload) and returns once it is
// written. A connection that failed before the frame was corked reports
// errStaleConn (the peer never saw it); one that fails while the frame is
// corked or being written reports the write error, or errCallTimeout when
// the deadline passed.
func (w *corkedWriter) send(payload []byte, deadline time.Time) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && w.writing && len(w.buf) > maxCork {
		if !w.await(deadline) {
			return errCallTimeout
		}
	}
	if w.err != nil {
		return errStaleConn
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	w.corked++
	mine := w.corked
	for w.written < mine {
		switch {
		case w.err != nil:
			if errors.Is(w.err, os.ErrDeadlineExceeded) {
				return errCallTimeout
			}
			return w.err
		case !w.writing:
			w.write(deadline)
		case !w.await(deadline):
			return errCallTimeout
		}
	}
	return nil
}

// write writes everything corked in one Write under deadline; called with
// w.mu held and no write running, it releases the lock around the Write.
func (w *corkedWriter) write(deadline time.Time) {
	batch, target := w.buf, w.corked
	w.buf, w.spare = w.spare[:0], nil
	w.writing = true
	w.mu.Unlock()
	err := w.conn.SetWriteDeadline(deadline)
	if err == nil {
		_, err = w.conn.Write(batch)
	}
	w.mu.Lock()
	w.writing = false
	w.spare = batch
	if err != nil {
		w.failLocked(err)
		return
	}
	w.stats.frames.Add(int64(target - w.written))
	w.stats.writes.Add(1)
	w.written = target
	if w.done != nil {
		close(w.done)
		w.done = nil
	}
}

// await releases w.mu until the running write returns or the deadline
// passes, and reports whether the write returned in time. Called with
// w.mu held while w.writing.
func (w *corkedWriter) await(deadline time.Time) bool {
	if w.done == nil {
		w.done = make(chan struct{})
	}
	done := w.done
	w.mu.Unlock()
	defer w.mu.Lock()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

// fail records the terminal error, closes the connection, and wakes every
// waiting sender.
func (w *corkedWriter) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failLocked(err)
}

func (w *corkedWriter) failLocked(err error) {
	if w.err == nil {
		w.err = err
	}
	if w.done != nil {
		close(w.done)
		w.done = nil
	}
	w.conn.Close()
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

func newMuxConn(conn net.Conn, stats *muxCounters) *muxConn {
	return &muxConn{conn: conn, w: newCorkedWriter(conn, stats), waiters: make(map[uint64]chan muxResult)}
}

// alive reports whether the connection can still carry calls: neither the
// reader nor a write has failed it.
func (m *muxConn) alive() bool {
	m.mu.Lock()
	dead := m.dead
	m.mu.Unlock()
	m.w.mu.Lock()
	defer m.w.mu.Unlock()
	return dead == nil && m.w.err == nil
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

// start sends one call's request and returns its ID and the channel its
// reply arrives on. The request is encoded straight into a pooled frame
// buffer (one copy into the cork batch, one syscall per batch).
func (m *muxConn) start(from, to string, msg Message, deadline time.Time) (uint64, chan muxResult, error) {
	m.mu.Lock()
	if m.dead != nil {
		m.mu.Unlock()
		return 0, nil, errStaleConn
	}
	m.nextID++
	id := m.nextID
	ch := make(chan muxResult, 1)
	m.waiters[id] = ch
	m.mu.Unlock()

	frame := framePool.Get().(*[]byte)
	buf := appendMuxHeader((*frame)[:0], muxReq, id)
	buf = appendRequest(buf, from, to, msg)
	err := m.w.send(buf, deadline)
	*frame = buf
	framePool.Put(frame)
	if err != nil {
		m.forget(id)
		return 0, nil, err
	}
	return id, ch, nil
}

// await waits for the reply to call id until the deadline. A timeout
// abandons only this call; the connection stays up for the others in
// flight.
func (m *muxConn) await(id uint64, ch chan muxResult, deadline time.Time) ([]byte, error) {
	select {
	case r := <-ch:
		return r.payload, r.err
	default:
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.payload, r.err
	case <-timer.C:
		m.forget(id)
		return nil, errCallTimeout
	}
}

// forget drops the waiter for id; its reply, if one comes, is discarded.
func (m *muxConn) forget(id uint64) {
	m.mu.Lock()
	delete(m.waiters, id)
	m.mu.Unlock()
}

// framePool recycles the scratch buffers mux frames are assembled in before
// they are corked (enqueue copies them out).
var framePool = sync.Pool{
	New: func() interface{} { b := make([]byte, 0, 1024); return &b },
}
