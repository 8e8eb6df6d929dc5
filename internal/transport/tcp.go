package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCP is the wire transport: each process runs one TCP instance serving its
// local nodes' handlers on a listener, and an address book maps remote node
// names to host:port addresses. Frames are length-prefixed (see wire.go).
//
// Calls ride one persistent multiplexed connection per peer address (see
// mux_conn.go): many calls in flight at once, outbound frames corked into
// batched writes, replies demuxed by request ID, and reconnect-with-backoff
// when the connection dies.
type TCP struct {
	// DialTimeout bounds connection establishment (and the mux handshake);
	// zero means 5s.
	DialTimeout time.Duration
	// CallTimeout bounds one request/reply exchange; zero means 30s.
	CallTimeout time.Duration

	mu       sync.RWMutex
	handlers map[string]Handler
	peers    map[string]string // node name -> address
	accepted map[net.Conn]struct{}
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup

	muxMu sync.Mutex
	mux   map[string]*muxEntry // peer address -> persistent-connection state
}

// maxDialBackoff caps reconnect backoff after repeated dial failures.
const maxDialBackoff = 500 * time.Millisecond

// muxEntry is the per-address persistent-connection state.
type muxEntry struct {
	mu         sync.Mutex
	mc         *muxConn
	nextDialAt time.Time // reconnect backoff gate
	backoff    time.Duration
}

// NewTCP returns a TCP transport with an empty address book.
func NewTCP() *TCP {
	return &TCP{
		handlers: make(map[string]Handler),
		peers:    make(map[string]string),
		accepted: make(map[net.Conn]struct{}),
		mux:      make(map[string]*muxEntry),
	}
}

// Register implements Transport for nodes served by this process.
func (t *TCP) Register(name string, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[name] = h
}

// Unregister implements Transport.
func (t *TCP) Unregister(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.handlers, name)
}

// AddPeer maps a remote node name to its transport address.
func (t *TCP) AddPeer(name, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[name] = addr
}

func (t *TCP) dialTimeout() time.Duration {
	if t.DialTimeout == 0 {
		return 5 * time.Second
	}
	return t.DialTimeout
}

func (t *TCP) callTimeout() time.Duration {
	if t.CallTimeout == 0 {
		return 30 * time.Second
	}
	return t.CallTimeout
}

// Listen starts serving registered handlers on addr and returns the bound
// address (useful with ":0").
func (t *TCP) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.ln = ln
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.mu.Lock()
			if t.closed {
				t.mu.Unlock()
				conn.Close()
				return
			}
			t.accepted[conn] = struct{}{}
			t.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.serveConn(conn)
				t.mu.Lock()
				delete(t.accepted, conn)
				t.mu.Unlock()
			}()
		}
	}()
	return ln.Addr(), nil
}

// Close stops the listener, closes accepted and dialed connections, and
// waits for the serve goroutines to drain.
func (t *TCP) Close() {
	t.mu.Lock()
	t.closed = true
	ln := t.ln
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	t.muxMu.Lock()
	entries := make([]*muxEntry, 0, len(t.mux))
	for _, e := range t.mux {
		entries = append(entries, e)
	}
	t.muxMu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		mc := e.mc
		e.mu.Unlock()
		if mc != nil {
			mc.fail(errConnClosed)
		}
	}
	t.wg.Wait()
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

// serveConn handles one accepted connection: the first frame must be the
// hello, and anything else (a stray client, a port scan) closes the
// connection before any handler can run.
func (t *TCP) serveConn(conn net.Conn) {
	defer conn.Close()
	payload, err := readFrame(conn)
	if err != nil || !isMuxHello(payload) {
		return
	}
	t.serveMux(conn)
}

// serveMux runs the server half of one multiplexed connection: requests
// dispatch to handler goroutines as they arrive (many in flight), replies
// cork into batched writes in whatever order the handlers finish.
func (t *TCP) serveMux(conn net.Conn) {
	w := newCorkedWriter(conn)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		w.run()
	}()
	if err := w.enqueue(helloAckFrame()); err != nil {
		w.close()
		return
	}
	var handlers sync.WaitGroup
	for {
		payload, err := readFrame(conn)
		if err != nil {
			break
		}
		kind, id, inner, ok := parseMuxFrame(payload)
		if !ok || kind != muxReq {
			continue // unknown frame: tolerate, don't kill the connection
		}
		handlers.Add(1)
		go func(id uint64, inner []byte) {
			defer handlers.Done()
			t.serveMuxRequest(w, id, inner)
		}(id, inner)
	}
	handlers.Wait()
	w.close()
}

// serveMuxRequest decodes, dispatches, and answers one mux request.
func (t *TCP) serveMuxRequest(w *corkedWriter, id uint64, payload []byte) {
	from, to, msg, err := decodeRequest(payload)
	var reply Message
	if err == nil {
		t.mu.RLock()
		h, ok := t.handlers[to]
		t.mu.RUnlock()
		if !ok {
			err = fmt.Errorf("%w: %s", ErrUnknownNode, to)
		} else {
			reply, err = h(from, msg)
		}
	}
	frame := framePool.Get().(*[]byte)
	buf := appendMuxHeader((*frame)[:0], muxReply, id)
	buf = appendReply(buf, reply, err)
	_ = w.enqueue(buf) // a dead connection drops the reply; the caller times out
	*frame = buf
	framePool.Put(frame)
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

// Call implements Transport: local names are served directly; remote names
// go over the peer's multiplexed connection.
//
// Retry rule: a failure on a connection established by an earlier call (it
// may have been dead since the peer restarted) retries on a fresh dial; a
// failure on a freshly dialed connection reports the peer unreachable.
// Timeouts never retry — the connection is healthy, the handler is just
// slow, and a silent re-send could double a mutation.
func (t *TCP) Call(from, to string, msg Message) (Message, error) {
	t.mu.RLock()
	h, local := t.handlers[to]
	addr, remote := t.peers[to]
	t.mu.RUnlock()
	if local {
		reply, err := h(from, msg)
		if err != nil && !IsRemote(err) {
			err = remoteError{msg: err.Error()}
		}
		return reply, err
	}
	if !remote {
		return Message{}, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	for attempt := 0; attempt < 3; attempt++ {
		mc, fresh, err := t.getMux(addr)
		if err != nil {
			return Message{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err)
		}
		payload, err := mc.roundTrip(from, to, msg, t.callTimeout())
		if err == nil {
			return decodeReply(payload)
		}
		if errors.Is(err, errCallTimeout) || (fresh && err != errStaleConn) {
			return Message{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err)
		}
	}
	return Message{}, fmt.Errorf("%w: %s: connection kept dying", ErrUnreachable, to)
}

// getMux returns the live multiplexed connection for addr, dialing and
// handshaking a new one when necessary. fresh=true reports a connection
// dialed by this call (a failure on it is terminal, not retryable). Dial
// and handshake failures are gated by reconnect backoff so a dead peer
// costs at most one dial per backoff window, not one per call.
func (t *TCP) getMux(addr string) (mc *muxConn, fresh bool, err error) {
	t.muxMu.Lock()
	e := t.mux[addr]
	if e == nil {
		e = &muxEntry{}
		t.mux[addr] = e
	}
	t.muxMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mc != nil && e.mc.alive() {
		return e.mc, false, nil
	}
	e.mc = nil
	if time.Now().Before(e.nextDialAt) {
		return nil, false, fmt.Errorf("transport: dial backoff to %s", addr)
	}
	conn, err := t.dialMux(addr)
	if err != nil {
		// The gate opens a backoff after the failure is known: a dial or
		// handshake that ran into its timeout has used up more than any
		// backoff counted from its start.
		e.bumpBackoff(time.Now())
		return nil, false, err
	}
	e.backoff = 0
	e.nextDialAt = time.Time{}
	mc = newMuxConn(conn)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, false, errConnClosed
	}
	t.mu.Unlock()
	e.mc = mc
	t.wg.Add(2)
	go func() {
		defer t.wg.Done()
		mc.w.run()
	}()
	go func() {
		defer t.wg.Done()
		mc.readLoop()
		t.forgetMux(addr, mc)
	}()
	return mc, true, nil
}

// dialMux connects to addr and completes the handshake, all under the dial
// timeout.
func (t *TCP) dialMux(addr string) (net.Conn, error) {
	deadline := time.Now().Add(t.dialTimeout())
	conn, err := net.DialTimeout("tcp", addr, t.dialTimeout())
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(deadline)
	if err = writeFrame(conn, helloFrame()); err == nil {
		var ack []byte
		if ack, err = readFrame(conn); err == nil && !isMuxHelloAck(ack) {
			err = errors.New("transport: peer refused the handshake")
		}
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// bumpBackoff advances the reconnect backoff after a failed dial.
func (e *muxEntry) bumpBackoff(now time.Time) {
	if e.backoff == 0 {
		e.backoff = 50 * time.Millisecond
	} else if e.backoff *= 2; e.backoff > maxDialBackoff {
		e.backoff = maxDialBackoff
	}
	e.nextDialAt = now.Add(e.backoff)
}

// forgetMux clears addr's entry if it still points at the dead mc.
func (t *TCP) forgetMux(addr string, mc *muxConn) {
	t.muxMu.Lock()
	e := t.mux[addr]
	t.muxMu.Unlock()
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.mc == mc {
		e.mc = nil
	}
	e.mu.Unlock()
}
