package transport

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMuxSharesOneConnection pins the point of the mux protocol: any number
// of calls to one peer ride a single TCP connection.
func TestMuxSharesOneConnection(t *testing.T) {
	ta, tb := NewTCP(), NewTCP()
	defer ta.Close()
	defer tb.Close()
	tb.Register("srv", echoHandler("srv"))
	addrB, err := tb.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer("srv", addrB.String())

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				body := []byte(strings.Repeat("b", 1024*(g+1)))
				reply, err := ta.Call("cli", "srv", Message{Type: "echo", Key: key, Body: body})
				if err != nil {
					errs <- err
					return
				}
				if reply.Key != key || len(reply.Body) != len(body) {
					errs <- fmt.Errorf("reply mismatch for %s", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	tb.mu.Lock()
	conns := len(tb.accepted)
	tb.mu.Unlock()
	if conns != 1 {
		t.Errorf("64 calls used %d connections, want 1 multiplexed connection", conns)
	}
}

// TestNonHelloFirstFrameClosesConn pins the check on outside input at the
// door: a connection whose first frame is anything but the hello — here a
// well-formed request payload for a registered node — is closed, and no
// handler runs.
func TestNonHelloFirstFrameClosesConn(t *testing.T) {
	tb := NewTCP()
	defer tb.Close()
	var handled atomic.Int64
	tb.Register("srv", func(from string, msg Message) (Message, error) {
		handled.Add(1)
		return Message{}, nil
	})
	addr, err := tb.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	firstFrames := map[string][]byte{
		"request payload": appendRequest(nil, "cli", "srv", Message{Type: "echo"}),
		"mux request":     appendRequest(appendMuxHeader(nil, muxReq, 1), "cli", "srv", Message{Type: "echo"}),
		"hello ack":       helloAckFrame(),
		"empty":           {},
	}
	for name, first := range firstFrames {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, first); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if frame, err := readFrame(conn); err != io.EOF {
			t.Errorf("%s: server answered %x, %v; want the connection closed", name, frame, err)
		}
		conn.Close()
	}
	if n := handled.Load(); n != 0 {
		t.Errorf("handler ran %d times for connections that never said hello", n)
	}
}

// fakeListener accepts connections, counts them, and hands each to serve.
func fakeListener(t *testing.T, serve func(net.Conn)) (addr string, accepts *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts = new(atomic.Int64)
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String(), accepts
}

// TestHandshakeRefusalIsDialFailure pins the client half: a peer that
// answers the hello with anything but the ack is unreachable, behind the
// same backoff gate as a refused connection.
func TestHandshakeRefusalIsDialFailure(t *testing.T) {
	addr, accepts := fakeListener(t, func(conn net.Conn) {
		if _, err := readFrame(conn); err == nil {
			_ = writeFrame(conn, appendReply(nil, Message{}, errors.New("what hello?")))
			_, _ = readFrame(conn) // hold the connection until the client hangs up
		}
	})
	tr := NewTCP()
	defer tr.Close()
	tr.AddPeer("odd", addr)
	for i := 0; i < 2; i++ {
		if _, err := tr.Call("cli", "odd", Message{}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d to a peer that refuses the handshake = %v", i, err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("%d connections for two calls inside one backoff window, want 1", n)
	}
}

// TestDialBackoffCountsFromTheFailure is the regression test for the gate
// that never closed: a peer that accepts and then says nothing costs a full
// DialTimeout per handshake, and a backoff counted from before the dial
// had already run out when the failure came back, so every queued caller
// dialed the black hole again.
func TestDialBackoffCountsFromTheFailure(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	addr, accepts := fakeListener(t, func(net.Conn) { <-hold })
	tr := NewTCP()
	defer tr.Close()
	tr.DialTimeout = 50 * time.Millisecond
	tr.AddPeer("hole", addr)
	for i := 0; i < 2; i++ {
		if _, err := tr.Call("cli", "hole", Message{}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d to a black-holed peer = %v", i, err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("second call, issued as soon as the first failed, dialed again (%d accepts)", n)
	}
}

// TestMuxCallTimeoutLeavesConnUsable pins per-call timeouts: a slow handler
// times out its own call without killing the shared connection, and the
// late reply for the abandoned ID is dropped rather than crossing wires.
func TestMuxCallTimeoutLeavesConnUsable(t *testing.T) {
	ta, tb := NewTCP(), NewTCP()
	defer ta.Close()
	defer tb.Close()
	ta.CallTimeout = 50 * time.Millisecond
	release := make(chan struct{})
	tb.Register("srv", func(from string, msg Message) (Message, error) {
		if msg.Key == "slow" {
			<-release
		}
		return Message{Key: msg.Key}, nil
	})
	addrB, err := tb.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer("srv", addrB.String())

	if _, err := ta.Call("cli", "srv", Message{Key: "slow"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("slow call should time out as unreachable, got %v", err)
	}
	close(release) // let the abandoned handler finish and send its late reply
	for i := 0; i < 3; i++ {
		reply, err := ta.Call("cli", "srv", Message{Key: fmt.Sprintf("fast%d", i)})
		if err != nil {
			t.Fatalf("call after timeout: %v", err)
		}
		if reply.Key != fmt.Sprintf("fast%d", i) {
			t.Errorf("late reply crossed wires: got %+v", reply)
		}
	}

	tb.mu.Lock()
	conns := len(tb.accepted)
	tb.mu.Unlock()
	if conns != 1 {
		t.Errorf("timeout should not kill the connection, server sees %d conns", conns)
	}
}

// TestMuxDialBackoff pins reconnect backoff: calls to a dead peer fail fast
// once the backoff gate is set instead of re-dialing per call.
func TestMuxDialBackoff(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	tr.DialTimeout = 100 * time.Millisecond
	// A listener that is closed immediately gives us an address that
	// refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	tr.AddPeer("dead", addr)

	if _, err := tr.Call("cli", "dead", Message{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dead peer = %v", err)
	}
	tr.muxMu.Lock()
	e := tr.mux[addr]
	tr.muxMu.Unlock()
	if e == nil {
		t.Fatal("no mux entry for dead peer")
	}
	e.mu.Lock()
	backoff, gated := e.backoff, time.Now().Before(e.nextDialAt)
	e.mu.Unlock()
	if backoff == 0 || !gated {
		t.Errorf("dial failure should set backoff, got backoff=%v gated=%v", backoff, gated)
	}
	// Within the backoff window the call still reports unreachable (without
	// burning another dial — pinned by the gate check above).
	if _, err := tr.Call("cli", "dead", Message{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("gated call = %v", err)
	}
}

// TestMuxFrameHelpers pins the frame-level encoding the two sides agree on.
func TestMuxFrameHelpers(t *testing.T) {
	if !isMuxHello(helloFrame()) || isMuxHello(helloAckFrame()) {
		t.Error("hello frame classification broken")
	}
	if !isMuxHelloAck(helloAckFrame()) || isMuxHelloAck(helloFrame()) {
		t.Error("helloAck frame classification broken")
	}
	frame := appendMuxHeader(nil, muxReq, 12345)
	frame = append(frame, []byte("payload")...)
	kind, id, inner, ok := parseMuxFrame(frame)
	if !ok || kind != muxReq || id != 12345 || string(inner) != "payload" {
		t.Errorf("parseMuxFrame = %v %v %q %v", kind, id, inner, ok)
	}
	for _, bad := range [][]byte{nil, {muxMagic}, {muxMagic, muxReq}, {muxMagic, 0x7f, 1}, helloFrame(),
		appendRequest(nil, "node-a", "node-b", Message{Type: "echo"})} {
		if _, _, _, ok := parseMuxFrame(bad); ok {
			t.Errorf("parseMuxFrame(%x) should not parse as a request or reply", bad)
		}
	}
}

// TestWireGolden pins the bytes on the wire to literals captured from the
// build before the one-shot protocol was removed, so a ring can be upgraded
// node by node: the handshake, one request and one reply.
func TestWireGolden(t *testing.T) {
	msg := Message{Type: "rep.store", Key: "user:alice", Args: []string{"a1", ""}, Body: []byte("body")}
	traced := msg
	traced.Trace = 0xabc
	reply := Message{Type: "rep.ok", Key: "user:alice", Args: []string{"x"}, Body: []byte("ok")}
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"hello", helloFrame(), "00f16e6b6d757831"},
		{"ack", helloAckFrame(), "00f26e6b6d757831"},
		{"request", appendRequest(appendMuxHeader(nil, muxReq, 300), "edge-1", "edge-2", msg),
			"00f3ac0206656467652d3106656467652d32097265702e73746f72650a757365723a616c696365020261310004626f6479"},
		{"traced request", appendRequest(appendMuxHeader(nil, muxReq, 300), "edge-1", "edge-2", traced),
			"00f3ac0206656467652d3106656467652d32097265702e73746f72650a757365723a616c696365020261310004626f6479bc15"},
		{"reply", appendReply(appendMuxHeader(nil, muxReply, 300), reply, nil),
			"00f4ac0200067265702e6f6b0a757365723a616c696365010178026f6b"},
		{"error reply", appendReply(appendMuxHeader(nil, muxReply, 300), Message{}, errors.New("boom")),
			"00f4ac020104626f6f6d"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s frame = %s, want %s", c.name, got, c.want)
		}
	}
	// And the parent's bytes decode to the same messages.
	raw, _ := hex.DecodeString(cases[3].want)
	_, id, inner, ok := parseMuxFrame(raw)
	from, to, got, err := decodeRequest(inner)
	if !ok || id != 300 || err != nil || from != "edge-1" || to != "edge-2" || !reflect.DeepEqual(got, traced) {
		t.Errorf("captured request decodes to %q %q %+v (id %d, ok %v, err %v)", from, to, got, id, ok, err)
	}
	raw, _ = hex.DecodeString(cases[4].want)
	_, _, inner, _ = parseMuxFrame(raw)
	if got, err := decodeReply(inner); err != nil || !reflect.DeepEqual(got, reply) {
		t.Errorf("captured reply decodes to %+v, %v", got, err)
	}
}

// FuzzMuxFrames feeds arbitrary bytes to everything that parses a frame
// off the socket: none of it may panic or allocate past the frame.
func FuzzMuxFrames(f *testing.F) {
	f.Add(helloFrame())
	f.Add(appendRequest(appendMuxHeader(nil, muxReq, 7), "a", "b", Message{Type: "rep.get", Key: "k", Args: []string{"x"}, Body: []byte("b"), Trace: 9}))
	f.Add(appendReply(appendMuxHeader(nil, muxReply, 7), Message{Key: "k", Body: []byte("b")}, nil))
	f.Add(appendReply(appendMuxHeader(nil, muxReply, 7), Message{}, errors.New("boom")))
	f.Add([]byte{muxMagic, muxReq, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, inner, ok := parseMuxFrame(data); ok {
			_, _, _, _ = decodeRequest(inner)
			_, _ = decodeReply(inner)
		}
		_, _, _, _ = decodeRequest(data)
		_, _ = decodeReply(data)
		_, _ = isMuxHello(data), isMuxHelloAck(data)
	})
}
