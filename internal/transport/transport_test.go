package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoHandler(name string) Handler {
	return func(from string, msg Message) (Message, error) {
		return Message{Type: msg.Type + ".reply", Key: msg.Key, Args: append([]string{name, from}, msg.Args...), Body: msg.Body}, nil
	}
}

func TestLocalCallAndErrors(t *testing.T) {
	l := NewLocal()
	l.Register("b", echoHandler("b"))
	reply, err := l.Call("a", "b", Message{Type: "ping", Key: "k", Args: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Args[0] != "b" || reply.Args[1] != "a" || reply.Key != "k" {
		t.Errorf("reply = %+v", reply)
	}
	if _, err := l.Call("a", "missing", Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("expected ErrUnknownNode, got %v", err)
	}
	l.Register("fail", func(from string, msg Message) (Message, error) {
		return Message{}, fmt.Errorf("boom")
	})
	_, err = l.Call("a", "fail", Message{})
	if err == nil || !IsRemote(err) {
		t.Errorf("handler error should surface as remote error, got %v", err)
	}
	l.Unregister("b")
	if _, err := l.Call("a", "b", Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Error("unregistered node should be unknown")
	}
	if _, ok := l.handlers["fail"]; !ok || len(l.handlers) != 1 {
		t.Errorf("handlers = %v, want only fail", l.handlers)
	}
}

func TestMuxRoutesByPrefix(t *testing.T) {
	m := NewMux()
	m.Route("ov.", func(from string, msg Message) (Message, error) {
		return Message{Key: "overlay"}, nil
	})
	m.Route("cache.", func(from string, msg Message) (Message, error) {
		return Message{Key: "cache"}, nil
	})
	if r, _ := m.Serve("a", Message{Type: "ov.lookup"}); r.Key != "overlay" {
		t.Errorf("ov.lookup routed to %q", r.Key)
	}
	if r, _ := m.Serve("a", Message{Type: "cache.get"}); r.Key != "cache" {
		t.Errorf("cache.get routed to %q", r.Key)
	}
	if _, err := m.Serve("a", Message{Type: "nosuch.op"}); err == nil {
		t.Error("unrouted prefix should error")
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	cases := []Message{
		{},
		{Type: "ov.publish", Key: "abc123", Args: []string{"one", "", "three"}, Body: []byte("payload")},
		{Type: strings.Repeat("t", 300), Key: strings.Repeat("k", 1000), Body: make([]byte, 100_000)},
		{Type: "off.exec", Key: "req", Body: []byte("b"), Trace: 0xdeadbeefcafe},
		{Type: "lease.acquire", Trace: 1},
	}
	for i, msg := range cases {
		from, to, got, err := decodeRequest(appendRequest(nil, "alice", "bob", msg))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if from != "alice" || to != "bob" || got.Type != msg.Type || got.Key != msg.Key ||
			len(got.Args) != len(msg.Args) || string(got.Body) != string(msg.Body) || got.Trace != msg.Trace {
			t.Errorf("case %d: round trip mismatch", i)
		}
		rep, err := decodeReply(appendReply(nil, msg, nil))
		if err != nil {
			t.Fatalf("case %d reply: %v", i, err)
		}
		if rep.Key != msg.Key || string(rep.Body) != string(msg.Body) {
			t.Errorf("case %d: reply round trip mismatch", i)
		}
	}
	// Remote errors survive the wire.
	if _, err := decodeReply(appendReply(nil, Message{}, fmt.Errorf("kaboom"))); err == nil || !IsRemote(err) || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error reply = %v", err)
	}
	// Malformed frames fail cleanly rather than panicking.
	for _, raw := range [][]byte{nil, {0}, {1}, {0, 0xff, 0xff}, {2, 9, 9, 9}} {
		decodeReply(raw)
		decodeRequest(raw)
	}
}

// TestWireTraceIsOptionalTrailingField pins the trace id's encoding: a
// traced frame is the untraced frame plus a trailing field, and an untraced
// frame decodes with Trace zero.
func TestWireTraceIsOptionalTrailingField(t *testing.T) {
	msg := Message{Type: "rep.get", Key: "k", Body: []byte("b")}
	plain := appendRequest(nil, "a", "b", msg)
	msg.Trace = 7
	traced := appendRequest(nil, "a", "b", msg)
	if len(traced) <= len(plain) || string(traced[:len(plain)]) != string(plain) {
		t.Fatalf("traced frame is not plain frame + trailing field (%d vs %d bytes)", len(traced), len(plain))
	}
	if _, _, got, err := decodeRequest(plain); err != nil || got.Trace != 0 {
		t.Fatalf("untraced frame: trace = %d, err = %v, want 0 and nil", got.Trace, err)
	}
}

func TestTCPTransportTwoProcesses(t *testing.T) {
	// Two transports standing in for two processes, each serving one node.
	ta, tb := NewTCP(), NewTCP()
	defer ta.Close()
	defer tb.Close()
	ta.Register("alpha", echoHandler("alpha"))
	tb.Register("beta", echoHandler("beta"))
	addrA, err := ta.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := tb.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer("beta", addrB.String())
	tb.AddPeer("alpha", addrA.String())

	big := strings.Repeat("x", 1<<20)
	reply, err := ta.Call("alpha", "beta", Message{Type: "echo", Key: "k1", Body: []byte(big)})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Args[0] != "beta" || reply.Args[1] != "alpha" || len(reply.Body) != len(big) {
		t.Errorf("cross-process reply wrong: args=%v body=%d", reply.Args, len(reply.Body))
	}
	// Local short-circuit: a node served by this process is called directly.
	if reply, err := ta.Call("x", "alpha", Message{Type: "echo"}); err != nil || reply.Args[0] != "alpha" {
		t.Errorf("local call = %+v, %v", reply, err)
	}
	// Unknown target.
	if _, err := ta.Call("alpha", "gamma", Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown = %v", err)
	}
	// Remote handler errors surface as remote errors, not transport errors.
	tb.Register("boom", func(from string, msg Message) (Message, error) {
		return Message{}, fmt.Errorf("remote kaboom")
	})
	tb.AddPeer("boom", addrB.String()) // not needed but harmless
	ta.AddPeer("boom", addrB.String())
	if _, err := ta.Call("alpha", "boom", Message{}); err == nil || !IsRemote(err) {
		t.Errorf("remote handler error = %v", err)
	}
	// Dead peer is unreachable.
	ta.AddPeer("ghost", "127.0.0.1:1")
	if _, err := ta.Call("alpha", "ghost", Message{}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("dead peer = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
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
				reply, err := ta.Call("cli", "srv", Message{Type: "echo", Key: key})
				if err != nil {
					errs <- err
					return
				}
				if reply.Key != key {
					errs <- fmt.Errorf("reply key %q != %q", reply.Key, key)
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
}

func TestTCPRetriesStalePooledConn(t *testing.T) {
	ta, tb := NewTCP(), NewTCP()
	defer ta.Close()
	tb.Register("srv", echoHandler("srv"))
	addrB, err := tb.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer("srv", addrB.String())
	if _, err := ta.Call("cli", "srv", Message{Key: "warm"}); err != nil {
		t.Fatal(err)
	}
	// Restart the peer on the same address: the established connection is
	// now dead, but the next call must redial instead of reporting the healthy
	// peer unreachable.
	tb.Close()
	tb2 := NewTCP()
	defer tb2.Close()
	tb2.Register("srv", echoHandler("srv"))
	if _, err := tb2.Listen(addrB.String()); err != nil {
		t.Skipf("could not rebind %s: %v", addrB, err)
	}
	reply, err := ta.Call("cli", "srv", Message{Key: "after-restart"})
	if err != nil {
		t.Fatalf("call after peer restart should redial, got %v", err)
	}
	if reply.Key != "after-restart" {
		t.Errorf("reply = %+v", reply)
	}
}

func TestSimLatencyAndVirtualClock(t *testing.T) {
	s := NewSim(SimConfig{Seed: 1, DefaultLatency: 10 * time.Millisecond})
	s.Register("a", echoHandler("a"))
	s.Register("b", echoHandler("b"))
	if _, err := s.Call("a", "b", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	// One request + one reply at 10ms each.
	if got := s.Now(); got != 20*time.Millisecond {
		t.Errorf("virtual time = %v, want 20ms", got)
	}
	s.SetLatency("a", "b", 100*time.Millisecond)
	if _, err := s.Call("a", "b", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Now(); got != 130*time.Millisecond { // +100ms there, +10ms back
		t.Errorf("virtual time = %v, want 130ms", got)
	}
	if st := s.Stats(); st.Delivered != 2 || st.Dropped != 0 || st.Blocked != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimPartitionAndCrash(t *testing.T) {
	s := NewSim(SimConfig{Seed: 1})
	for _, n := range []string{"a", "b", "c"} {
		s.Register(n, echoHandler(n))
	}
	s.Partition([]string{"c"})
	if _, err := s.Call("a", "b", Message{}); err != nil {
		t.Errorf("same-side call failed: %v", err)
	}
	if _, err := s.Call("a", "c", Message{}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("cross-partition call = %v", err)
	}
	s.Heal()
	if _, err := s.Call("a", "c", Message{}); err != nil {
		t.Errorf("healed call failed: %v", err)
	}
	s.Crash("b")
	if !s.Crashed("b") {
		t.Error("b should be crashed")
	}
	if _, err := s.Call("a", "b", Message{}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to crashed = %v", err)
	}
	if _, err := s.Call("b", "a", Message{}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call from crashed = %v", err)
	}
	s.Restart("b")
	if _, err := s.Call("a", "b", Message{}); err != nil {
		t.Errorf("restarted call failed: %v", err)
	}
	if st := s.Stats(); st.Blocked != 3 {
		t.Errorf("blocked = %d, want 3", st.Blocked)
	}
}

func TestSimDropsAreDeterministic(t *testing.T) {
	run := func() (failures []int) {
		s := NewSim(SimConfig{Seed: 42})
		s.Register("a", echoHandler("a"))
		s.Register("b", echoHandler("b"))
		s.SetDropRate("a", "b", 0.3)
		for i := 0; i < 50; i++ {
			if _, err := s.Call("a", "b", Message{Key: fmt.Sprintf("%d", i)}); err != nil {
				failures = append(failures, i)
			}
		}
		return failures
	}
	first := run()
	if len(first) == 0 || len(first) == 50 {
		t.Fatalf("drop rate 0.3 should fail some but not all calls, failed %d/50", len(first))
	}
	for run := 0; run < 4; run++ {
		if got := fmt.Sprint(run); got == "" {
			t.Fatal("unreachable")
		}
	}
	for i := 0; i < 4; i++ {
		if again := run(); fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("drops not deterministic: %v vs %v", again, first)
		}
	}
	// A different seed gives a different pattern.
	s2 := NewSim(SimConfig{Seed: 43})
	s2.Register("a", echoHandler("a"))
	s2.Register("b", echoHandler("b"))
	s2.SetDropRate("a", "b", 0.3)
	var other []int
	for i := 0; i < 50; i++ {
		if _, err := s2.Call("a", "b", Message{Key: fmt.Sprintf("%d", i)}); err != nil {
			other = append(other, i)
		}
	}
	if fmt.Sprint(other) == fmt.Sprint(first) {
		t.Error("different seeds should (overwhelmingly) give different drop patterns")
	}
}

func TestSimScheduledFaultFiresMidTraffic(t *testing.T) {
	s := NewSim(SimConfig{Seed: 7, DefaultLatency: 10 * time.Millisecond})
	s.Register("a", echoHandler("a"))
	s.Register("b", echoHandler("b"))
	// Partition b at virtual time 35ms: the first message (delivered at
	// 10ms, reply 20ms) succeeds; the second (30ms, 40ms) loses its reply
	// mid-call; the third is blocked outright.
	s.Loop().At(35*time.Millisecond, func(now time.Duration) {
		s.Partition([]string{"b"})
	})
	if _, err := s.Call("a", "b", Message{Key: "1"}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if _, err := s.Call("a", "b", Message{Key: "2"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("second call should lose its reply to the partition, got %v", err)
	}
	if _, err := s.Call("a", "b", Message{Key: "3"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("third call should be blocked, got %v", err)
	}
}
