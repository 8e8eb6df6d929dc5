// Package transport abstracts node-to-node communication for the overlay
// and the cooperative-caching / state-replication paths, so the same
// protocol code runs over three substrates:
//
//   - Local: direct in-process calls (the original single-process mode),
//   - TCP: a length-prefixed wire codec for real multi-process clusters,
//   - Sim: a deterministic in-memory network driven by the simnet event
//     loop, with per-edge latency, message drops, partitions, and node
//     crash/restart under a seeded RNG.
//
// A node registers a handler under its name; peers reach it with Call.
// Registration is last-writer-wins: re-registering a name replaces the
// handler, which layered subsystems use to wrap the overlay's handler with
// a dispatching mux (see Mux).
package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Message is one request or reply between nodes. Type selects the operation
// (namespaced by subsystem: "ov.lookup" overlay routing, "cache.get"
// cooperative cache, "rep.put"/"rep.get"/"rep.store"/"rep.sync"
// successor-list replication of hard state), Key
// carries the primary argument, Args carries auxiliary strings, and Body
// carries an opaque payload.
type Message struct {
	Type string
	Key  string
	Args []string
	Body []byte
	// Trace is the originating request's cross-node trace id; zero means
	// untraced. It rides every transport (the wire codec appends it only
	// when set, so untraced traffic carries no bytes for it).
	Trace uint64
}

// Handler serves one incoming message and returns the reply.
type Handler func(from string, msg Message) (Message, error)

// Transport moves messages between named nodes.
type Transport interface {
	// Register makes the named node reachable, replacing any previous
	// handler for the name.
	Register(name string, h Handler)
	// Unregister removes the named node.
	Unregister(name string)
	// Call delivers msg from one named node to another and returns the
	// reply.
	Call(from, to string, msg Message) (Message, error)
}

// Errors shared by all transports. Sim wraps ErrUnreachable for partitions
// and crashes so protocol code can treat every delivery failure uniformly.
var (
	// ErrUnknownNode reports a Call to a name with no registration/route.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrUnreachable reports a delivery failure (partition, crash, drop,
	// or network error).
	ErrUnreachable = errors.New("transport: node unreachable")
)

// remoteError carries a handler-side failure back to the caller as a value,
// keeping transport failures (ErrUnreachable) distinguishable from
// application errors.
type remoteError struct{ msg string }

func (e remoteError) Error() string { return "transport: remote error: " + e.msg }

// IsRemote reports whether err is an application-level error returned by
// the remote handler (as opposed to a delivery failure).
func IsRemote(err error) bool {
	var re remoteError
	return errors.As(err, &re)
}

// ---------------------------------------------------------------------------
// Local: direct in-process calls
// ---------------------------------------------------------------------------

// Local is the direct-call transport: handlers are invoked synchronously in
// the caller's goroutine. It preserves the seed repository's behavior where
// every node lives in one process and communicates through method calls.
type Local struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewLocal returns an empty in-process transport.
func NewLocal() *Local { return &Local{handlers: make(map[string]Handler)} }

// Register implements Transport.
func (l *Local) Register(name string, h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handlers[name] = h
}

// Unregister implements Transport.
func (l *Local) Unregister(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.handlers, name)
}

// Call implements Transport.
func (l *Local) Call(from, to string, msg Message) (Message, error) {
	l.mu.RLock()
	h, ok := l.handlers[to]
	l.mu.RUnlock()
	if !ok {
		return Message{}, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	reply, err := h(from, msg)
	if err != nil && !IsRemote(err) {
		err = remoteError{msg: err.Error()}
	}
	return reply, err
}

// ---------------------------------------------------------------------------
// Mux: per-node dispatch by message-type prefix
// ---------------------------------------------------------------------------

// Mux routes incoming messages to subsystem handlers by message-type
// prefix, so one registered name can serve the overlay ("ov."), the
// cooperative cache ("cache."), and state replication ("state.") at once.
type Mux struct {
	mu     sync.RWMutex
	routes map[string]Handler
}

// NewMux returns an empty mux.
func NewMux() *Mux { return &Mux{routes: make(map[string]Handler)} }

// Route installs h for every message whose Type starts with prefix.
func (m *Mux) Route(prefix string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes[prefix] = h
}

// Serve dispatches msg to the handler with the longest matching prefix; it
// is itself a Handler, suitable for Transport.Register.
func (m *Mux) Serve(from string, msg Message) (Message, error) {
	m.mu.RLock()
	var best Handler
	bestLen := -1
	for prefix, h := range m.routes {
		if strings.HasPrefix(msg.Type, prefix) && len(prefix) > bestLen {
			best, bestLen = h, len(prefix)
		}
	}
	m.mu.RUnlock()
	if best == nil {
		return Message{}, fmt.Errorf("transport: no route for message type %q", msg.Type)
	}
	return best(from, msg)
}
