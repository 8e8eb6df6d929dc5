package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/store"
	"nakika/internal/transport"
)

// Span levels, outermost first. A span's parent is the innermost span of
// a lower level that was open when it started. The traced pass drives one
// connection, so every span between a client request's start and end
// belongs to that request and needs no identifier carried through the
// program; levels instead of plain nesting keep concurrent siblings (the
// two replica pushes of a State.put) from being mistaken for parent and
// child.
const (
	levelClient  = iota // client.request: request write to last body byte
	levelHandler        // core.serve_http: the http.Handler around the node
	levelCall           // upstream.* and rpc:*: calls that leave the node
	levelFS             // fs.*: the data directory
)

// span is one timed call at a seam the node's configuration exposes.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: no enclosing span (background work)
	Name   string `json:"name"`
	Level  int    `json:"level"`
	Start  int64  `json:"start_ns"` // from the recorder's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part child spans cover
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans and counts in memory; nothing is written until
// the pass has ended. While disabled the wrappers only forward, which is
// the untraced side of trace.overhead_pct.
type recorder struct {
	enabled atomic.Bool
	epoch   time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: make(map[string]int64)}
}

// begin returns the start stamp of a span, or 0 while disabled.
func (r *recorder) begin() int64 {
	if !r.enabled.Load() {
		return 0
	}
	return int64(time.Since(r.epoch)) + 1 // never 0 while enabled
}

// end records the span begun at start; a span begun while disabled is
// dropped.
func (r *recorder) end(name string, level int, start int64) {
	if start == 0 {
		return
	}
	now := int64(time.Since(r.epoch)) + 1
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Level: level, Start: start, End: now})
	r.mu.Unlock()
}

// add records a span measured elsewhere (the client's own timing).
func (r *recorder) add(name string, level int, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Level: level, Start: int64(start.Sub(r.epoch)) + 1, End: int64(end.Sub(r.epoch)) + 1})
	r.mu.Unlock()
}

// count adds n to a named counter.
func (r *recorder) count(name string, n int64) {
	if !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// take returns the recorded spans, resolved into a forest, and counts,
// and empties the recorder.
func (r *recorder) take() ([]span, map[string]int64) {
	r.mu.Lock()
	spans, counts := r.spans, r.counts
	r.spans, r.counts = nil, make(map[string]int64)
	r.mu.Unlock()
	resolve(spans)
	return spans, counts
}

// resolve sorts spans by start, assigns ids and parents by the level
// rule, and computes self times: a span's duration minus the union of
// the parts of it its direct children cover.
func resolve(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var open [levelFS + 1][]int // per level: indices of spans that may still be open
	children := make([][]int, len(spans))
	for i := range spans {
		s := &spans[i]
		s.ID, s.Parent = i, -1
		for lvl := s.Level - 1; lvl >= 0 && s.Parent < 0; lvl-- {
			// Innermost at this level: the latest-started span still open.
			live := open[lvl][:0]
			for _, j := range open[lvl] {
				if spans[j].End > s.Start {
					live = append(live, j)
				}
			}
			open[lvl] = live
			if len(live) > 0 {
				s.Parent = live[len(live)-1]
			}
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
		if s.Level < levelFS { // nothing nests under the innermost level
			open[s.Level] = append(open[s.Level], i)
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].dur() - covered(spans, spans[i], children[i])
	}
}

// covered returns how much of parent the listed spans cover: the length
// of the union of their intervals, clipped to the parent. Indices are in
// start order.
func covered(spans []span, parent span, idx []int) int64 {
	var total, reach int64
	reach = parent.Start
	for _, j := range idx {
		from, to := spans[j].Start, spans[j].End
		if from < reach {
			from = reach
		}
		if to > parent.End {
			to = parent.End
		}
		if to > from {
			total += to - from
			reach = to
		}
	}
	return total
}

// writeTrace writes spans and counts as trace-<workload>.json under dir.
func writeTrace(dir, workload string, spans []span, counts map[string]int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string           `json:"workload"`
		Levels   []string         `json:"levels"`
		Counts   map[string]int64 `json:"counts"`
		Spans    []span           `json:"spans"`
	}{workload, []string{"client", "handler", "call", "fs"}, counts, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// ---------------------------------------------------------------------------
// Wrappers at the seams core.Config exposes
// ---------------------------------------------------------------------------

// tracedHandler wraps the node's http.Handler.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.rec.begin()
	h.next.ServeHTTP(w, r)
	h.rec.end("core.serve_http", levelHandler, start)
}

// tracedUpstream wraps Config.Upstream (Do and DoStream).
type tracedUpstream struct {
	next *core.HTTPFetcher
	rec  *recorder
}

func (u tracedUpstream) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	start := u.rec.begin()
	resp, err := u.next.Do(req)
	u.rec.end("upstream.do", levelCall, start)
	u.rec.count("upstream.requests", 1)
	if resp != nil {
		u.rec.count("upstream.bytes", int64(len(resp.Body)))
	}
	return resp, err
}

func (u tracedUpstream) DoStream(req *httpmsg.Request) (core.StreamHead, io.ReadCloser, error) {
	start := u.rec.begin()
	head, body, err := u.next.DoStream(req)
	u.rec.count("upstream.requests", 1)
	if err != nil {
		u.rec.end("upstream.stream", levelCall, start)
		return head, body, err
	}
	return head, &tracedBody{ReadCloser: body, rec: u.rec, start: start}, nil
}

// tracedBody ends the upstream.stream span when the body is closed.
type tracedBody struct {
	io.ReadCloser
	rec   *recorder
	start int64
	n     int64
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.rec.end("upstream.stream", levelCall, b.start)
	b.rec.count("upstream.bytes", b.n)
	return err
}

// tracedTransport wraps Config.Transport and the ring's transport: one
// span per Call, named by message type.
type tracedTransport struct {
	next transport.Transport
	rec  *recorder
}

func (t tracedTransport) Register(name string, h transport.Handler) { t.next.Register(name, h) }
func (t tracedTransport) Unregister(name string)                    { t.next.Unregister(name) }

func (t tracedTransport) Call(from, to string, msg transport.Message) (transport.Message, error) {
	start := t.rec.begin()
	reply, err := t.next.Call(from, to, msg)
	t.rec.end("rpc:"+msg.Type, levelCall, start)
	t.rec.count("rpc.calls", 1)
	t.rec.count("rpc.bytes", messageBytes(msg)+messageBytes(reply))
	return reply, err
}

func messageBytes(m transport.Message) int64 {
	n := len(m.Type) + len(m.Key) + len(m.Body)
	for _, a := range m.Args {
		n += len(a)
	}
	return int64(n)
}

// tracedFS wraps Config.DataFS. Span and counter names carry the
// top-level directory: cache (disk cache tier), state (WAL and
// snapshots), lob (large-object manifests and slab).
type tracedFS struct {
	next store.FS
	rec  *recorder
}

func area(name string) string {
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return "root"
}

func (f tracedFS) file(name string, open func(string) (store.File, error)) (store.File, error) {
	start := f.rec.begin()
	file, err := open(name)
	f.rec.end("fs.open:"+area(name), levelFS, start)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, rec: f.rec, area: area(name)}, nil
}

func (f tracedFS) Create(name string) (store.File, error)     { return f.file(name, f.next.Create) }
func (f tracedFS) OpenAppend(name string) (store.File, error) { return f.file(name, f.next.OpenAppend) }

func (f tracedFS) Open(name string) (io.ReadCloser, error) {
	start := f.rec.begin()
	rc, err := f.next.Open(name)
	if err != nil {
		f.rec.end("fs.read:"+area(name), levelFS, start)
		return nil, err
	}
	return &tracedRead{ReadCloser: rc, rec: f.rec, area: area(name), start: start}, nil
}

func (f tracedFS) List(prefix string) ([]string, error) { return f.next.List(prefix) }

func (f tracedFS) Remove(name string) error {
	start := f.rec.begin()
	err := f.next.Remove(name)
	f.rec.end("fs.remove:"+area(name), levelFS, start)
	return err
}

func (f tracedFS) Rename(oldName, newName string) error {
	start := f.rec.begin()
	err := f.next.Rename(oldName, newName)
	f.rec.end("fs.rename:"+area(newName), levelFS, start)
	return err
}

func (f tracedFS) SyncDir(name string) error {
	start := f.rec.begin()
	err := f.next.SyncDir(name)
	f.rec.end("fs.syncdir:"+area(name), levelFS, start)
	return err
}

type tracedFile struct {
	store.File
	rec  *recorder
	area string
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.rec.begin()
	n, err := f.File.Write(p)
	f.rec.end("fs.write:"+f.area, levelFS, start)
	f.rec.count("fs.write_bytes:"+f.area, int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.rec.begin()
	err := f.File.Sync()
	f.rec.end("fs.sync:"+f.area, levelFS, start)
	return err
}

// tracedRead spans a sequential read from Open to Close.
type tracedRead struct {
	io.ReadCloser
	rec   *recorder
	area  string
	start int64
	n     int64
}

func (r *tracedRead) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n += int64(n)
	return n, err
}

func (r *tracedRead) Close() error {
	err := r.ReadCloser.Close()
	r.rec.end("fs.read:"+r.area, levelFS, r.start)
	r.rec.count("fs.read_bytes:"+r.area, r.n)
	return err
}
