package core

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/store"
)

// logSite is the site logOrigin serves: its script posts the site's access
// log to logSite/log.
const logSite = "http://log.example.org"

// logOrigin serves logSite: the script, /big (a large object of body), and
// a small page at every other path. It keeps the access-log posts it was
// sent, and a path with a gate is held there until the gate closes; each
// held request first sends its path on held.
type logOrigin struct {
	mu    sync.Mutex
	body  []byte
	posts []string
	hits  map[string]int
	gates map[string]chan struct{}
	held  chan string
}

func newLogOrigin(body []byte) *logOrigin {
	return &logOrigin{body: body, hits: map[string]int{}, gates: map[string]chan struct{}{}, held: make(chan string)}
}

func (o *logOrigin) gate(path string) {
	o.mu.Lock()
	o.gates[path] = make(chan struct{})
	o.mu.Unlock()
}

func (o *logOrigin) release(path string) {
	o.mu.Lock()
	close(o.gates[path])
	delete(o.gates, path)
	o.mu.Unlock()
}

func (o *logOrigin) hitCount(path string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.hits[path]
}

// posted returns the access-log posts so far, joined.
func (o *logOrigin) posted() (int, string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.posts), strings.Join(o.posts, "\n")
}

func (o *logOrigin) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	path := req.URL.Path
	o.mu.Lock()
	o.hits[path]++
	gate := o.gates[path]
	o.mu.Unlock()
	if gate != nil {
		o.held <- path
		<-gate
	}
	var resp *httpmsg.Response
	switch {
	case req.URL.Host != "log.example.org":
		return httpmsg.NewTextResponse(404, "not found"), nil
	case req.Method == http.MethodPost:
		o.mu.Lock()
		o.posts = append(o.posts, string(req.Body))
		o.mu.Unlock()
		return httpmsg.NewTextResponse(200, "logged"), nil
	case path == "/nakika.js":
		resp = httpmsg.NewTextResponse(200, `Log.postTo("`+logSite+`/log");`)
	case path == "/big":
		resp = httpmsg.NewResponse(200)
		resp.Header.Set("Content-Type", "application/octet-stream")
		resp.Body = append([]byte(nil), o.body...)
	default:
		resp = httpmsg.NewHTMLResponse(200, "<html>"+path+"</html>")
	}
	resp.SetMaxAge(600)
	return resp, nil
}

// TestTickSchedule pins Tick's schedule on a fake clock, driven the way
// nakikad's ticker drives it, one Tick per control interval. At boot only
// the catch-up runs; Maintain follows 5 s after it returns and every 5 s
// from then on; the control procedure runs every interval and the log
// flush every minute. A Tick held in a log post to a gated origin does not
// hold back control in a concurrent Tick, and after Stop no Tick runs
// anything.
func TestTickSchedule(t *testing.T) {
	clock := newTestClock()
	boot := clock.Now()
	origin := newLogOrigin(nil)
	nodes, _, _ := routeRing(t, 2, origin, func(cfg *Config) {
		cfg.Clock = clock.Now
		cfg.EnableResources = true
	})
	n := nodes[0]
	interval := n.Resources().ControlInterval()
	ran := func() (catchUps, rounds, controls int64) {
		return n.Stats().CatchUp.Attempts, n.maintRounds.Load(), n.Resources().Stats().ControlRuns
	}
	get := func() {
		t.Helper()
		if resp, _, err := n.Handle(httpmsg.MustRequest("GET", logSite+"/page")); err != nil || resp.Status != 200 {
			t.Fatalf("GET: %v, %v", resp, err)
		}
	}

	if next := n.Tick(); !next.Equal(boot.Add(interval)) {
		t.Fatalf("the boot Tick says the next job is due at %v, want one control interval on", next.Sub(boot))
	}
	if c, r, k := ran(); c != 1 || r != 0 || k != 0 {
		t.Fatalf("at boot: %d catch-ups, %d rounds, %d control runs; want the catch-up alone", c, r, k)
	}
	if n.Stats().CatchUp.Pending {
		t.Fatal("the boot catch-up did not clear")
	}
	steps := int64(3 * time.Minute / interval)
	for step := int64(1); step <= steps; step++ {
		clock.Advance(interval)
		at := time.Duration(step) * interval
		if at%time.Minute == 30*time.Second {
			get() // a line for the next flush to post
		}
		if step == steps {
			break // the last step is the concurrent one below
		}
		if next := n.Tick(); !next.Equal(clock.Now().Add(interval)) {
			t.Fatalf("at %v the next job is due at %v, want the next control interval", at, next.Sub(boot))
		}
		_, r, k := ran()
		if k != step || r != int64(at/roundInterval) {
			t.Fatalf("at %v: %d rounds and %d control runs, want %d and %d", at, r, k, at/roundInterval, step)
		}
		if posts, _ := origin.posted(); posts != int(at/time.Minute) {
			t.Fatalf("at %v: %d log posts, want %d", at, posts, at/time.Minute)
		}
	}

	// At 3 min control, a round and a flush are due. The flush's post is
	// held at the origin, and one control interval later a second Tick
	// still runs control on time.
	origin.gate("/log")
	held := make(chan struct{})
	go func() { n.Tick(); close(held) }()
	<-origin.held
	_, r, k := ran()
	clock.Advance(interval)
	n.Tick()
	if _, r2, k2 := ran(); k2 != k+1 || r2 != r {
		t.Fatalf("beside a held log post, a Tick ran %d control runs and %d rounds, want 1 and 0", k2-k, r2-r)
	}
	origin.release("/log")
	<-held
	if posts, _ := origin.posted(); posts != 3 {
		t.Fatalf("%d log posts after the held one was let through, want 3", posts)
	}

	if err := n.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, r, k := ran()
	for i := 0; i < 4; i++ {
		clock.Advance(time.Minute)
		if next := n.Tick(); !next.IsZero() {
			t.Fatalf("a Tick after Stop says a job is due at %v", next)
		}
	}
	if c2, r2, k2 := ran(); c2 != c || r2 != r || k2 != k {
		t.Fatalf("Ticks after Stop ran %d catch-ups, %d rounds and %d control runs", c2-c, r2-r, k2-k)
	}
}

// TestStopFinishesAStreamedGet calls Stop while a GET of a large object is
// streaming through Serve, and while a second request's origin fetch is held
// until the drain has begun. The stream still arrives whole, and so does the
// held reply. The access log's lines, the held request's too, reach the
// origin, so the flush came after the drain; the engines were flushed and
// synced; and no Tick runs anything again.
func TestStopFinishesAStreamedGet(t *testing.T) {
	const size = 16 << 20
	origin := newLogOrigin(lobBody(size))
	fs := store.NewMemFS()
	clock := newTestClock()
	config := func(cfg *Config) {
		lobConfig(256<<10, 1<<20)(cfg)
		cfg.LargeObjectCapacity = 64 << 20
		cfg.DataFS = fs
		cfg.Clock = clock.Now
		cfg.EnableResources = true
	}
	n := newTestNodeUpstream(t, "edge-stop", origin, config)
	n.Tick()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- n.Serve(ln) }()
	type result struct {
		body []byte
		err  error
	}
	// get sends a GET for path through the client port; rest reads the
	// reply's body after what head holds.
	get := func(path string) (*http.Response, error) {
		req, err := http.NewRequest("GET", "http://"+ln.Addr().String()+path, nil)
		if err != nil {
			return nil, err
		}
		req.Host = "log.example.org"
		return http.DefaultClient.Do(req)
	}
	rest := func(resp *http.Response, err error, head []byte) result {
		if err != nil {
			return result{nil, err}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return result{append(head, body...), err}
	}
	for _, path := range []string{"/small", "/big"} { // /big goes into the tier
		resp, err := get(path)
		if r := rest(resp, err, nil); r.err != nil {
			t.Fatal(r.err)
		}
	}
	if err := n.StatePut("log.example.org", "k", "v"); err != nil {
		t.Fatal(err)
	}

	stream, err := get("/big")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 256<<10)
	if _, err := io.ReadFull(stream.Body, head); err != nil {
		t.Fatal(err)
	}
	origin.gate("/held")
	held := make(chan result, 1)
	go func() {
		resp, err := get("/held")
		held <- rest(resp, err, nil)
	}()
	<-origin.held
	stopped := make(chan error, 1)
	go func() { stopped <- n.Stop(context.Background()) }()
	if err := <-served; err != nil { // the drain has closed the listener
		t.Fatalf("Serve: %v", err)
	}
	streamed := make(chan result, 1)
	go func() { streamed <- rest(stream, nil, head) }()
	origin.release("/held")
	if r := <-streamed; r.err != nil || !bytes.Equal(r.body, origin.body) {
		t.Fatalf("GET /big during Stop: %d of %d bytes, %v", len(r.body), size, r.err)
	}
	if r := <-held; r.err != nil || string(r.body) != "<html>/held</html>" {
		t.Fatalf("GET /held during Stop: %q, %v", r.body, r.err)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if n.lobStreamed.Load() == 0 {
		t.Fatal("GET /big was not served as a stream")
	}
	_, posted := origin.posted()
	for _, path := range []string{"/small", "/big", "/held"} {
		if !strings.Contains(posted, " "+logSite+path+" ") {
			t.Errorf("no access-log line for %s reached the origin; it got:\n%s", path, posted)
		}
	}
	controls := n.Resources().Stats().ControlRuns
	clock.Advance(2 * time.Minute)
	if next := n.Tick(); !next.IsZero() || n.Resources().Stats().ControlRuns != controls {
		t.Errorf("a Tick after Stop ran control or says a job is due at %v", next)
	}

	// A node reopened on the data filesystem finds what Shutdown flushed:
	// the memory tier's page, the large object and the hard state. After
	// the bytes not synced are dropped, the hard state is still there.
	reopened := newTestNodeUpstream(t, "edge-stop", origin, config)
	for _, path := range []string{"/small", "/big"} {
		hits := origin.hitCount(path)
		resp, _, err := reopened.Handle(httpmsg.MustRequest("GET", logSite+path))
		if err != nil || resp.Status != 200 {
			t.Fatalf("GET %s after the reopen: %v, %v", path, resp, err)
		}
		if origin.hitCount(path) != hits {
			t.Errorf("GET %s after the reopen went to the origin", path)
		}
	}
	if err := reopened.Shutdown(); err != nil {
		t.Fatal(err)
	}
	fs.DropUnsynced()
	if v, ok := newTestNodeUpstream(t, "edge-stop", origin, config).StateGet("log.example.org", "k"); v != "v" {
		t.Errorf("hard state after Stop and the loss of unsynced bytes: %q, %v", v, ok)
	}
}

// TestConcurrentFlushesPostOnce: a flush that starts while another is held
// posting a site's lines at the origin waits for it, and the lines reach the
// origin once. Stop's flush overlaps a Tick's still in flight this way.
func TestConcurrentFlushesPostOnce(t *testing.T) {
	origin := newLogOrigin(nil)
	n := newTestNodeUpstream(t, "edge-flush", origin, nil)
	if resp, _, err := n.Handle(httpmsg.MustRequest("GET", logSite+"/page")); err != nil || resp.Status != 200 {
		t.Fatalf("GET: %v, %v", resp, err)
	}
	origin.gate("/log")
	flushed := make(chan error, 2)
	go func() { flushed <- n.FlushLogs() }()
	<-origin.held
	go func() { flushed <- n.FlushLogs() }()
	// A second flush that does not wait posts the same lines; the timeout
	// bounds how long it has to show up at the gate.
	select {
	case <-origin.held:
	case <-time.After(200 * time.Millisecond):
	}
	origin.release("/log")
	for i := 0; i < 2; i++ {
		if err := <-flushed; err != nil {
			t.Fatal(err)
		}
	}
	posts, posted := origin.posted()
	if lines := strings.Count(posted, " "+logSite+"/page "); posts != 1 || lines != 1 {
		t.Fatalf("two flushes at once made %d posts carrying the line %d times, want 1 and 1:\n%s", posts, lines, posted)
	}
}
