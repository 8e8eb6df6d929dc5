package core

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"nakika/internal/httpmsg"
	nktrace "nakika/internal/trace"
)

// TestLentResponseNeverReachesAJoiner: a cache hit fills the Response and
// the body buffer its client connection lends (httpmsg.Reuse), and the
// connection fills them again for its next hit, so what is lent must stay
// with the request it was lent to. A flight's leader hands its reply to
// every joiner, and its pass through the chain (fetchMiss) answers from the
// cache when another flight stored the page in between: that reply must be
// the leader's own. It must still read as its page after the leader's
// connection serves two more hits, and so must the copy the tier holds.
func TestLentResponseNeverReachesAJoiner(t *testing.T) {
	origin := newMemOrigin()
	a, b := strings.Repeat("a", 1000), strings.Repeat("b", 1000)
	origin.addText("http://o.example/a", a, 3600)
	origin.addText("http://o.example/b", b, 3600)
	n := newTestNode(t, "edge-lent", origin, nil)
	var reuse httpmsg.Reuse
	stage := func(u string) *httpmsg.Request {
		req := httpmsg.AcquireRequest()
		req.Method = "GET"
		req.SetURLCopy(httpmsg.MustRequest("GET", u).URL)
		req.SetReuse(&reuse)
		return req
	}
	for _, u := range []string{"http://o.example/a", "http://o.example/b"} {
		if resp, _, err := n.Handle(httpmsg.MustRequest("GET", u)); err != nil || resp.Status != 200 {
			t.Fatalf("warm %s: %v, %v", u, resp, err)
		}
	}

	// The connection's hit of /a: lent.
	hit, err := n.fetchWithCache(stage("http://o.example/a"))
	if err != nil || string(hit.Body) != a {
		t.Fatalf("hit: %v, %v", hit, err)
	}
	// The leader's pass for /a on the same connection's next request, as
	// a flight runs it: its reply goes to every joiner.
	leader := stage("http://o.example/a")
	key := leader.CacheKey()
	shared, err := n.fetchMiss(key, leader)
	if err != nil || shared == nil || string(shared.Body) != a {
		t.Fatalf("leader's pass: %v, %v", shared, err)
	}
	// The connection's next two hits refill what it lends.
	for _, u := range []string{"http://o.example/b", "http://o.example/b"} {
		if resp, err := n.fetchWithCache(stage(u)); err != nil || string(resp.Body) != b {
			t.Fatalf("hit of %s: %v, %v", u, resp, err)
		}
	}
	if shared.Status != 200 || string(shared.Body) != a || !shared.FromCache {
		t.Errorf("the reply a flight's joiners share reads status %d, %.8q..., after its leader's connection served two more hits: it was lent", shared.Status, shared.Body)
	}
	if got := n.cache.Get(key); got == nil || string(got.Body) != a {
		t.Errorf("the memory tier's copy of /a reads %v after the connection's hits", got)
	}
}

// TestRetainedSampleOutlivesItsConnection: the trace ring copies each
// request's sample, its URL and its spans included, out of the trace the
// client connection lends, and a reader gets copies of the ring's. The
// connection resets that trace for each of its requests, so neither the
// ring's sample of a scripted request nor one a reader retains may alias
// it: after the same connection serves 200 more hits the ring still shows
// the first request's spans, and after 300 the sample retained from the
// ring still reads its URL and spans.
func TestRetainedSampleOutlivesItsConnection(t *testing.T) {
	origin := newMemOrigin()
	origin.addScript("http://o.example/nakika.js", `
		var p = new Policy();
		p.url = [ "o.example/first" ];
		p.onResponse = function() { Response.setHeader("X-Seen", "1"); };
		p.register();
	`)
	origin.addText("http://o.example/first", "first page", 3600)
	origin.addText("http://o.example/other", "other page", 3600)
	n := newTestNode(t, "edge-samples", origin, nil)
	l := newPipeListener()
	go n.Serve(l)
	defer l.Close()
	c := &pipeClient{conn: l.dial(), body: make([]byte, 64<<10)}
	defer c.conn.Close()
	c.br = bufio.NewReaderSize(c.conn, 64<<10)
	c.reqs = [][]byte{[]byte("GET /first HTTP/1.1\r\nHost: o.example\r\n\r\n")}
	c.roundTrip(t)

	find := func(samples []*nktrace.Sample, url string) *nktrace.Sample {
		for _, s := range samples {
			if s.URL() == url {
				return s
			}
		}
		return nil
	}
	retained := find(n.Traces().Snapshot(), "o.example/first")
	if retained == nil {
		t.Fatal("no sample of /first in the ring")
	}
	spans := func(s *nktrace.Sample) []string {
		var names []string
		for _, sp := range s.Spans[:s.NSpans] {
			names = append(names, sp.Name)
		}
		return names
	}
	want := strings.Join(spans(retained), ",")
	if want != "origin,http://o.example/nakika.js" {
		t.Fatalf("spans of /first: %s, want the origin fetch and the site's handler", want)
	}
	id := retained.TraceID

	c.reqs, c.next = [][]byte{[]byte("GET /other HTTP/1.1\r\nHost: o.example\r\n\r\n")}, 0
	for range 200 {
		c.roundTrip(t)
	}
	var inRing *nktrace.Sample
	for _, s := range n.Traces().Snapshot() {
		if s.TraceID == id {
			inRing = s
		}
	}
	if inRing == nil || inRing.URL() != "o.example/first" || strings.Join(spans(inRing), ",") != want {
		t.Errorf("the ring's sample of /first after 200 more hits on its connection: %+v, want URL o.example/first and spans %s", inRing, want)
	}
	for range 100 {
		c.roundTrip(t)
	}
	if retained.TraceID != id || retained.URL() != "o.example/first" || strings.Join(spans(retained), ",") != want {
		t.Errorf("the retained sample of /first after 300 more hits on its connection: id %x, URL %q, spans %v; want %x, o.example/first, %s",
			retained.TraceID, retained.URL(), spans(retained), id, want)
	}
}

// TestScriptKeepsNoLentMemory: a request goes back to the pool once its
// response is written, handlers or not, and its connection keeps the
// Response it lent for the next request, so nothing a script keeps past
// its run may reach either. The site's script keeps its Request, its
// Response, the ByteArray Request.body() gives it and a function that
// calls Request.getHeader in globals, and answers every request with what
// they read. Each later request, on the same keep-alive connection and on
// another one, reads its own method, path, header and content type through
// them, and the kept ByteArray still reads the first request's body: each
// body is read into a buffer of its own.
func TestScriptKeepsNoLentMemory(t *testing.T) {
	origin := newMemOrigin()
	origin.addScript("http://o.example/nakika.js", `
		var kept = null;
		onRequest = function () {
			if (kept == null) {
				kept = { req: Request, resp: Response, body: Request.body(),
					tag: function () { return Request.getHeader("X-Tag"); } };
			}
			Response.setHeader("Content-Type", "text/" + Request.getHeader("X-Tag"));
			Response.write(kept.req.method + " " + kept.req.path + " " + kept.tag() + " " +
				kept.resp.contentType + " " + kept.body.toString());
		};
	`)
	n := newTestNode(t, "edge-kept", origin, nil)
	l := newPipeListener()
	go n.Serve(l)
	defer l.Close()
	type conn struct {
		c  io.ReadWriteCloser
		br *bufio.Reader
	}
	dial := func() *conn {
		c := l.dial()
		return &conn{c, bufio.NewReader(c)}
	}
	roundTrip := func(c *conn, method, path, tag, body string) string {
		t.Helper()
		fmt.Fprintf(c.c, "%s %s HTTP/1.1\r\nHost: o.example\r\nX-Tag: %s\r\nContent-Length: %d\r\n\r\n%s", method, path, tag, len(body), body)
		resp, err := http.ReadResponse(c.br, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d, %q, %v", method, path, resp.StatusCode, got, err)
		}
		return string(got)
	}
	first, other := dial(), dial()
	defer first.c.Close()
	defer other.c.Close()
	for i, r := range []struct {
		c                       *conn
		method, path, tag, body string
	}{
		{first, "POST", "/one", "one", "body-of-the-first-request"},
		{first, "PUT", "/two", "two", "body-of-the-other-request"},
		{first, "POST", "/three", "three", "body-of-a-third--request"},
		{other, "POST", "/four", "four", "body-of-the-forth-request"},
		{first, "GET", "/five", "five", ""},
	} {
		want := r.method + " " + r.path + " " + r.tag + " text/" + r.tag + " body-of-the-first-request"
		if got := roundTrip(r.c, r.method, r.path, r.tag, r.body); got != want {
			t.Errorf("request %d read %q through what the script kept, want %q", i+1, got, want)
		}
	}
}
