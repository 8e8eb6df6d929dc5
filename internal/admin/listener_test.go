package admin_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nakika/internal/admin"
	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/metrics"
)

// newAdminNode returns a node whose origin serves /page and 404s the rest,
// the walls included. It is shut down when the test ends.
func newAdminNode(t *testing.T, name string) *core.Node {
	t.Helper()
	node, err := core.NewNode(core.Config{
		Name: name,
		Upstream: core.FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
			if req.Path() == "/page" {
				return httpmsg.NewHTMLResponse(200, "<p>still serving</p>"), nil
			}
			return httpmsg.NewTextResponse(404, "none"), nil
		}),
		ClientWallURL: "http://walls.invalid/clientwall.js",
		ServerWallURL: "http://walls.invalid/serverwall.js",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Shutdown() })
	return node
}

// serveAdmin serves handle on a loopback port through node's ingress, as
// nakikad serves its -admin port, and returns the port's address. The port
// drains when the test ends.
func serveAdmin(t *testing.T, node *core.Node, handle func(*httpmsg.Request) *httpmsg.Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- node.ServeAdmin(ln, handle) }()
	t.Cleanup(func() {
		if err := node.Drain(context.Background()); err != nil {
			t.Errorf("Drain: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("ServeAdmin: %v", err)
		}
	})
	return ln.Addr().String()
}

// adminConn is one client connection to an admin port.
type adminConn struct {
	net.Conn
	br *bufio.Reader
}

func dialAdmin(t *testing.T, addr string) *adminConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &adminConn{Conn: c, br: bufio.NewReader(c)}
}

// do sends raw and reads one response to method, body included.
func (c *adminConn) do(t *testing.T, method, raw string) (*http.Response, string) {
	t.Helper()
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	return c.read(t, method)
}

func (c *adminConn) read(t *testing.T, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s body: %v", method, err)
	}
	return resp, string(body)
}

// sample returns the value of the series named by its exposition line
// prefix (name and labels) in a /metrics body.
func sample(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no %s in the exposition:\n%s", series, exposition)
	return 0
}

// TestAdminPortKeepAliveScrapes: two scrapes ride one keep-alive connection
// and a HEAD /metrics answers the length of the exposition without it.
// Admin traffic moves neither nakika_requests_total nor the trace ring,
// while one client request moves both.
func TestAdminPortKeepAliveScrapes(t *testing.T) {
	node := newAdminNode(t, "admin-keepalive")
	c := dialAdmin(t, serveAdmin(t, node, admin.NewHandler(node)))
	const scrape = "GET /metrics HTTP/1.1\r\nHost: admin\r\n\r\n"
	for i := 0; i < 2; i++ {
		resp, body := c.do(t, "GET", scrape)
		if resp.StatusCode != 200 || resp.Close {
			t.Fatalf("scrape %d: %s, close %v", i, resp.Status, resp.Close)
		}
		if _, err := metrics.ParseExposition(body); err != nil {
			t.Fatalf("scrape %d does not parse: %v", i, err)
		}
		if got := sample(t, body, "nakika_requests_total"); got != 0 {
			t.Fatalf("scrape %d: nakika_requests_total %v after admin traffic alone", i, got)
		}
	}
	resp, body := c.do(t, "HEAD", "HEAD /metrics HTTP/1.1\r\nHost: admin\r\n\r\n")
	if resp.StatusCode != 200 || body != "" || resp.ContentLength <= 0 {
		t.Fatalf("HEAD /metrics: %s, Content-Length %d, %d body bytes", resp.Status, resp.ContentLength, len(body))
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("HEAD /metrics Content-Type %q", resp.Header.Get("Content-Type"))
	}
	if _, body := c.do(t, "GET", "GET /admin/traces HTTP/1.1\r\nHost: admin\r\n\r\n"); !strings.Contains(body, `"count": 0`) {
		t.Fatalf("admin requests reached the trace ring:\n%s", body)
	}

	if resp, _, err := node.Handle(httpmsg.MustRequest("GET", "http://site.example/page")); err != nil || resp.Status != 200 {
		t.Fatalf("client GET: %v, %v", resp, err)
	}
	_, body = c.do(t, "GET", scrape)
	if got := sample(t, body, "nakika_requests_total"); got != 1 {
		t.Fatalf("nakika_requests_total %v after one client request, want 1", got)
	}
}

// TestAdminPortDeployWithExpectContinue: a 2 KiB script POSTed the way curl
// posts one above 1 KiB, with Expect: 100-continue, gets the interim 100
// before its body is sent and then deploys. A body over 1 MiB is refused
// 413, and a GET of /admin/deploy 405.
func TestAdminPortDeployWithExpectContinue(t *testing.T) {
	node := newAdminNode(t, "admin-deploy")
	addr := serveAdmin(t, node, admin.NewHandler(node))
	script := `onResponse = function () { Response.setHeader("X-Deployed", "1"); };` + "\n//" + strings.Repeat("x", 2<<10)
	body := `{"site":"deployed.example.org","script":` + strconv.Quote(script) + `}`
	c := dialAdmin(t, addr)
	fmt.Fprintf(c, "POST /admin/deploy HTTP/1.1\r\nHost: admin\r\nContent-Type: application/json\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n", len(body))
	if resp, _ := c.read(t, "POST"); resp.StatusCode != http.StatusContinue {
		t.Fatalf("before the body: %s, want 100 Continue", resp.Status)
	}
	io.WriteString(c, body)
	if resp, out := c.read(t, "POST"); resp.StatusCode != 200 || !strings.Contains(out, `"gen": 1`) {
		t.Fatalf("deploy: %s %q", resp.Status, out)
	}
	resp, _, err := node.Handle(httpmsg.MustRequest("GET", "http://deployed.example.org/page"))
	if err != nil || resp.Header.Get("X-Deployed") != "1" {
		t.Fatalf("the deployed script did not run: %v, %v", resp, err)
	}

	big := bytes.Repeat([]byte{' '}, 1<<20+1)
	post, err := http.Post("http://"+addr+"/admin/deploy", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("a body of 1 MiB + 1: %s, want 413", post.Status)
	}
	got, err := http.Get("http://" + addr + "/admin/deploy")
	if err != nil {
		t.Fatal(err)
	}
	got.Body.Close()
	if got.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/deploy: %s, want 405", got.Status)
	}
}

// TestAdminPortPanicClosesOneConnection: a handler that panics closes the
// connection it served and is counted in nakika_ingress_panics_total; the
// port and its other connections go on.
func TestAdminPortPanicClosesOneConnection(t *testing.T) {
	node := newAdminNode(t, "admin-panic")
	handle := admin.NewHandler(node)
	addr := serveAdmin(t, node, func(req *httpmsg.Request) *httpmsg.Response {
		if req.URL.Path == "/panic" {
			panic("admin handler")
		}
		return handle(req)
	})
	other := dialAdmin(t, addr)
	const scrape = "GET /metrics HTTP/1.1\r\nHost: admin\r\n\r\n"
	other.do(t, "GET", scrape)

	victim := dialAdmin(t, addr)
	io.WriteString(victim, "GET /panic HTTP/1.1\r\nHost: admin\r\n\r\n")
	if n, err := victim.br.ReadByte(); err != io.EOF {
		t.Fatalf("the panicked connection answered %q, %v; want it closed", n, err)
	}
	resp, body := other.do(t, "GET", scrape)
	if resp.StatusCode != 200 {
		t.Fatalf("scrape after the panic: %s", resp.Status)
	}
	if got := sample(t, body, "nakika_ingress_panics_total"); got != 1 {
		t.Fatalf("nakika_ingress_panics_total %v, want 1", got)
	}
}

// TestAdminPortServesEveryProfile: the index names every runtime profile,
// and each is served as a gzipped profile and, with ?debug=1, as text. A
// delta profile is refused 400, an unknown name 404, and cmdline is the
// process's arguments.
func TestAdminPortServesEveryProfile(t *testing.T) {
	node := newAdminNode(t, "admin-pprof")
	c := dialAdmin(t, serveAdmin(t, node, admin.NewHandler(node)))
	get := func(path string) (*http.Response, string) {
		t.Helper()
		return c.do(t, "GET", "GET "+path+" HTTP/1.1\r\nHost: admin\r\n\r\n")
	}
	_, index := get("/debug/pprof/")
	for _, p := range pprof.Profiles() {
		name := p.Name()
		if !strings.Contains(index, ">"+name+"<") {
			t.Errorf("the index omits %s", name)
		}
		resp, body := get("/debug/pprof/" + name)
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/octet-stream" || !strings.HasPrefix(body, "\x1f\x8b") {
			t.Errorf("%s: %s %q, %d bytes; want a gzipped profile", name, resp.Status, resp.Header.Get("Content-Type"), len(body))
		}
		resp, body = get("/debug/pprof/" + name + "?debug=1")
		if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") || body == "" {
			t.Errorf("%s?debug=1: %s %q, %d bytes", name, resp.Status, resp.Header.Get("Content-Type"), len(body))
		}
	}
	if resp, body := get("/debug/pprof/heap?seconds=1"); resp.StatusCode != 400 || !strings.Contains(body, "go tool pprof -base") {
		t.Errorf("a delta heap profile: %s %q, want 400 pointing to go tool pprof -base", resp.Status, body)
	}
	if resp, _ := get("/debug/pprof/nonesuch"); resp.StatusCode != 404 {
		t.Errorf("an unknown profile: %s, want 404", resp.Status)
	}
	if _, body := get("/debug/pprof/cmdline"); body != strings.Join(os.Args, "\x00") {
		t.Errorf("cmdline %q", body)
	}
}

// TestAdminPortRecordsProfileAndTrace: profile?seconds=1 returns a CPU
// profile and trace?seconds=1 an execution trace, recorded at once on two
// connections.
func TestAdminPortRecordsProfileAndTrace(t *testing.T) {
	node := newAdminNode(t, "admin-record")
	addr := serveAdmin(t, node, admin.NewHandler(node))
	var wg sync.WaitGroup
	for path, magic := range map[string]string{"/debug/pprof/profile?seconds=1": "\x1f\x8b", "/debug/pprof/trace?seconds=1": "go 1."} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != 200 || !bytes.HasPrefix(body, []byte(magic)) {
				t.Errorf("%s: %s, %d bytes beginning %.8q, %v", path, resp.Status, len(body), body, err)
			}
		}()
	}
	wg.Wait()
}
