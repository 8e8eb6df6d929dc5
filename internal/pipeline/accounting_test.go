package pipeline

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"image"
	"image/color"
	"image/png"
	"strconv"
	"strings"
	"testing"

	"nakika/internal/apps/extensions"
	"nakika/internal/apps/largefile"
	"nakika/internal/apps/simm"
	"nakika/internal/apps/specweb"
	"nakika/internal/httpmsg"
	"nakika/internal/script"
	"nakika/internal/trace"
	"nakika/internal/vocab"
)

// exampleConst reads the string constant name from an examples/ program, so
// the accounting table runs the scripts the examples ship, not copies.
func exampleConst(t *testing.T, example, name string) string {
	t.Helper()
	path := "../../examples/" + example + "/main.go"
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if id.Name != name {
					continue
				}
				s, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}
	}
	t.Fatalf("%s: no const %s", path, name)
	return ""
}

// accountingHost serves the applications' origins from memory and keeps
// State in a map, so every handler in the table takes its full path.
type accountingHost struct {
	vocab.NopHost
	simm      *simm.Origin
	blacklist string
	photo     []byte
	state     map[string]string
}

func (h *accountingHost) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	switch {
	case req.Host() == "simms.med.nyu.edu":
		return h.simm.Do(req)
	case req.Host() == "nakika.net" && req.Path() == "/blacklist.txt":
		return httpmsg.NewTextResponse(200, h.blacklist), nil
	case req.Host() == "photos.example.org":
		resp := httpmsg.NewResponse(200)
		resp.Header.Set("Content-Type", "image/png")
		resp.SetBody(h.photo)
		return resp, nil
	case req.Host() == "lob.example.org":
		resp := httpmsg.NewResponse(200)
		resp.Header.Set("Content-Type", "application/octet-stream")
		resp.SetBody(make([]byte, 1024))
		return resp, nil
	}
	return httpmsg.NewHTMLResponse(200, "<html><body>content from "+req.Host()+req.Path()+"</body></html>"), nil
}

func (h *accountingHost) StateGet(_ *trace.Act, site, key string) (string, bool) {
	v, ok := h.state[site+"|"+key]
	return v, ok
}

func (h *accountingHost) StatePut(_ *trace.Act, site, key, value string) error {
	h.state[site+"|"+key] = value
	return nil
}

func (h *accountingHost) NodeName() string { return "accounting-node" }

// handlerCost runs one handler through the executor in a pooled context of
// st, and returns the steps and script heap bytes it charged.
func handlerCost(t *testing.T, e *Executor, st *Stage, handler script.Value, req *httpmsg.Request, resp *httpmsg.Response) (steps, heap int64) {
	t.Helper()
	err := st.WithRun(func(run *Run) error {
		beforeSteps, beforeHeap := run.Ctx.Steps(), run.Ctx.HeapBytes()
		_, err := e.runHandler(run, st, &Trace{}, handler, req, resp)
		steps, heap = run.Ctx.Steps()-beforeSteps, run.Ctx.HeapBytes()-beforeHeap
		return err
	})
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	return steps, heap
}

// TestScriptAccountingPinned pins what the shipped scripts cost in the
// sandbox's own units: the steps and script heap bytes of each stage's
// compile and of each handler run, over the SIMM and SPECweb edge scripts,
// the three extensions and the examples' scripts. The resource manager
// charges a site exactly these numbers, so a change to how the interpreter
// stores objects, scopes or strings must leave every one as it is. Requests
// repeat, so the second run of a handler (in a reused pooled context, with
// the message bindings re-pointed) is pinned as well.
func TestScriptAccountingPinned(t *testing.T) {
	var photo bytes.Buffer
	img := image.NewRGBA(image.Rect(0, 0, 400, 300))
	for y := 0; y < 300; y++ {
		for x := 0; x < 400; x++ {
			img.Set(x, y, color.RGBA{R: uint8(x), G: uint8(y), B: 180, A: 255})
		}
	}
	if err := png.Encode(&photo, img); err != nil {
		t.Fatal(err)
	}
	host := &accountingHost{
		simm:      simm.NewOrigin(simm.Config{}),
		blacklist: exampleConst(t, "blacklist", "blacklist"),
		photo:     photo.Bytes(),
		state:     make(map[string]string),
	}
	loader := NewLoader(host, script.Limits{MaxSteps: 50_000_000, MaxHeapBytes: 64 << 20})
	e := &Executor{Loader: loader, Host: host}

	type request struct {
		method, url, clientIP, userAgent, body string
	}
	get := func(url string) request { return request{method: "GET", url: url} }
	cases := []struct {
		name, site, source string
		requests           []request
	}{
		{"simm", "simms.med.nyu.edu", simm.EdgeScript("simms.med.nyu.edu"), []request{
			get("http://simms.med.nyu.edu/module/3/section/2.html?student=maria"),
			get("http://simms.med.nyu.edu/module/3/section/2.html?student=maria"),
			get("http://simms.med.nyu.edu/module/1/section/1.html"),
		}},
		{"specweb", "specweb.example.org", specweb.EdgeScript("specweb.example.org"), []request{
			get("http://specweb.example.org/cgi-bin/register?user=alice"),
			get("http://specweb.example.org/cgi-bin/profile?user=alice"),
			get("http://specweb.example.org/cgi-bin/profile?user=alice"),
			get("http://specweb.example.org/cgi-bin/profile?user=bob"),
			get("http://specweb.example.org/cgi-bin/checkpoint"),
			get("http://specweb.example.org/cgi-bin/checkpoint"),
			get("http://specweb.example.org/cgi-bin/job?op=begin&ttl=60000"),
			get("http://specweb.example.org/cgi-bin/job?op=step&seq=7&token=1"),
			get("http://specweb.example.org/cgi-bin/job?op=peek"),
		}},
		{"quickstart", "quickstart.example.org", exampleConst(t, "quickstart", "siteScript"), []request{
			{method: "GET", url: "http://quickstart.example.org/", clientIP: "203.0.113.7"},
			{method: "GET", url: "http://quickstart.example.org/", clientIP: "203.0.113.7"},
			{method: "GET", url: "http://quickstart.example.org/private/grades", clientIP: "203.0.113.7"},
			{method: "GET", url: "http://quickstart.example.org/private/grades", clientIP: "10.1.2.3"},
		}},
		{"annotations", "annotations.example.org", extensions.AnnotationsScript, []request{
			{method: "POST", url: "http://annotations.example.org/annotate?student=maria&target=/module/1/section/2.html", body: "Check distal pulses."},
			{method: "POST", url: "http://annotations.example.org/annotate?student=maria&target=/module/1/section/2.html", body: "And the dressing."},
			get("http://annotations.example.org/module/1/section/2.html?student=maria"),
			get("http://annotations.example.org/module/1/section/2.html?student=maria"),
		}},
		{"transcoder", "photos.example.org", extensions.TranscoderScript, []request{
			{method: "GET", url: "http://photos.example.org/vacation.png", userAgent: "Mozilla/4.0 (compatible; Nokia6600)"},
			{method: "GET", url: "http://photos.example.org/vacation.png", userAgent: "Mozilla/4.0 (compatible; Nokia6600)"},
		}},
		{"blacklist", "nakika.net", extensions.BlacklistScript, []request{
			get("http://piracy.example.net/latest"),
			get("http://malware.example.com/downloads/tool.exe"),
		}},
		{"largefile", "lob.example.org", largefile.EdgeScript("lob.example.org"), []request{
			get("http://lob.example.org/blob"),
		}},
	}

	var got []string
	for _, c := range cases {
		st, err := loader.Compile("http://"+c.site+"/nakika.js", c.site, c.source)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		got = append(got, fmt.Sprintf("%s compile %d %d", c.name, st.pristine.Steps(), st.pristine.HeapBytes()))
		for _, r := range c.requests {
			req := httpmsg.MustRequest(r.method, r.url)
			req.ClientIP = r.clientIP
			if r.userAgent != "" {
				req.Header.Set("User-Agent", r.userAgent)
			}
			req.Body = []byte(r.body)
			label := c.name + " " + r.method + " " + strings.TrimPrefix(r.url, "http://")
			pol := st.Match(e.policyInput(req))
			if pol == nil {
				t.Fatalf("%s: no policy matches", label)
			}
			var resp *httpmsg.Response
			if pol.OnRequest != nil {
				generated := vocab.NewGeneratedResponse()
				steps, heap := handlerCost(t, e, st, pol.OnRequest, req, generated)
				got = append(got, fmt.Sprintf("%s onRequest %d %d", label, steps, heap))
				if term := req.Terminated(); term != nil {
					resp = term
					req.ClearTermination()
				} else if generated.Generated {
					resp = generated
				}
			}
			if resp == nil {
				if resp, err = host.Fetch(req); err != nil {
					t.Fatal(err)
				}
			}
			if pol.OnResponse != nil {
				steps, heap := handlerCost(t, e, st, pol.OnResponse, req, resp)
				got = append(got, fmt.Sprintf("%s onResponse %d %d", label, steps, heap))
			}
		}
	}

	want := []string{
		"simm compile 16 84",
		"simm GET simms.med.nyu.edu/module/3/section/2.html?student=maria onRequest 233 7174",
		"simm GET simms.med.nyu.edu/module/3/section/2.html?student=maria onRequest 233 7174",
		"simm GET simms.med.nyu.edu/module/1/section/1.html onRequest 237 7191",
		"specweb compile 64 380",
		"specweb GET specweb.example.org/cgi-bin/register?user=alice onRequest 41 354",
		"specweb GET specweb.example.org/cgi-bin/profile?user=alice onRequest 43 388",
		"specweb GET specweb.example.org/cgi-bin/profile?user=alice onRequest 43 388",
		"specweb GET specweb.example.org/cgi-bin/profile?user=bob onRequest 29 83",
		"specweb GET specweb.example.org/cgi-bin/checkpoint onRequest 53 132",
		"specweb GET specweb.example.org/cgi-bin/checkpoint onRequest 53 132",
		"specweb GET specweb.example.org/cgi-bin/job?op=begin&ttl=60000 onRequest 47 56",
		"specweb GET specweb.example.org/cgi-bin/job?op=step&seq=7&token=1 onRequest 58 170",
		"specweb GET specweb.example.org/cgi-bin/job?op=peek onRequest 40 51",
		"quickstart compile 32 173",
		"quickstart GET quickstart.example.org/ onResponse 40 486",
		"quickstart GET quickstart.example.org/ onResponse 40 486",
		"quickstart GET quickstart.example.org/private/grades onRequest 14 0",
		"quickstart GET quickstart.example.org/private/grades onRequest 8 0",
		"annotations compile 41 243",
		"annotations POST annotations.example.org/annotate?student=maria&target=/module/1/section/2.html onRequest 80 254",
		"annotations POST annotations.example.org/annotate?student=maria&target=/module/1/section/2.html onRequest 83 268",
		"annotations GET annotations.example.org/module/1/section/2.html?student=maria onRequest 24 149",
		"annotations GET annotations.example.org/module/1/section/2.html?student=maria onResponse 110 2523",
		"annotations GET annotations.example.org/module/1/section/2.html?student=maria onRequest 24 149",
		"annotations GET annotations.example.org/module/1/section/2.html?student=maria onResponse 110 2523",
		"transcoder compile 21 106",
		"transcoder GET photos.example.org/vacation.png onResponse 117 1203",
		"transcoder GET photos.example.org/vacation.png onResponse 117 1203",
		"blacklist compile 160 232",
		"blacklist GET piracy.example.net/latest onRequest 6 0",
		"blacklist GET malware.example.com/downloads/tool.exe onRequest 6 0",
		"largefile compile 16 81",
		"largefile GET lob.example.org/blob onResponse 7 17",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("script accounting moved; got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
