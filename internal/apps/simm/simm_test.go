package simm

import (
	"strings"
	"testing"

	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/pipeline"
	"nakika/internal/script"
	"nakika/internal/vocab"
)

func TestOriginServesRenderedHTML(t *testing.T) {
	o := NewOrigin(Config{})
	resp, err := o.Do(httpmsg.MustRequest("GET", "http://simms.med.nyu.edu/module/2/section/3.html?student=maria"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "<h1>Module 2, Part 3</h1>") {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	if !strings.Contains(string(resp.Body), "narrative") {
		t.Error("rendered HTML should contain narrative divs")
	}
	if resp.Cacheable() {
		t.Error("personalized HTML must not be publicly cacheable")
	}
}

func TestOriginServesXMLAndMedia(t *testing.T) {
	o := NewOrigin(Config{MediaBytes: 1024})
	xml, err := o.Do(httpmsg.MustRequest("GET", "http://simms.med.nyu.edu/module/1/section/1.xml?student=bob"))
	if err != nil {
		t.Fatal(err)
	}
	if xml.ContentType() != "text/xml" || !strings.Contains(string(xml.Body), `student="bob"`) {
		t.Errorf("xml = %q", xml.Body)
	}
	media, err := o.Do(httpmsg.MustRequest("GET", "http://simms.med.nyu.edu/module/1/media/2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(media.Body) != 1024 || !media.Cacheable() {
		t.Errorf("media len=%d cacheable=%v", len(media.Body), media.Cacheable())
	}
	notFound, _ := o.Do(httpmsg.MustRequest("GET", "http://simms.med.nyu.edu/bogus"))
	if notFound.Status != 404 {
		t.Errorf("bogus path status = %d", notFound.Status)
	}
}

func TestPersonalization(t *testing.T) {
	o := NewOrigin(Config{})
	a := o.SectionXML(1, 1, "alice")
	b := o.SectionXML(1, 1, "bartholomew")
	if a == b {
		t.Error("different students should see different XML")
	}
	if o.SectionXML(1, 1, "alice") != a {
		t.Error("same student should see stable XML")
	}
}

func TestRenderHTMLStructure(t *testing.T) {
	html := RenderHTML(`<section><title>T</title><p id="p0">body text</p><progress completed="10"/></section>`)
	if !strings.Contains(html, "<h1>T</h1>") || !strings.Contains(html, "body text") || !strings.Contains(html, "progress-bar") {
		t.Errorf("html = %q", html)
	}
}

func TestGenerateLog(t *testing.T) {
	log := GenerateLog(Config{}, 500, 1)
	if len(log) != 500 {
		t.Fatalf("log length = %d", len(log))
	}
	html, media := 0, 0
	for _, a := range log {
		switch a.Kind {
		case AccessHTML:
			html++
			if !strings.Contains(a.URL, ".html") {
				t.Errorf("html access URL = %q", a.URL)
			}
		case AccessMedia:
			media++
			if !strings.Contains(a.URL, ".bin") {
				t.Errorf("media access URL = %q", a.URL)
			}
		}
	}
	if html == 0 || media == 0 {
		t.Errorf("mix: html=%d media=%d", html, media)
	}
	if media > html {
		t.Error("HTML accesses should dominate the log")
	}
	// Deterministic for a fixed seed.
	again := GenerateLog(Config{}, 500, 1)
	for i := range log {
		if log[i] != again[i] {
			t.Fatal("log generation should be deterministic per seed")
		}
	}
}

func TestEdgeScriptRendersOnNode(t *testing.T) {
	// End-to-end: the Na Kika port's nakika.js renders the personalized XML
	// at the edge, producing HTML equivalent in structure to the origin's.
	origin := NewOrigin(Config{})
	upstream := core.FetcherFunc(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		if req.Path() == "/nakika.js" && req.Host() == origin.Config().Host {
			r := httpmsg.NewTextResponse(200, EdgeScript(origin.Config().Host))
			r.Header.Set("Content-Type", "application/javascript")
			r.SetMaxAge(300)
			return r, nil
		}
		return origin.Do(req)
	})
	node, err := core.NewNode(core.Config{Name: "edge-1", Upstream: upstream})
	if err != nil {
		t.Fatal(err)
	}
	resp, trace, err := node.Handle(httpmsg.MustRequest("GET", "http://simms.med.nyu.edu/module/3/section/2.html?student=maria"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d (%+v)", resp.Status, trace.Stages)
	}
	body := string(resp.Body)
	if !strings.Contains(body, "<h1>Module 3, Part 2</h1>") || !strings.Contains(body, "narrative") {
		t.Errorf("edge-rendered body = %q", body)
	}
	if !trace.Generated {
		t.Error("edge port should generate the HTML response at the edge")
	}
	// Media flows through and is cacheable at the edge.
	m1, _, err := node.Handle(httpmsg.MustRequest("GET", "http://simms.med.nyu.edu/module/3/media/1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Status != 200 {
		t.Fatalf("media status = %d", m1.Status)
	}
	m2, _, err := node.Handle(httpmsg.MustRequest("GET", "http://simms.med.nyu.edu/module/3/media/1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !m2.FromCache {
		t.Error("second media access should come from the edge cache")
	}
}

// pageHost answers the site script and the origin from memory, each
// response built once, so counting a page's allocations counts the
// pipeline, the script and its vocabularies, not the origin.
type pageHost struct {
	vocab.NopHost
	origin *Origin
	canned map[string]*httpmsg.Response
}

func (h *pageHost) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	key := req.URL.String()
	if resp, ok := h.canned[key]; ok {
		return resp, nil
	}
	resp, err := h.origin.Do(req)
	if req.Path() == "/"+pipeline.SiteScriptName {
		resp = httpmsg.NewTextResponse(200, EdgeScript(h.origin.Config().Host))
		resp.SetMaxAge(300)
	}
	h.canned[key] = resp
	return resp, err
}

// TestEdgePageAllocCeiling pins what one SIMM page costs the node in
// allocations: the edge script fetches the student's XML, parses it and
// renders HTML through pipeline.Executor. A regression on that path (the
// XML vocabulary above all, which parses the document and walks its tree)
// fails here on any host. The ceiling is the count measured on Go 1.24,
// with or without -race: 418 since XML.parse scans straight into the
// script's node objects and the walkers walk them in place, against 796
// when XML.parse built a Go tree with encoding/xml and every walker
// converted whole trees both ways.
func TestEdgePageAllocCeiling(t *testing.T) {
	host := &pageHost{origin: NewOrigin(Config{}), canned: make(map[string]*httpmsg.Response)}
	ex := &pipeline.Executor{
		Loader:      pipeline.NewLoader(host, script.Limits{MaxSteps: 50_000_000, MaxHeapBytes: 64 << 20}),
		Host:        host,
		FetchOrigin: host.Fetch,
	}
	page := func() {
		req := httpmsg.MustRequest("GET", "http://simms.med.nyu.edu/module/3/section/2.html?student=maria")
		resp, _, err := ex.Execute(req)
		if err != nil || resp.Status != 200 || !strings.Contains(string(resp.Body), "<h1>Module 3, Part 2</h1>") {
			t.Fatalf("page: %v, %v", resp, err)
		}
	}
	for i := 0; i < 16; i++ { // load the stages and fill the pools
		page()
	}
	const ceiling = 418
	if allocs := testing.AllocsPerRun(50, page); allocs > ceiling {
		t.Errorf("one SIMM page costs %.0f allocs, ceiling is %d", allocs, ceiling)
	}
}

func TestEdgeScriptParses(t *testing.T) {
	if _, err := script.Parse(EdgeScript("simms.med.nyu.edu"), "nakika.js"); err != nil {
		t.Fatalf("edge script does not parse: %v", err)
	}
}
