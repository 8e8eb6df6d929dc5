package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/script"
)

// gatedHost holds every script fetch until release is closed, so a test can
// pile concurrent loads onto one in-flight fetch.
type gatedHost struct {
	*scriptHost
	entered chan struct{}
	release chan struct{}
}

func (h gatedHost) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	h.entered <- struct{}{}
	<-h.release
	return h.scriptHost.Fetch(req)
}

// TestLoaderStampedeCompilesOnce: N concurrent cold loads of one script URL
// fetch and compile it once, and every caller gets that one stage.
func TestLoaderStampedeCompilesOnce(t *testing.T) {
	const url, callers = "http://busy.example.org/nakika.js", 16
	h := gatedHost{newScriptHost(), make(chan struct{}, callers), make(chan struct{})}
	h.scripts[url] = `var p = new Policy(); p.onResponse = function() {}; p.register();`
	l := NewLoader(h, script.Limits{})

	stages := make(chan *Stage, callers)
	load := func() {
		st, err := l.Load(url, "busy.example.org")
		if err != nil {
			t.Error(err)
		}
		stages <- st
	}
	go load()
	<-h.entered // the first load is at the host; the rest arrive while it waits
	var started sync.WaitGroup
	for i := 1; i < callers; i++ {
		started.Add(1)
		go func() {
			started.Done()
			load()
		}()
	}
	started.Wait()
	close(h.release)

	first := <-stages
	if first == nil || len(first.Policies()) == 0 {
		t.Fatalf("stage = %+v, want the compiled script", first)
	}
	for i := 1; i < callers; i++ {
		if st := <-stages; st != first {
			t.Errorf("caller %d got a different stage: the script was compiled again", i)
		}
	}
	if len(h.fetches) != 1 {
		t.Errorf("script fetched %d times, want 1", len(h.fetches))
	}
}

// firstAnswerHost gives the first fetch first's answer, and serves every
// later one from the script host, on a clock the test sets.
type firstAnswerHost struct {
	*scriptHost
	first func() (*httpmsg.Response, error)
	now   time.Time
}

func (h *firstAnswerHost) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	if first := h.first; first != nil {
		h.first = nil
		return first()
	}
	return h.scriptHost.Fetch(req)
}

func (h *firstAnswerHost) Now() time.Time { return h.now }

// TestLoaderCompilesAStaleCopy: a node with no stage for a script (a
// restarted one) whose fetch chain answers with its stale copy of the
// script compiles it and counts the load stale. The stage is held for the
// back-off, not for the copy's header, and the script is fetched again
// after it.
func TestLoaderCompilesAStaleCopy(t *testing.T) {
	const url, src = "http://stale.example.org/nakika.js", `var p = new Policy(); p.onResponse = function() {}; p.register();`
	h := &firstAnswerHost{scriptHost: newScriptHost(), now: time.Unix(1e9, 0), first: func() (*httpmsg.Response, error) {
		resp := httpmsg.NewTextResponse(200, src)
		resp.SetMaxAge(300)
		resp.Stale = true
		return resp, nil
	}}
	h.scripts[url] = src
	l := NewLoader(h, script.Limits{})
	l.Expiry = func(req *httpmsg.Request, hdr httpmsg.Header, now time.Time) time.Time { return now.Add(time.Hour) }
	st, err := l.Load(url, "stale.example.org")
	if err != nil || st == nil || len(st.Policies()) != 1 {
		t.Fatalf("load of the stale copy: %+v, %v; want the compiled script", st, err)
	}
	if stale, compiled := l.Loads("stale"), l.Loads("compiled"); stale != 1 || compiled != 0 {
		t.Errorf("loads: %d stale, %d compiled; want 1 and 0", stale, compiled)
	}
	h.now = h.now.Add(failBackoff)
	if again, err := l.Load(url, "stale.example.org"); again != st || err != nil || len(h.fetches) != 1 {
		t.Errorf("the load after the back-off: %+v, %v after %d fetches; want the same stage, fetched once more", again, err, len(h.fetches))
	}
	if got := l.Loads("revalidated"); got != 1 {
		t.Errorf("%d revalidated loads, want 1", got)
	}
}

// TestLoaderRemembersOnlyNoScript: a node that boots before its origin sees
// its first nakika.js fetch fail. That is not an answer, and the script may
// be an access control: the load fails closed (no stage), and holds that
// failure for the back-off without another fetch. Once the back-off ends the
// next load fetches and compiles the script. The same goes for a 5xx. A 404
// is an answer — the site has no script — and is remembered without a
// second fetch.
func TestLoaderRemembersOnlyNoScript(t *testing.T) {
	const url = "http://late.example.org/nakika.js"
	for _, c := range []struct {
		name   string
		first  func() (*httpmsg.Response, error)
		failed bool
	}{
		{"fetch error", func() (*httpmsg.Response, error) { return nil, errors.New("dial tcp: connection refused") }, true},
		{"503", func() (*httpmsg.Response, error) { return httpmsg.NewTextResponse(503, "origin starting"), nil }, true},
		{"404", func() (*httpmsg.Response, error) { return httpmsg.NewTextResponse(404, "not found"), nil }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := &firstAnswerHost{scriptHost: newScriptHost(), first: c.first, now: time.Unix(1e9, 0)}
			h.scripts[url] = `var p = new Policy(); p.onResponse = function() {}; p.register();`
			l := NewLoader(h, script.Limits{})
			st, err := l.Load(url, "late.example.org")
			if c.failed && (st != nil || err == nil) {
				t.Fatalf("first load: %+v, %v; want no stage and the failure", st, err)
			}
			if !c.failed && (st == nil || len(st.Policies()) != 0 || err != nil) {
				t.Fatalf("first load: %+v, %v; want the missing script's stage", st, err)
			}
			h.now = h.now.Add(failBackoff - time.Millisecond)
			if again, _ := l.Load(url, "late.example.org"); again != st || len(h.fetches) != 0 {
				t.Errorf("a load within the back-off: %+v after %d more fetches; want the first answer, remembered", again, len(h.fetches))
			}
			h.now = h.now.Add(time.Millisecond)
			st, err = l.Load(url, "late.example.org")
			if err != nil {
				t.Fatal(err)
			}
			if c.failed && (st == nil || len(st.Policies()) != 1 || len(h.fetches) != 1) {
				t.Errorf("the load after the back-off: %+v after %d fetches of the served script; want it compiled", st, len(h.fetches))
			}
			if !c.failed && (len(st.Policies()) != 0 || len(h.fetches) != 0) {
				t.Errorf("the load after the back-off: %+v after %d more fetches; want the remembered missing script", st, len(h.fetches))
			}
		})
	}
}

// TestLoaderKeysStagesBySite: one script URL compiles once per site it
// serves, each stage bound to its site, and a cold load for one site never
// joins another site's flight for the same URL.
func TestLoaderKeysStagesBySite(t *testing.T) {
	const url = "http://shared.example.org/wall.js"
	h := gatedHost{newScriptHost(), make(chan struct{}, 2), make(chan struct{})}
	h.scripts[url] = `onRequest = function() {};`
	l := NewLoader(h, script.Limits{})

	stages := make(map[string]chan *Stage)
	for _, site := range []string{"a.example.org", "b.example.org"} {
		ch := make(chan *Stage, 1)
		stages[site] = ch
		go func() {
			st, err := l.Load(url, site)
			if err != nil {
				t.Error(err)
			}
			ch <- st
		}()
		select {
		case <-h.entered: // this site's load is at the host, not in the other's flight
		case <-time.After(10 * time.Second):
			t.Fatalf("the load for %s never fetched the script", site)
		}
	}
	close(h.release)
	for site, ch := range stages {
		st := <-ch
		if st == nil || len(st.Policies()) == 0 || st.Site != site {
			t.Fatalf("the load for %s got %+v, want a stage compiled for it", site, st)
		}
		if again, _ := l.Load(url, site); again != st {
			t.Errorf("a warm load for %s compiled the script again", site)
		}
	}
	if len(h.fetches) != 2 {
		t.Errorf("script fetched %d times, want once per site", len(h.fetches))
	}
}

// TestLoaderStagesBounded: the loader keeps at most maxStages fetched
// stages, and a deployed stage is never evicted to make room.
func TestLoaderStagesBounded(t *testing.T) {
	l := NewLoader(newScriptHost(), script.Limits{})
	if _, err := l.Deploy("kept.example.org", 1, `onRequest = function() {};`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxStages+100; i++ {
		if _, err := l.Load(fmt.Sprintf("http://s%d.example.org/nakika.js", i), "site.example.org"); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.stages); n > maxStages {
		t.Errorf("the loader grew to %d stages, want at most %d", n, maxStages)
	}
	if st, gen := l.Deployed("kept.example.org"); st == nil || gen != 1 {
		t.Errorf("the deployed stage is gone: %v, generation %d", st, gen)
	}
}

// TestLoaderDeployCompilesOnChange: a Deploy of the (generation, source) a
// site already serves compiles nothing; another one swaps the stage, and a
// source that does not compile leaves the previous stage serving.
func TestLoaderDeployCompilesOnChange(t *testing.T) {
	const site = "deploy.example.org"
	l := NewLoader(newScriptHost(), script.Limits{})
	v1 := `onRequest = function() {};`
	if swapped, err := l.Deploy(site, 1, v1); err != nil || !swapped {
		t.Fatalf("first deploy: swapped %v, %v", swapped, err)
	}
	first, _ := l.Deployed(site)
	if swapped, err := l.Deploy(site, 1, v1); err != nil || swapped {
		t.Errorf("re-deploy of the same generation: swapped %v, %v; want nothing done", swapped, err)
	}
	if st, _ := l.Deployed(site); st != first {
		t.Error("re-deploy of the same generation replaced the stage")
	}
	if swapped, err := l.Deploy(site, 2, `onRequest = function( {`); err == nil || swapped {
		t.Errorf("deploy of a broken script: swapped %v, %v; want an error", swapped, err)
	}
	if st, gen := l.Deployed(site); st != first || gen != 1 {
		t.Errorf("a failed compile moved the site to generation %d", gen)
	}
	if swapped, err := l.Deploy(site, 2, v1); err != nil || !swapped {
		t.Errorf("deploy of generation 2: swapped %v, %v", swapped, err)
	}
	if st, gen := l.Deployed(site); st == first || gen != 2 || st.Site != site {
		t.Errorf("after generation 2: stage %p (first %p), generation %d", st, first, gen)
	}
}
