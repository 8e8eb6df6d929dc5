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
	if first == nil || first.Empty {
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
// later one from the script host.
type firstAnswerHost struct {
	*scriptHost
	first func() (*httpmsg.Response, error)
}

func (h *firstAnswerHost) Fetch(req *httpmsg.Request) (*httpmsg.Response, error) {
	if first := h.first; first != nil {
		h.first = nil
		return first()
	}
	return h.scriptHost.Fetch(req)
}

// TestLoaderRemembersOnlyNoScript: a node that boots before its origin sees
// its first nakika.js fetch fail. That is not an answer: the load serves no
// stage, remembers nothing, and the next load fetches and compiles the
// script. The same goes for a 5xx. A 404 is an answer — the site has no
// script — and is remembered without a second fetch.
func TestLoaderRemembersOnlyNoScript(t *testing.T) {
	const url = "http://late.example.org/nakika.js"
	for _, c := range []struct {
		name    string
		first   func() (*httpmsg.Response, error)
		retried bool
	}{
		{"fetch error", func() (*httpmsg.Response, error) { return nil, errors.New("dial tcp: connection refused") }, true},
		{"503", func() (*httpmsg.Response, error) { return httpmsg.NewTextResponse(503, "origin starting"), nil }, true},
		{"404", func() (*httpmsg.Response, error) { return httpmsg.NewTextResponse(404, "not found"), nil }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := &firstAnswerHost{scriptHost: newScriptHost(), first: c.first}
			h.scripts[url] = `var p = new Policy(); p.onResponse = function() {}; p.register();`
			l := NewLoader(h, script.Limits{})
			if st, err := l.Load(url, "late.example.org"); err != nil || !st.Empty {
				t.Fatalf("first load: %+v, %v; want the empty stage", st, err)
			}
			st, err := l.Load(url, "late.example.org")
			if err != nil {
				t.Fatal(err)
			}
			if c.retried && (st.Empty || len(h.fetches) != 1) {
				t.Errorf("second load: empty %v after %d fetches of the served script; want it compiled", st.Empty, len(h.fetches))
			}
			if !c.retried && (!st.Empty || len(h.fetches) != 0) {
				t.Errorf("second load: empty %v after %d more fetches; want the remembered empty stage", st.Empty, len(h.fetches))
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
		if st == nil || st.Empty || st.Site != site {
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
	l.Reset()
	if st, gen := l.Deployed(site); st != nil || gen != 0 {
		t.Errorf("Reset kept the deployed stage at generation %d", gen)
	}
}
