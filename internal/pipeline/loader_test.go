package pipeline

import (
	"errors"
	"sync"
	"testing"

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
