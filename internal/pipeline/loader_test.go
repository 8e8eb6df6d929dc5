package pipeline

import (
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
