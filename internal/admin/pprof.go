package admin

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"nakika/internal/httpmsg"
)

// pprofPrefix is the path the runtime's profiles are served under.
const pprofPrefix = "/debug/pprof/"

// servePprof answers /debug/pprof/<name> straight from runtime/pprof and
// runtime/trace, with net/http/pprof's paths, parameters, content types and
// statuses, so `go tool pprof` and `go tool trace` read it as they read
// that package:
//   - the index, at the prefix itself;
//   - every pprof.Profiles() name, with ?debug=N for text and, for heap,
//     ?gc=1 for a collection first;
//   - profile?seconds=N, a CPU profile (30 s by default), and
//     trace?seconds=N, an execution trace (1 s by default);
//   - cmdline and symbol.
//
// Delta profiles (a named profile with ?seconds=) are the one thing it does
// not serve: they are answered 400, and two profiles compared with `go tool
// pprof -base` give the same difference.
func servePprof(req *httpmsg.Request, name string) *httpmsg.Response {
	q := req.URL.Query()
	switch name {
	case "":
		return pprofIndex()
	case "cmdline":
		return pprofText([]byte(strings.Join(os.Args, "\x00")))
	case "symbol":
		return pprofSymbols(req)
	case "profile":
		d := 30 * time.Second
		if sec, err := strconv.ParseInt(q.Get("seconds"), 10, 64); err == nil && sec > 0 {
			d = time.Duration(sec) * time.Second
		}
		return sampled(name, d, "CPU profiling", pprof.StartCPUProfile, pprof.StopCPUProfile)
	case "trace":
		d := time.Second
		if sec, err := strconv.ParseFloat(q.Get("seconds"), 64); err == nil && sec > 0 {
			d = time.Duration(sec * float64(time.Second))
		}
		return sampled(name, d, "tracing", trace.Start, trace.Stop)
	}
	p := pprof.Lookup(name)
	if p == nil {
		return pprofError(http.StatusNotFound, "Unknown profile")
	}
	if q.Get("seconds") != "" {
		return pprofError(http.StatusBadRequest, "delta profiles are not served: take two and compare them with go tool pprof -base")
	}
	if gc, _ := strconv.Atoi(q.Get("gc")); name == "heap" && gc > 0 {
		runtime.GC()
	}
	debug, _ := strconv.Atoi(q.Get("debug"))
	var b bytes.Buffer
	if err := p.WriteTo(&b, debug); err != nil {
		return pprofError(http.StatusInternalServerError, "Could not write profile: "+err.Error())
	}
	if debug != 0 {
		return pprofText(b.Bytes())
	}
	return pprofData(name, b.Bytes())
}

// sampled records what start records for d and returns it. One recording
// of a kind runs at a time in a process: while another runs, start fails
// and the reply is a 500.
func sampled(name string, d time.Duration, what string, start func(io.Writer) error, stop func()) *httpmsg.Response {
	var b bytes.Buffer
	if err := start(&b); err != nil {
		return pprofError(http.StatusInternalServerError, fmt.Sprintf("Could not enable %s: %s", what, err))
	}
	time.Sleep(d)
	stop()
	return pprofData(name, b.Bytes())
}

// pprofIndex lists the profiles the node serves, with their counts.
func pprofIndex() *httpmsg.Response {
	var b bytes.Buffer
	b.WriteString("<html>\n<head><title>/debug/pprof/</title></head>\n<body>\n/debug/pprof/\n<br>\n<p>Set debug=1 as a query parameter to export in legacy text format</p>\n<br>\nTypes of profiles available:\n<table>\n<thead><td>Count</td><td>Profile</td></thead>\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(&b, "<tr><td>%d</td><td><a href='%s?debug=1'>%s</a></td></tr>\n", p.Count(), p.Name(), p.Name())
	}
	for _, name := range []string{"cmdline", "profile", "symbol", "trace"} {
		fmt.Fprintf(&b, "<tr><td></td><td><a href='%s'>%s</a></td></tr>\n", name, name)
	}
	b.WriteString("</table>\n<a href='goroutine?debug=2'>full goroutine stack dump</a>\n</body>\n</html>\n")
	return reply(http.StatusOK, "text/html; charset=utf-8", b.Bytes())
}

// pprofSymbols maps the program counters of a GET's query or a POST's body,
// separated by '+', to function names, for `go tool pprof` on a profile
// without symbols.
func pprofSymbols(req *httpmsg.Request) *httpmsg.Response {
	words := req.URL.RawQuery
	if req.Method == http.MethodPost {
		words = string(req.Body)
	}
	var b bytes.Buffer
	// The count only says whether symbols are available at all.
	b.WriteString("num_symbols: 1\n")
	for _, word := range strings.Split(words, "+") {
		pc, _ := strconv.ParseUint(word, 0, 64)
		if f := runtime.FuncForPC(uintptr(pc)); pc != 0 && f != nil {
			fmt.Fprintf(&b, "%#x %s\n", pc, f.Name())
		}
	}
	return pprofText(b.Bytes())
}

func pprofText(body []byte) *httpmsg.Response {
	r := reply(http.StatusOK, "text/plain; charset=utf-8", body)
	r.Header.Set("X-Content-Type-Options", "nosniff")
	return r
}

// pprofData is a binary profile, offered as a download named after it.
func pprofData(name string, body []byte) *httpmsg.Response {
	r := reply(http.StatusOK, "application/octet-stream", body)
	r.Header.Set("Content-Disposition", `attachment; filename="`+name+`"`)
	r.Header.Set("X-Content-Type-Options", "nosniff")
	return r
}

// pprofError is net/http/pprof's error reply: it marks itself as the
// profiler's, so `go tool pprof` shows the message.
func pprofError(status int, msg string) *httpmsg.Response {
	r := httpmsg.NewErrorResponse(status, msg)
	r.Header.Set("X-Go-Pprof", "1")
	return r
}
