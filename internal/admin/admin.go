// Package admin serves a node's observability surface over HTTP: the
// Prometheus /metrics exposition, the /admin/traces dump of the slowest
// recent requests, a human-readable /admin/statusz, the deployment plane's
// /admin/deploy, /admin/rollback and /admin/deployments, and the runtime's
// profiles under /debug/pprof/. It binds a separate listener from the proxy
// front (cmd/nakikad's -admin flag) so operators can scrape and profile a
// node without touching the client-facing port. The node serves it with its
// own HTTP/1 ingress (core.Node.ServeAdmin), not net/http's server.
package admin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nakika/internal/deploy"
	"nakika/internal/httpmsg"
	"nakika/internal/metrics"
	"nakika/internal/trace"
)

// Node is the slice of the edge node the admin surface reads. Metrics
// and Traces may return nil (the node was built with observability
// disabled); the endpoints degrade to 503 rather than panicking.
type Node interface {
	Name() string
	Metrics() *metrics.Registry
	Traces() *trace.Ring
	LoadScore() float64
}

// Deployer is the optional deployment-plane surface. A Node that also
// implements it (core.Node does) gets the /admin/deploy, /admin/rollback,
// and /admin/deployments endpoints; any admin listener on the network can
// publish — the record replicates to every node regardless of which one
// accepted it.
type Deployer interface {
	Deploy(site, script, note string) (uint64, error)
	Rollback(site string, gen uint64) error
	Deployments() []deploy.Status
}

// maxBundleBytes bounds a deploy request body; service scripts are a few
// kilobytes, so a megabyte of headroom is generous.
const maxBundleBytes = 1 << 20

// deployRequest is the POST /admin/deploy body.
type deployRequest struct {
	Site   string `json:"site"`
	Script string `json:"script"`
	Note   string `json:"note,omitempty"`
}

// rollbackRequest is the POST /admin/rollback body.
type rollbackRequest struct {
	Site string `json:"site"`
	Gen  uint64 `json:"gen"`
}

// DefaultTraceDump bounds the /admin/traces response when no ?n= is
// given.
const DefaultTraceDump = 32

// NewHandler returns the admin surface for node: a router from a request's
// path to its endpoint. A path it does not serve is answered 404.
func NewHandler(node Node) func(*httpmsg.Request) *httpmsg.Response {
	start := time.Now()
	dep, _ := node.(Deployer)
	return func(req *httpmsg.Request) *httpmsg.Response {
		path := req.URL.Path
		switch {
		case path == "/metrics":
			return serveMetrics(node)
		case path == "/admin/traces":
			return serveTraces(node, req)
		case path == "/admin/statusz":
			var b bytes.Buffer
			fmt.Fprintf(&b, "node:       %s\n", node.Name())
			fmt.Fprintf(&b, "uptime:     %s\n", time.Since(start).Round(time.Second))
			fmt.Fprintf(&b, "load score: %.3f\n", node.LoadScore())
			fmt.Fprintf(&b, "goroutines: %d\n", runtime.NumGoroutine())
			fmt.Fprintf(&b, "go:         %s %s/%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
			fmt.Fprintf(&b, "endpoints:  /metrics /admin/traces /admin/statusz /admin/deploy /admin/rollback /admin/deployments /debug/pprof/\n")
			return reply(http.StatusOK, "text/plain; charset=utf-8", b.Bytes())
		case dep != nil && path == "/admin/deploy":
			return serveDeploy(dep, req)
		case dep != nil && path == "/admin/rollback":
			return serveRollback(dep, req)
		case dep != nil && path == "/admin/deployments":
			statuses := dep.Deployments()
			if statuses == nil {
				statuses = []deploy.Status{}
			}
			return replyJSON(statuses)
		case strings.HasPrefix(path, pprofPrefix):
			return servePprof(req, path[len(pprofPrefix):])
		}
		return httpmsg.NewErrorResponse(http.StatusNotFound, "404 page not found")
	}
}

func serveMetrics(node Node) *httpmsg.Response {
	reg := node.Metrics()
	if reg == nil {
		return httpmsg.NewErrorResponse(http.StatusServiceUnavailable, "metrics disabled on this node")
	}
	return reply(http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", reg.Text())
}

func serveTraces(node Node, req *httpmsg.Request) *httpmsg.Response {
	ring := node.Traces()
	if ring == nil {
		return httpmsg.NewErrorResponse(http.StatusServiceUnavailable, "tracing disabled on this node")
	}
	n := DefaultTraceDump
	if parsed, err := strconv.Atoi(req.Query("n")); err == nil && parsed > 0 {
		n = parsed
	}
	return replyJSON(dumpSamples(node.Name(), ring.Slowest(n)))
}

func serveDeploy(dep Deployer, req *httpmsg.Request) *httpmsg.Response {
	var body deployRequest
	if refused := decodeJSONBody(req, &body); refused != nil {
		return refused
	}
	if body.Site == "" || body.Script == "" {
		return httpmsg.NewErrorResponse(http.StatusBadRequest, "site and script are required")
	}
	gen, err := dep.Deploy(body.Site, body.Script, body.Note)
	if err != nil {
		// Validation failures are the client's fault; anything past
		// validation (storage, replication) is the server's.
		return httpmsg.NewErrorResponse(http.StatusUnprocessableEntity, err.Error())
	}
	return replyJSON(map[string]any{"site": body.Site, "gen": gen})
}

func serveRollback(dep Deployer, req *httpmsg.Request) *httpmsg.Response {
	var body rollbackRequest
	if refused := decodeJSONBody(req, &body); refused != nil {
		return refused
	}
	if body.Site == "" || body.Gen == 0 {
		return httpmsg.NewErrorResponse(http.StatusBadRequest, "site and gen are required")
	}
	if err := dep.Rollback(body.Site, body.Gen); err != nil {
		return httpmsg.NewErrorResponse(http.StatusUnprocessableEntity, err.Error())
	}
	return replyJSON(map[string]any{"site": body.Site, "gen": body.Gen})
}

// decodeJSONBody parses a POSTed JSON body of at most maxBundleBytes into v,
// and otherwise returns the refusal to send.
func decodeJSONBody(req *httpmsg.Request, v any) *httpmsg.Response {
	if req.Method != http.MethodPost {
		return httpmsg.NewErrorResponse(http.StatusMethodNotAllowed, "POST required")
	}
	if len(req.Body) > maxBundleBytes {
		return httpmsg.NewErrorResponse(http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", maxBundleBytes))
	}
	if err := json.Unmarshal(req.Body, v); err != nil {
		return httpmsg.NewErrorResponse(http.StatusBadRequest, "bad JSON body: "+err.Error())
	}
	return nil
}

// reply is a whole-body response of the given type.
func reply(status int, contentType string, body []byte) *httpmsg.Response {
	r := httpmsg.NewResponse(status)
	r.Header.Set("Content-Type", contentType)
	r.SetBody(body)
	return r
}

// replyJSON is a 200 carrying v as indented JSON.
func replyJSON(v any) *httpmsg.Response {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return reply(http.StatusOK, "application/json", b.Bytes())
}

// TraceDump is the /admin/traces response shape.
type TraceDump struct {
	Node    string       `json:"node"`
	Count   int          `json:"count"`
	Samples []SampleJSON `json:"samples"`
}

// SampleJSON is one recorded request, flattened for the dump: the shared
// cross-node trace id in hex, the stage spans with nanosecond timings,
// and the offload/hedge/lease/fencing activity the request performed.
type SampleJSON struct {
	TraceID string       `json:"trace_id"`
	Node    string       `json:"node"`
	Method  string       `json:"method"`
	URL     string       `json:"url"`
	Start   time.Time    `json:"start"`
	Elapsed int64        `json:"elapsed_ns"`
	Status  int          `json:"status"`
	Spans   []trace.Span `json:"spans,omitempty"`

	SpansDropped int  `json:"spans_dropped,omitempty"`
	Generated    bool `json:"generated,omitempty"`
	FromCache    bool `json:"from_cache,omitempty"`
	Terminated   bool `json:"terminated,omitempty"`
	RejectedBusy bool `json:"rejected_busy,omitempty"`

	Offloaded   bool   `json:"offloaded,omitempty"`
	OffloadPeer string `json:"offload_peer,omitempty"`
	Generation  uint64 `json:"gen,omitempty"`

	HedgedReads   int32  `json:"hedged_reads,omitempty"`
	HedgeWins     int32  `json:"hedge_wins,omitempty"`
	LeaseAcquires int32  `json:"lease_acquires,omitempty"`
	LeaseDenials  int32  `json:"lease_denials,omitempty"`
	LeaseRenewals int32  `json:"lease_renewals,omitempty"`
	LeaseReleases int32  `json:"lease_releases,omitempty"`
	FencedWrites  int32  `json:"fenced_writes,omitempty"`
	FenceRejects  int32  `json:"fence_rejects,omitempty"`
	FenceToken    uint64 `json:"fence_token,omitempty"`
}

func dumpSamples(node string, samples []*trace.Sample) TraceDump {
	out := TraceDump{Node: node, Count: len(samples), Samples: make([]SampleJSON, 0, len(samples))}
	for _, s := range samples {
		out.Samples = append(out.Samples, SampleJSON{
			TraceID:       fmt.Sprintf("%016x", s.TraceID),
			Node:          s.Node,
			Method:        s.Method,
			URL:           s.URL(),
			Start:         s.Start,
			Elapsed:       int64(s.Elapsed),
			Status:        s.Status,
			Spans:         s.Spans[:s.NSpans],
			SpansDropped:  s.SpansDropped,
			Generated:     s.Generated,
			FromCache:     s.FromCache,
			Terminated:    s.Terminated,
			RejectedBusy:  s.RejectedBusy,
			Offloaded:     s.Offloaded,
			OffloadPeer:   s.OffloadPeer,
			Generation:    s.Generation,
			HedgedReads:   s.HedgedReads,
			HedgeWins:     s.HedgeWins,
			LeaseAcquires: s.LeaseAcquires,
			LeaseDenials:  s.LeaseDenials,
			LeaseRenewals: s.LeaseRenewals,
			LeaseReleases: s.LeaseReleases,
			FencedWrites:  s.FencedWrites,
			FenceRejects:  s.FenceRejects,
			FenceToken:    s.FenceToken,
		})
	}
	return out
}
