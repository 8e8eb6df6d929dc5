package pipeline

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/policy"
	"nakika/internal/resource"
	"nakika/internal/script"
	nktrace "nakika/internal/trace"
	"nakika/internal/vocab"
)

// Default well-known script locations (Section 3.1): administrative control
// scripts come from the Na Kika site itself; the site-specific script is the
// nakika.js resource at the site root.
const (
	DefaultClientWallURL = "http://nakika.net/clientwall.js"
	DefaultServerWallURL = "http://nakika.net/serverwall.js"
	SiteScriptName       = "nakika.js"
)

// DefaultMaxStages bounds dynamically scheduled stages so a malicious script
// cannot schedule stages forever.
const DefaultMaxStages = 32

// Executor runs the scripting pipeline for one edge node.
type Executor struct {
	// Loader resolves stage script URLs to loaded stages.
	Loader *Loader
	// Host provides vocabularies during handler execution (same host the
	// loader uses).
	Host vocab.Host
	// FetchOrigin retrieves the original resource when no onRequest handler
	// generated a response; the proxy wires its cache + upstream client in
	// here.
	FetchOrigin func(*httpmsg.Request) (*httpmsg.Response, error)
	// Resources, when non-nil, receives admission decisions, consumption
	// charges, and termination registrations.
	Resources *resource.Manager
	// ClientWallURL and ServerWallURL override the administrative control
	// script locations; node administrators may point these at their own,
	// location-specific policies.
	ClientWallURL string
	ServerWallURL string
	// MaxStages bounds the total number of stages per pipeline; zero means
	// DefaultMaxStages.
	MaxStages int
	// ClientHostLookup maps a client IP to a hostname for client predicates;
	// nil means no hostname information.
	ClientHostLookup func(ip string) string
	// SiteDeployment, when non-nil, resolves a site to its live-deployed
	// site-script stage and deployment generation. The executor consults it
	// exactly once per request, before any stage runs: the whole pipeline —
	// forward pass and backward unwind — executes against that one pinned
	// stage even if a new generation is swapped in mid-request, so no
	// response ever mixes script versions. A (nil, 0) return means no
	// deployment for the site; the stage loads from the cache as usual.
	SiteDeployment func(site string) (*Stage, uint64)
}

// StageTrace records one executed stage for diagnostics and benchmarks.
type StageTrace struct {
	ScriptURL   string
	Matched     bool
	PolicySrc   string
	RanRequest  bool
	RanResponse bool
	Err         string
}

// Trace summarizes a pipeline execution.
type Trace struct {
	// Act is the request's activity record: its cross-node trace id, the
	// span timings of every handler run and the origin fetch, and the
	// hedged-read / lease / fenced-write activity the host layer stamped
	// while this request's handlers ran. It lives inline in the Trace
	// allocation; the executor hands &Act to handler contexts so host
	// vocabularies can record onto it.
	Act nktrace.Act

	Stages       []StageTrace
	Generated    bool
	FromCache    bool
	Terminated   bool
	RejectedBusy bool
	Elapsed      time.Duration
	// Offloaded marks a request the load-shedding layer executed on another
	// node instead of the local pipeline (no stages ran here); OffloadPeer
	// names the node that did the work.
	Offloaded   bool
	OffloadPeer string

	// Generation is the deployment generation of the site script this
	// request executed against (0 when the site has no live deployment).
	// It is pinned when the pipeline starts and never changes mid-request.
	Generation uint64

	// Streamed marks a response served from the chunked large-object tier
	// without materializing the body in memory: header-only scripts saw the
	// headers, while segments flowed to the client lazily. Segments is the
	// object's total segment count and SegmentsResident how many were held
	// locally when the response was formed (the rest resolve from a peer or
	// the origin as the client reads).
	Streamed         bool
	Segments         int
	SegmentsResident int

	// stagesBuf is the inline backing array for Stages: the standard
	// three-stage pipeline records its traces inside the Trace allocation
	// itself instead of growing a separate slice per request.
	stagesBuf [4]StageTrace
}

// RanHandlers reports whether any stage executed a script handler. Callers
// that pool requests use it as the safety gate: a request no script touched
// cannot have been captured by one.
func (t *Trace) RanHandlers() bool {
	for i := range t.Stages {
		if t.Stages[i].RanRequest || t.Stages[i].RanResponse {
			return true
		}
	}
	return t.Generated
}

// Execute runs the full pipeline of Figure 4 for req and returns the
// response to deliver to the client together with an execution trace.
func (e *Executor) Execute(req *httpmsg.Request) (*httpmsg.Response, *Trace, error) {
	start := time.Now()
	trace := &Trace{}
	trace.Stages = trace.stagesBuf[:0]
	trace.Act.ID = req.TraceID
	site := req.SiteKey()

	// Admission control by the resource manager: throttled sites see a
	// server-busy error before any processing happens (requests are dropped
	// early, before resources have been expended).
	if e.Resources != nil && !e.Resources.Admit(site) {
		trace.RejectedBusy = true
		trace.Elapsed = time.Since(start)
		return httpmsg.NewTextResponse(http.StatusServiceUnavailable, "server busy\n"), trace, nil
	}

	// The pipeline registers with the resource manager for its whole
	// lifetime through a kill flag, so termination reaches pipelines that
	// are between phases (for example waiting on the origin fetch), not
	// just ones inside a handler. Handlers additionally register their
	// pooled execution context for the duration of each call (see
	// withHandlerRun) so a running script is interrupted mid-flight.
	var terminated bool
	var killed atomic.Bool
	if e.Resources != nil {
		id := e.Resources.RegisterPipeline(site, func() { killed.Store(true) })
		defer e.Resources.UnregisterPipeline(site, id)
	}

	maxStages := e.MaxStages
	if maxStages <= 0 {
		maxStages = DefaultMaxStages
	}

	// forward is the stack of stage script URLs still to run; the top of the
	// stack is the end of the slice. Both stacks live in fixed-size local
	// arrays — the standard three-stage pipeline never spills to the heap,
	// and dynamically scheduled stages just grow past the array.
	var forwardBuf [8]string
	siteScriptURL := e.siteScriptURL(req)
	forward := append(forwardBuf[:0],
		e.serverWallURL(),
		siteScriptURL,
		e.clientWallURL(),
	)

	// Pin the site's deployed stage (if any) for the life of this request.
	// The backward unwind reuses the *Stage pointers captured on the forward
	// pass, so resolving once here guarantees an atomic view of the
	// deployment: a swap that lands mid-request affects only later requests.
	var deployedStage *Stage
	if e.SiteDeployment != nil {
		deployedStage, trace.Generation = e.SiteDeployment(site)
	}
	type executedStage struct {
		stage  *Stage
		pol    *policy.Policy
		script string
	}
	var backwardBuf [8]executedStage
	backward := backwardBuf[:0]
	var response *httpmsg.Response
	stagesRun := 0

	for len(forward) > 0 && stagesRun < maxStages {
		if killed.Load() {
			terminated = true
			break
		}
		scriptURL := forward[len(forward)-1]
		forward = forward[:len(forward)-1]
		stagesRun++

		st := StageTrace{ScriptURL: scriptURL}
		var stage *Stage
		var err error
		if deployedStage != nil && scriptURL == siteScriptURL {
			stage = deployedStage
		} else {
			stage, err = e.Loader.Load(scriptURL, site)
		}
		if err != nil {
			st.Err = err.Error()
		}
		pol := stage.Match(e.policyInput(req))
		if pol != nil {
			st.Matched = true
			st.PolicySrc = pol.Source
		}
		backward = append(backward, executedStage{stage: stage, pol: pol, script: scriptURL})

		if pol != nil && pol.OnRequest != nil {
			st.RanRequest = true
			spanStart := time.Since(start)
			resp, err := e.runOnRequest(stage, pol, site, &killed, trace, req)
			trace.Act.AddSpan(scriptURL, spanStart, time.Since(start)-spanStart)
			if err != nil {
				if stopsPipeline(err) {
					terminated = true
					st.Err = err.Error()
					trace.Stages = append(trace.Stages, st)
					break
				}
				st.Err = err.Error()
			}
			if resp != nil {
				// Handler created a response: reverse direction.
				response = resp
				trace.Generated = true
				trace.Stages = append(trace.Stages, st)
				break
			}
		}
		if pol != nil && len(pol.NextStages) > 0 {
			// Dynamically scheduled stages run directly after this stage but
			// before already scheduled ones: push them so that
			// NextStages[0] pops first.
			for i := len(pol.NextStages) - 1; i >= 0; i-- {
				forward = append(forward, pol.NextStages[i])
			}
		}
		trace.Stages = append(trace.Stages, st)
	}

	if terminated {
		trace.Terminated = true
		trace.Elapsed = time.Since(start)
		e.charge(site, req, nil, trace)
		return httpmsg.NewTextResponse(http.StatusServiceUnavailable, "pipeline terminated\n"), trace, nil
	}

	// Fetch the original resource when no handler generated a response.
	if response == nil {
		if e.FetchOrigin == nil {
			return nil, trace, fmt.Errorf("pipeline: no origin fetcher configured")
		}
		spanStart := time.Since(start)
		resp, err := e.FetchOrigin(req)
		trace.Act.AddSpan("origin", spanStart, time.Since(start)-spanStart)
		if err != nil {
			resp = httpmsg.NewTextResponse(http.StatusBadGateway, "origin fetch failed: "+err.Error()+"\n")
		}
		response = resp
		trace.FromCache = resp.FromCache
	}

	if killed.Load() {
		trace.Terminated = true
		trace.Elapsed = time.Since(start)
		e.charge(site, req, nil, trace)
		return httpmsg.NewTextResponse(http.StatusServiceUnavailable, "pipeline terminated\n"), trace, nil
	}

	// Unwind: run onResponse handlers in reverse order of stage execution.
	for i := len(backward) - 1; i >= 0; i-- {
		ex := backward[i]
		if ex.pol == nil || ex.pol.OnResponse == nil {
			continue
		}
		for j := range trace.Stages {
			if trace.Stages[j].ScriptURL == ex.script {
				trace.Stages[j].RanResponse = true
			}
		}
		spanStart := time.Since(start)
		err := e.runOnResponse(ex.stage, ex.pol, site, &killed, trace, req, response)
		trace.Act.AddSpan(ex.script, spanStart, time.Since(start)-spanStart)
		if err != nil {
			if stopsPipeline(err) {
				trace.Terminated = true
				trace.Elapsed = time.Since(start)
				e.charge(site, req, nil, trace)
				return httpmsg.NewTextResponse(http.StatusServiceUnavailable, "pipeline terminated\n"), trace, nil
			}
			for j := range trace.Stages {
				if trace.Stages[j].ScriptURL == ex.script && trace.Stages[j].Err == "" {
					trace.Stages[j].Err = err.Error()
				}
			}
		}
	}

	trace.Elapsed = time.Since(start)
	e.charge(site, req, response, trace)
	return response, trace, nil
}

// stopsPipeline reports whether a handler's error is a kill or a sandbox
// limit (steps, heap, call depth), which ends the request with a 503 and is
// charged to the site, rather than failing one stage.
func stopsPipeline(err error) bool {
	return errors.Is(err, script.ErrTerminated) || errors.Is(err, script.ErrStepLimit) ||
		errors.Is(err, script.ErrMemoryLimit) || errors.Is(err, script.ErrDepthLimit)
}

// withHandlerRun checks a pooled context out of the stage, registers it with
// the resource manager for the duration of fn (so congestion control can
// terminate the handler mid-flight), and runs fn. A pipeline whose kill
// flag was already raised does not start another handler.
func (e *Executor) withHandlerRun(stage *Stage, site string, killed *atomic.Bool, fn func(run *Run) error) error {
	if killed.Load() {
		return script.ErrTerminated
	}
	return stage.WithRun(func(run *Run) error {
		if e.Resources != nil {
			id := e.Resources.RegisterPipeline(site, run.Ctx.Terminate)
			defer e.Resources.UnregisterPipeline(site, id)
		}
		if killed.Load() {
			return script.ErrTerminated
		}
		return fn(run)
	})
}

// runOnRequest executes a policy's onRequest handler against req and returns
// the response it produced, if any.
func (e *Executor) runOnRequest(stage *Stage, pol *policy.Policy, site string, killed *atomic.Bool, trace *Trace, req *httpmsg.Request) (*httpmsg.Response, error) {
	var produced *httpmsg.Response
	err := e.withHandlerRun(stage, site, killed, func(run *Run) error {
		ctx := run.Ctx
		ctx.Act = &trace.Act
		defer func() { ctx.Act = nil }()
		vocab.BindRequest(ctx, req)
		// Bind a fresh response the handler may choose to fill from scratch.
		generated := vocab.NewGeneratedResponse()
		vocab.BindResponse(ctx, generated)
		beforeSteps, beforeHeap := ctx.Steps(), ctx.HeapBytes()
		ret, err := ctx.Call(run.Handler(pol.OnRequest), script.Undefined{})
		e.chargeSteps(stage.Site, ctx.Steps()-beforeSteps, ctx.HeapBytes()-beforeHeap)
		if err != nil {
			return err
		}
		// A handler creates a response by terminating the request, by
		// writing to the bound Response, or by returning a response-shaped
		// object.
		if t := req.Terminated(); t != nil {
			produced = t
			req.ClearTermination()
			return nil
		}
		if generated.Generated {
			produced = generated
			return nil
		}
		if obj, ok := ret.(*script.Object); ok {
			if resp := scriptObjectToResponse(obj); resp != nil {
				produced = resp
			}
		}
		return nil
	})
	return produced, err
}

// runOnResponse executes a policy's onResponse handler against resp.
func (e *Executor) runOnResponse(stage *Stage, pol *policy.Policy, site string, killed *atomic.Bool, trace *Trace, req *httpmsg.Request, resp *httpmsg.Response) error {
	return e.withHandlerRun(stage, site, killed, func(run *Run) error {
		ctx := run.Ctx
		ctx.Act = &trace.Act
		defer func() { ctx.Act = nil }()
		vocab.BindRequest(ctx, req)
		vocab.BindResponse(ctx, resp)
		beforeSteps, beforeHeap := ctx.Steps(), ctx.HeapBytes()
		_, err := ctx.Call(run.Handler(pol.OnResponse), script.Undefined{})
		e.chargeSteps(stage.Site, ctx.Steps()-beforeSteps, ctx.HeapBytes()-beforeHeap)
		return err
	})
}

// chargeSteps reports the CPU and memory consumed by one handler execution
// (deltas over the reused context's counters) to the resource manager.
func (e *Executor) chargeSteps(site string, steps, heapBytes int64) {
	if e.Resources == nil {
		return
	}
	if steps > 0 {
		e.Resources.Charge(site, resource.CPU, float64(steps))
	}
	if heapBytes > 0 {
		e.Resources.Charge(site, resource.Memory, float64(heapBytes))
	}
}

// charge records per-request bandwidth, bytes transferred, and running time.
func (e *Executor) charge(site string, req *httpmsg.Request, resp *httpmsg.Response, trace *Trace) {
	if e.Resources == nil {
		return
	}
	bytes := float64(len(req.Body))
	if resp != nil {
		// TotalLen covers streamed bodies (segments the client will pull)
		// as well as in-memory ones.
		bytes += float64(resp.TotalLen())
	}
	if bytes > 0 {
		e.Resources.Charge(site, resource.Bandwidth, bytes)
		e.Resources.Charge(site, resource.BytesTransferred, bytes)
	}
	e.Resources.Charge(site, resource.RunningTime, trace.Elapsed.Seconds())
}

// policyInput converts the request into the predicate evaluation input.
func (e *Executor) policyInput(req *httpmsg.Request) policy.Input {
	in := policy.Input{
		Host:     req.Host(),
		Port:     req.URL.Port(),
		Path:     req.Path(),
		ClientIP: req.ClientIP,
		Method:   req.Method,
		Header:   req.Header,
	}
	if h := req.Header.Get("X-Na-Kika-Client-Host"); h != "" {
		in.ClientHost = h
	} else if e.ClientHostLookup != nil {
		in.ClientHost = e.ClientHostLookup(req.ClientIP)
	}
	return in
}

func (e *Executor) clientWallURL() string {
	if e.ClientWallURL != "" {
		return e.ClientWallURL
	}
	return DefaultClientWallURL
}

func (e *Executor) serverWallURL() string {
	if e.ServerWallURL != "" {
		return e.ServerWallURL
	}
	return DefaultServerWallURL
}

// siteScriptURL returns the nakika.js location for the request's site,
// accessed relative to the server's domain (comparable to robots.txt).
func (e *Executor) siteScriptURL(req *httpmsg.Request) string {
	host := req.URL.Host
	scheme := req.URL.Scheme
	if scheme == "" {
		scheme = "http"
	}
	return scheme + "://" + host + "/" + SiteScriptName
}

// scriptObjectToResponse converts a { status, headers, body } object returned
// by an onRequest handler into a response; it returns nil when the object
// does not look like a response.
func scriptObjectToResponse(obj *script.Object) *httpmsg.Response {
	statusVal, hasStatus := obj.Get("status")
	bodyVal, hasBody := obj.Get("body")
	if !hasStatus && !hasBody {
		return nil
	}
	status := 200
	if hasStatus {
		status = script.ToInt(statusVal)
	}
	if status < 100 || status > 599 {
		return nil
	}
	resp := httpmsg.NewResponse(status)
	resp.Generated = true
	resp.Header.Set("Content-Type", "text/html; charset=utf-8")
	if hv, ok := obj.Get("headers"); ok {
		if ho, ok := hv.(*script.Object); ok {
			for _, k := range ho.Keys() {
				v, _ := ho.Get(k)
				resp.Header.Set(k, script.ToString(v))
			}
		}
	}
	if hasBody {
		switch b := bodyVal.(type) {
		case *script.ByteArray:
			resp.SetBody(append([]byte(nil), b.Data...))
		default:
			if !script.IsNullish(b) {
				resp.SetBodyString(script.ToString(b))
			}
		}
	}
	return resp
}
