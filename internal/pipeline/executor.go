package pipeline

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"nakika/internal/httpmsg"
	"nakika/internal/policy"
	"nakika/internal/resource"
	"nakika/internal/script"
	nktrace "nakika/internal/trace"
	"nakika/internal/vocab"
)

// SiteScriptName is the well-known location of the site-specific script
// (Section 3.1): the nakika.js resource at the site root.
const SiteScriptName = "nakika.js"

// DefaultMaxStages bounds dynamically scheduled stages so a malicious script
// cannot schedule stages forever.
const DefaultMaxStages = 32

// Executor runs the scripting pipeline for one edge node.
type Executor struct {
	// Loader resolves stage script URLs to loaded stages.
	Loader *Loader
	// Host provides vocabularies during handler execution (same host the
	// loader uses), and the clock (Host.Now) spans and Trace.Elapsed are
	// timed on.
	Host vocab.Host
	// FetchOrigin retrieves the original resource when no onRequest handler
	// generated a response; the proxy wires its cache + upstream client in
	// here.
	FetchOrigin func(*httpmsg.Request) (*httpmsg.Response, error)
	// Resources, when non-nil, receives admission decisions, consumption
	// charges, and termination registrations.
	Resources *resource.Manager
	// ClientWallURL and ServerWallURL locate the administrative control
	// scripts (Section 3.1), the first and the last stage of every pipeline;
	// node administrators point these at their own, location-specific
	// policies. An empty one means no such stage, and no fetch for it.
	ClientWallURL string
	ServerWallURL string
	// MaxStages bounds the total number of stages per pipeline; zero means
	// DefaultMaxStages.
	MaxStages int
	// ClientHostLookup maps a client IP to a hostname for client predicates;
	// nil means no hostname information.
	ClientHostLookup func(ip string) string

	// refusals counts the requests refused because a wall (0) or another
	// stage (1) failed to load with no stage to serve.
	refusals [2]atomic.Int64
}

// Refusals returns how many requests were refused (503, Retry-After)
// because a stage failed to load with no good stage to serve: a wall, or a
// site's script or a stage it scheduled.
func (e *Executor) Refusals() (wall, site int64) {
	return e.refusals[0].Load(), e.refusals[1].Load()
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
	// three-stage pipeline records its traces inside the Trace itself
	// instead of growing a separate slice per request.
	stagesBuf [4]StageTrace

	// killed is the pipeline's kill flag, which the resource manager raises
	// to end it between phases. It is registered for the request's life as
	// a pointer into the Trace, so registering allocates nothing.
	killed killFlag
}

// killFlag is a pipeline's kill flag, registered with the resource manager
// as the pipeline's resource.Terminator.
type killFlag struct{ atomic.Bool }

// Terminate raises the flag.
func (k *killFlag) Terminate() { k.Store(true) }

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

// since returns the host clock's time elapsed since start.
func (e *Executor) since(start time.Time) time.Duration { return e.Host.Now().Sub(start) }

// Execute runs the full pipeline of Figure 4 for req and returns the
// response to deliver to the client together with an execution trace of its
// own.
func (e *Executor) Execute(req *httpmsg.Request) (*httpmsg.Response, *Trace, error) {
	trace := new(Trace)
	resp, err := e.ExecuteInto(req, trace)
	return resp, trace, err
}

// ExecuteInto is Execute with the trace's storage supplied by the caller,
// which it resets and fills: a client connection keeps one Trace and lends
// it to each request it serves, so a request allocates none. Nothing keeps
// trace once ExecuteInto returns.
func (e *Executor) ExecuteInto(req *httpmsg.Request, trace *Trace) (*httpmsg.Response, error) {
	start := e.Host.Now()
	*trace = Trace{}
	trace.Stages = trace.stagesBuf[:0]
	trace.Act.ID = req.TraceID
	site := req.SiteKey()

	// Admission control by the resource manager: throttled sites see a
	// server-busy error before any processing happens (requests are dropped
	// early, before resources have been expended).
	if e.Resources != nil && !e.Resources.Admit(site) {
		trace.RejectedBusy = true
		trace.Elapsed = e.since(start)
		return httpmsg.NewTextResponse(http.StatusServiceUnavailable, "server busy\n"), nil
	}

	// The pipeline registers with the resource manager for its whole
	// lifetime through its kill flag, so termination reaches pipelines that
	// are between phases (for example waiting on the origin fetch), not
	// just ones inside a handler. Handlers additionally register their
	// pooled execution context for the duration of each call (see
	// withHandlerRun) so a running script is interrupted mid-flight.
	var terminated bool
	killed := &trace.killed
	if e.Resources != nil {
		id := e.Resources.RegisterPipeline(site, killed)
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
	// The site's nakika.js, accessed relative to the server's domain
	// (comparable to robots.txt).
	siteScriptURL := req.SiteURL(SiteScriptName)
	forward := forwardBuf[:0]
	if e.ServerWallURL != "" {
		forward = append(forward, e.ServerWallURL)
	}
	forward = append(forward, siteScriptURL)
	if e.ClientWallURL != "" {
		forward = append(forward, e.ClientWallURL)
	}

	// Pin the site's deployed stage (if any) for the life of this request:
	// the whole pipeline, forward pass and backward unwind, runs on it even
	// if a new generation is swapped in mid-request, so no response mixes
	// script versions. The unwind reuses the *Stage pointers captured on
	// the forward pass, so resolving once here is the whole pin.
	deployedStage, gen := e.Loader.Deployed(site)
	trace.Generation = gen
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
			stage, err = e.Loader.load(scriptURL, site, start)
		}
		if err != nil {
			st.Err = err.Error()
		}
		if stage == nil {
			// The stage failed to load and has no good stage to serve: a wall
			// or a site script may be an access control, so the request fails
			// closed instead of running without it.
			trace.Stages = append(trace.Stages, st)
			return e.refuse(site, scriptURL, req, trace, start), nil
		}
		pol := stage.Match(e.policyInput(req))
		if pol != nil {
			st.Matched = true
			st.PolicySrc = pol.Source
		}
		backward = append(backward, executedStage{stage: stage, pol: pol, script: scriptURL})

		if pol != nil && pol.OnRequest != nil {
			st.RanRequest = true
			spanStart := e.since(start)
			resp, err := e.runOnRequest(stage, pol, site, killed, trace, req)
			trace.Act.AddSpan(scriptURL, spanStart, e.since(start)-spanStart)
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
		trace.Elapsed = e.since(start)
		e.charge(site, req, nil, trace)
		return httpmsg.NewTextResponse(http.StatusServiceUnavailable, "pipeline terminated\n"), nil
	}

	// Fetch the original resource when no handler generated a response.
	if response == nil {
		if e.FetchOrigin == nil {
			return nil, fmt.Errorf("pipeline: no origin fetcher configured")
		}
		spanStart := e.since(start)
		resp, err := e.FetchOrigin(req)
		trace.Act.AddSpan("origin", spanStart, e.since(start)-spanStart)
		if err != nil {
			resp = httpmsg.NewTextResponse(http.StatusBadGateway, "origin fetch failed: "+err.Error()+"\n")
		}
		response = resp
		trace.FromCache = resp.FromCache
	}

	if killed.Load() {
		trace.Terminated = true
		trace.Elapsed = e.since(start)
		e.charge(site, req, nil, trace)
		return httpmsg.NewTextResponse(http.StatusServiceUnavailable, "pipeline terminated\n"), nil
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
		spanStart := e.since(start)
		err := e.runOnResponse(ex.stage, ex.pol, site, killed, trace, req, response)
		trace.Act.AddSpan(ex.script, spanStart, e.since(start)-spanStart)
		if err != nil {
			if stopsPipeline(err) {
				trace.Terminated = true
				trace.Elapsed = e.since(start)
				e.charge(site, req, nil, trace)
				return httpmsg.NewTextResponse(http.StatusServiceUnavailable, "pipeline terminated\n"), nil
			}
			for j := range trace.Stages {
				if trace.Stages[j].ScriptURL == ex.script && trace.Stages[j].Err == "" {
					trace.Stages[j].Err = err.Error()
				}
			}
		}
	}

	trace.Elapsed = e.since(start)
	e.charge(site, req, response, trace)
	return response, nil
}

// refuse answers a request whose stage at scriptURL failed to load: 503,
// with Retry-After at the loader's back-off.
func (e *Executor) refuse(site, scriptURL string, req *httpmsg.Request, trace *Trace, start time.Time) *httpmsg.Response {
	if scriptURL == e.ClientWallURL || scriptURL == e.ServerWallURL {
		e.refusals[0].Add(1)
	} else {
		e.refusals[1].Add(1)
	}
	trace.Elapsed = e.since(start)
	e.charge(site, req, nil, trace)
	resp := httpmsg.NewTextResponse(http.StatusServiceUnavailable, "stage unavailable\n")
	resp.Header.Set("Retry-After", strconv.Itoa(int(failBackoff/time.Second)))
	return resp
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
func (e *Executor) withHandlerRun(stage *Stage, site string, killed *killFlag, fn func(run *Run) error) error {
	if killed.Load() {
		return script.ErrTerminated
	}
	return stage.WithRun(func(run *Run) error {
		if e.Resources != nil {
			id := e.Resources.RegisterPipeline(site, run.Ctx)
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
func (e *Executor) runOnRequest(stage *Stage, pol *policy.Policy, site string, killed *killFlag, trace *Trace, req *httpmsg.Request) (*httpmsg.Response, error) {
	var produced *httpmsg.Response
	err := e.withHandlerRun(stage, site, killed, func(run *Run) error {
		// Bind a fresh response the handler may choose to fill from scratch.
		generated := vocab.NewGeneratedResponse()
		ret, err := e.runHandler(run, stage, trace, pol.OnRequest, req, generated)
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
func (e *Executor) runOnResponse(stage *Stage, pol *policy.Policy, site string, killed *killFlag, trace *Trace, req *httpmsg.Request, resp *httpmsg.Response) error {
	return e.withHandlerRun(stage, site, killed, func(run *Run) error {
		_, err := e.runHandler(run, stage, trace, pol.OnResponse, req, resp)
		return err
	})
}

// runHandler calls one event handler in run's context with Request and
// Response standing for req and resp, and charges the stage's site the
// steps and heap bytes it took. The messages are cleared when it returns,
// so a pooled context holds none between runs.
func (e *Executor) runHandler(run *Run, stage *Stage, trace *Trace, handler script.Value, req *httpmsg.Request, resp *httpmsg.Response) (script.Value, error) {
	ctx := run.Ctx
	ctx.Act = &trace.Act
	vocab.BindRequest(ctx, req)
	vocab.BindResponse(ctx, resp)
	defer func() {
		ctx.Act = nil
		vocab.ClearMessages(ctx)
	}()
	beforeSteps, beforeHeap := ctx.Steps(), ctx.HeapBytes()
	ret, err := ctx.Call(run.Handler(handler), script.Undefined{})
	e.chargeSteps(stage.Site, ctx.Steps()-beforeSteps, ctx.HeapBytes()-beforeHeap)
	return ret, err
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
