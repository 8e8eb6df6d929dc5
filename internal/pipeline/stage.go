// Package pipeline implements Na Kika's scripting pipeline: the Figure 4
// EXECUTE-PIPELINE algorithm that interleaves stage scheduling with
// onRequest event-handler execution, fetches the original resource when no
// handler created a response, and then unwinds the stages' onResponse
// handlers in reverse order.
package pipeline

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"nakika/internal/cache"
	"nakika/internal/deploy"
	"nakika/internal/httpmsg"
	"nakika/internal/policy"
	"nakika/internal/script"
	"nakika/internal/vocab"
)

// DefaultContextPoolSize returns the default bound on a stage's context pool:
// one ready context per schedulable CPU, so a fully loaded node can run one
// handler per core without serializing on a stage.
func DefaultContextPoolSize() int { return runtime.GOMAXPROCS(0) }

// Stage is a loaded pipeline stage: the policies registered by one script
// URL, the decision tree over them, and a bounded pool of ready scripting
// contexts their event handlers execute in. The pristine context produced by
// evaluating the stage script is kept as an immutable snapshot; executions
// run in forks of it (Section 4's context reuse, extended so N concurrent
// requests execute N handlers for the same stage in parallel instead of
// serializing on a single context lock).
type Stage struct {
	// URL is the script URL this stage was loaded from.
	URL string
	// Site is the site the stage was compiled for: its vocabulary reaches
	// that site's partitions, and its resource consumption is charged to it.
	Site string
	// Empty marks a stage whose script does not exist (negative cache), for
	// example a site without a nakika.js.
	Empty bool

	pristine *script.Context
	tree     *policy.Tree

	// handlerRoots are the event-handler values extracted from the pristine
	// context (policy onRequest/onResponse functions); each fork translates
	// them into its own heap so concurrent executions share no script state.
	handlerRoots []script.Value

	// forkCharge, when non-nil, charges the cost of forking a new pool
	// context (the pristine heap size, in bytes) to the stage's site.
	forkCharge func(site string, heapBytes int64)

	pool    chan *stageInstance
	mu      sync.Mutex // guards created
	created int
	cap     int
}

// stageInstance is one pooled execution context plus the translation from
// pristine handler values to this fork's copies.
type stageInstance struct {
	ctx      *script.Context
	handlers map[script.Value]script.Value
}

// newStage builds a runnable stage around a pristine post-evaluation context.
func newStage(url, site string, pristine *script.Context, tree *policy.Tree, poolSize int, forkCharge func(string, int64)) *Stage {
	if poolSize <= 0 {
		poolSize = DefaultContextPoolSize()
	}
	s := &Stage{
		URL:        url,
		Site:       site,
		pristine:   pristine,
		tree:       tree,
		forkCharge: forkCharge,
		pool:       make(chan *stageInstance, poolSize),
		cap:        poolSize,
	}
	for _, p := range tree.Policies() {
		if p.OnRequest != nil {
			s.handlerRoots = append(s.handlerRoots, p.OnRequest)
		}
		if p.OnResponse != nil {
			s.handlerRoots = append(s.handlerRoots, p.OnResponse)
		}
	}
	return s
}

// Match returns the closest valid policy for the input, or nil.
func (s *Stage) Match(in policy.Input) *policy.Policy {
	if s.Empty || s.tree == nil {
		return nil
	}
	return s.tree.Match(in)
}

// Policies returns the stage's registered policies (diagnostics, tests).
func (s *Stage) Policies() []*policy.Policy {
	if s.tree == nil {
		return nil
	}
	return s.tree.Policies()
}

// Run is one checked-out pooled execution context. It is valid only for the
// duration of the WithRun callback that produced it.
type Run struct {
	// Ctx is the scripting context the caller may bind messages into and run
	// handlers in; it is owned exclusively by this run until WithRun returns.
	Ctx *script.Context

	inst *stageInstance
}

// Handler translates a handler value extracted from the stage's pristine
// context (a policy's OnRequest/OnResponse) into this run's forked copy.
// Values that were not part of the stage's handler set pass through
// unchanged.
func (r *Run) Handler(v script.Value) script.Value {
	if t, ok := r.inst.handlers[v]; ok {
		return t
	}
	return v
}

// WithRun checks a ready context out of the stage's pool, runs fn with it,
// and returns it. New contexts are forked from the pristine snapshot on
// demand up to the pool bound; once the bound is reached callers block until
// a context is released. Terminated contexts are reset before reuse.
func (s *Stage) WithRun(fn func(run *Run) error) error {
	inst, err := s.acquire()
	if err != nil {
		return err
	}
	defer s.release(inst)
	return fn(&Run{Ctx: inst.ctx, inst: inst})
}

func (s *Stage) acquire() (*stageInstance, error) {
	if s.pristine == nil {
		return nil, fmt.Errorf("pipeline: stage %s has no context", s.URL)
	}
	select {
	case inst := <-s.pool:
		return inst, nil
	default:
	}
	s.mu.Lock()
	if s.created < s.cap {
		s.created++
		s.mu.Unlock()
		return s.fork(), nil
	}
	s.mu.Unlock()
	return <-s.pool, nil
}

func (s *Stage) release(inst *stageInstance) {
	// Reset unconditionally: it clears termination and zeroes the cumulative
	// step/heap counters while keeping the global environment. Counters must
	// not survive release — a run that crossed MaxSteps/MaxHeapBytes would
	// otherwise return the instance to the pool poisoned, failing every
	// future request it serves. Handler charging uses per-run deltas, so
	// zeroing between runs is accounting-safe.
	inst.ctx.Reset()
	s.pool <- inst
}

// fork clones the pristine context (and the handler values rooted in it)
// into a new pool instance, charging the fork's heap cost to the site.
func (s *Stage) fork() *stageInstance {
	ctx, translated := s.pristine.Fork(s.handlerRoots...)
	handlers := make(map[script.Value]script.Value, len(s.handlerRoots))
	for i, root := range s.handlerRoots {
		handlers[root] = translated[i]
	}
	if s.forkCharge != nil {
		s.forkCharge(s.Site, s.pristine.HeapBytes())
	}
	return &stageInstance{ctx: ctx, handlers: handlers}
}

// Loader is the one owner of a node's compiled stages. It fetches stage
// scripts through the host (and therefore through the proxy cache),
// evaluates them, and keeps the resulting stages, each keyed by the site it
// runs for: a stage's vocabulary (State, Cache, Lease, Log) and the CPU,
// memory and fork charges of its handlers are bound to one site when it is
// compiled, so one script URL compiles once per site it serves. Beside the
// fetched stages it keeps each site's deployed stage (see Deploy), the one
// that serves the site's nakika.js while a deployment is active.
type Loader struct {
	// Host provides script fetching and the vocabularies installed into
	// stage contexts.
	Host vocab.Host
	// Limits bounds each stage context.
	Limits script.Limits
	// ForkCharge, when non-nil, is invoked with the stage's site and the
	// pristine context's heap size whenever a new pool context is forked, so
	// the node can charge context replication to the site's resource budget.
	ForkCharge func(site string, heapBytes int64)
	// poolSize bounds every stage's pool of ready contexts; zero means
	// DefaultContextPoolSize().
	poolSize int

	mu sync.RWMutex
	// stages holds fetched stages by (site, script URL), and for a script
	// URL known not to exist the Empty stage every request for it shares,
	// so the (very hot) no-script path costs one lookup and allocates
	// nothing. It holds at most maxStages entries.
	stages map[stageKey]*Stage
	// deployed holds each site's deployed stage; it is never evicted.
	deployed map[string]deployment

	// loads coalesces concurrent cold loads of one (site, script URL) so a
	// stampede on a scripted site evaluates the script once instead of
	// once per request.
	loads cache.Group[*Stage]
}

// maxStages bounds the loader's fetched stages; past it, storing one drops
// an arbitrary other (rebuilding a stage costs one fetch and compile).
const maxStages = 4096

// stageKey names a fetched stage: the script URL and the site it runs for.
type stageKey struct{ site, url string }

// deployment is one site's deployed stage with the generation and script
// text it was built from, the content key that makes Deploy idempotent.
type deployment struct {
	gen    uint64
	source string
	stage  *Stage
}

// NewLoader returns a loader backed by host.
func NewLoader(host vocab.Host, limits script.Limits) *Loader {
	return &Loader{
		Host:     host,
		Limits:   limits,
		stages:   make(map[stageKey]*Stage),
		deployed: make(map[string]deployment),
	}
}

// Load returns site's stage for scriptURL. A script the origin says is not
// there (a non-200 answer below 500) yields an Empty stage that is kept; a
// failed fetch or a 5xx yields one that is not. Concurrent cold loads of
// the same (site, URL) coalesce into one fetch+compile.
func (l *Loader) Load(scriptURL, site string) (*Stage, error) {
	if st := l.stage(stageKey{site, scriptURL}); st != nil {
		return st, nil
	}
	st, _, _, err := l.loads.Do(site+"\x00"+scriptURL, func() (*Stage, error) {
		return l.loadSlow(scriptURL, site)
	})
	return st, err
}

// stage returns the fetched stage kept under k, or nil.
func (l *Loader) stage(k stageKey) *Stage {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.stages[k]
}

// loadSlow fetches and compiles a stage (the cold path behind Load's map
// and coalescing).
func (l *Loader) loadSlow(scriptURL, site string) (*Stage, error) {
	// Re-check the map: a previous flight may have completed between this
	// caller's miss and its flight winning the slot; without this the stage
	// would be fetched and compiled a second time and replace the first
	// stage's already-forked context pool.
	k := stageKey{site, scriptURL}
	if st := l.stage(k); st != nil {
		return st, nil
	}
	req, err := httpmsg.NewRequest("GET", scriptURL)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage url %q: %w", scriptURL, err)
	}
	resp, err := l.Host.Fetch(req)
	if err != nil || resp == nil || resp.Status >= 500 {
		// No answer (the origin may not be up yet): no stage this time, and
		// nothing remembered, so the next load asks again.
		return &Stage{URL: scriptURL, Site: site, Empty: true}, nil
	}
	var st *Stage
	if resp.Status == 200 {
		st, err = l.Compile(scriptURL, site, string(resp.Body))
	}
	if st == nil {
		// No script, or one that fails to parse or evaluate: it contributes
		// no policies, and it must not take the node down. An error is
		// reported so the trace can surface it.
		st = &Stage{URL: scriptURL, Site: site, Empty: true}
	}
	l.put(k, st)
	return st, err
}

// put stores a fetched stage, dropping an arbitrary other one when the map
// is full.
func (l *Loader) put(k stageKey, st *Stage) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.stages) >= maxStages {
		for old := range l.stages {
			delete(l.stages, old)
			break
		}
	}
	l.stages[k] = st
}

// Deploy makes the stage compiled from source, at generation gen, the one
// that serves site's nakika.js, and reports whether it swapped one in. It
// compiles only when (gen, source) differs from what the site's deployment
// serves, so a re-apply is free. The stage is compiled before the swap: a
// request never sees a half-built stage, and a compile failure leaves the
// previous generation serving. Callers serialize the Deploys of one site.
func (l *Loader) Deploy(site string, gen uint64, source string) (bool, error) {
	l.mu.RLock()
	cur, ok := l.deployed[site]
	l.mu.RUnlock()
	if ok && cur.gen == gen && cur.source == source {
		return false, nil
	}
	st, err := l.Compile(deploy.StageURL(site, gen), site, source)
	if err != nil {
		return false, err
	}
	l.mu.Lock()
	l.deployed[site] = deployment{gen: gen, source: source, stage: st}
	l.mu.Unlock()
	return true, nil
}

// Deployed returns site's deployed stage and its generation, or (nil, 0)
// when the site has none. The executor reads it once per request, which
// pins the generation the whole request runs on.
func (l *Loader) Deployed(site string) (*Stage, uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d := l.deployed[site]
	return d.stage, d.gen
}

// Generations returns the generation of every site's deployed stage.
func (l *Loader) Generations() map[string]uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	gens := make(map[string]uint64, len(l.deployed))
	for site, d := range l.deployed {
		gens[site] = d.gen
	}
	return gens
}

// Validate checks a script bundle before the deployment plane accepts it:
// the script must parse, every free identifier must resolve against the
// installed vocabulary, and a canary compile over no-op host operations must
// evaluate without error or panic. Validation runs entirely against
// vocab.NopHost, so a malicious or broken registration-time script cannot
// touch the node's real cache, state, or leases — and a panic rejects the
// bundle instead of crashing the node.
func Validate(site, source string, limits script.Limits) (err error) {
	prog, err := script.Parse(source, "deploy://"+site+"/"+SiteScriptName)
	if err != nil {
		return fmt.Errorf("pipeline: validate %s: %w", site, err)
	}
	vctx, _ := vocab.ValidationContext(site, limits)
	allowed := make(map[string]bool)
	for _, name := range vctx.GlobalNames() {
		allowed[name] = true
	}
	var unknown []string
	for _, name := range script.FreeIdents(prog) {
		if !allowed[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		return fmt.Errorf("pipeline: validate %s: script references unknown identifiers: %s", site, strings.Join(unknown, ", "))
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: validate %s: canary compile panicked: %v", site, r)
		}
	}()
	canary := NewLoader(vocab.NopHost{}, limits)
	if _, cerr := canary.Compile("deploy://"+site+"/"+SiteScriptName, site, source); cerr != nil {
		return fmt.Errorf("pipeline: validate %s: %w", site, cerr)
	}
	return nil
}

// Compile builds site's stage from source text without keeping it: Load and
// Deploy keep what they compile, and an extension that generates a stage
// runs the one it gets.
func (l *Loader) Compile(scriptURL, site, source string) (*Stage, error) {
	ctx := script.NewContext(l.Limits)
	reg := &vocab.Registry{}
	vocab.InstallPolicyConstructor(ctx, reg)
	vocab.Install(ctx, l.Host, site)
	// Stage scripts run without a bound Request/Response: registration-time
	// code only declares policies. Handlers run later with bindings.
	if _, err := ctx.RunSource(source, scriptURL); err != nil {
		return nil, fmt.Errorf("pipeline: evaluate %s: %w", scriptURL, err)
	}
	registered := reg.Registered()
	policies := make([]*policy.Policy, 0, len(registered)+2)
	for _, obj := range registered {
		p, err := policy.FromScriptObject(obj, scriptURL)
		if err != nil {
			return nil, fmt.Errorf("pipeline: policy in %s: %w", scriptURL, err)
		}
		policies = append(policies, p)
	}
	// Top-level onRequest/onResponse assignments (without a policy object)
	// form an implicit catch-all policy, which is how the simplest scripts
	// in the paper are written (Figure 2).
	implicit := &policy.Policy{Source: scriptURL}
	if v, ok := ctx.Global("onRequest"); ok && script.Callable(v) {
		implicit.OnRequest = v
	}
	if v, ok := ctx.Global("onResponse"); ok && script.Callable(v) {
		implicit.OnResponse = v
	}
	if v, ok := ctx.Global("nextStages"); ok {
		if arr, isArr := v.(*script.Array); isArr {
			for _, e := range arr.Elems {
				implicit.NextStages = append(implicit.NextStages, script.ToString(e))
			}
		}
	}
	if implicit.HasHandlers() {
		policies = append(policies, implicit)
	}
	return newStage(scriptURL, site, ctx, policy.NewTree(policies), l.poolSize, l.ForkCharge), nil
}
