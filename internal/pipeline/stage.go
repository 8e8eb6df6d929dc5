// Package pipeline implements Na Kika's scripting pipeline: the Figure 4
// EXECUTE-PIPELINE algorithm that interleaves stage scheduling with
// onRequest event-handler execution, fetches the original resource when no
// handler created a response, and then unwinds the stages' onResponse
// handlers in reverse order.
package pipeline

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
// pristine handler values to this fork's copies, and the Run WithRun lends
// each checkout of it.
type stageInstance struct {
	ctx      *script.Context
	handlers map[script.Value]script.Value
	run      Run
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

// Match returns the closest valid policy for the input, or nil. A stage
// without a tree, a missing script's, matches nothing.
func (s *Stage) Match(in policy.Input) *policy.Policy {
	if s.tree == nil {
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
// duration of the WithRun callback that produced it: its instance lends the
// same Run to every checkout.
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
	return fn(&inst.run)
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
	inst := &stageInstance{ctx: ctx, handlers: handlers}
	inst.run = Run{Ctx: ctx, inst: inst}
	return inst
}

// Loader is the one owner of a node's compiled stages. It fetches stage
// scripts through the host (and therefore through the proxy cache),
// evaluates them, and keeps the resulting stages, each keyed by the site it
// runs for: a stage's vocabulary (State, Cache, Lease, Log) and the CPU,
// memory and fork charges of its handlers are bound to one site when it is
// compiled, so one script URL compiles once per site it serves. Beside the
// fetched stages it keeps each site's deployed stage (see Deploy), the one
// that serves the site's nakika.js while a deployment is active.
//
// A fetched stage is a web object and lives by the HTTP rules of every
// cached copy: it is fresh until its script's answer expires (Expiry), then
// the next Load fetches the script again. Every entry, fetched, missing,
// failed or deployed, changes by one rule (swap): a new stage is compiled
// only when the script text differs from what the entry serves, before the
// swap. How long a stage outlives a failed refetch is the cache's one stale
// rule (cache.ServesStale), as for every cached copy: a reply marked Stale
// is the fetch chain's kept copy, which keeps (or compiles) the stage for
// failBackoff, and a missing script's stage, whose 404 the cache may keep
// no copy of, is kept by the same rule over the 404's header. A load that
// gets no usable answer (no reply, a 5xx, a script that does not compile)
// otherwise fails closed, held for failBackoff too, so a dead script URL
// costs one fetch per back-off, and the executor refuses the request with a
// 503.
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
	// Expiry returns the instant the script req fetched, answered with
	// header h at now, stops being fresh. The node answers from its fetch
	// chain's copy of the script, as stored, renewed or found there, so a
	// stage expires with that copy however late it was loaded, and from h
	// at now (cache.Cache.Expiry) when no fresh copy is kept. Nil keeps a
	// fetched stage until the loader drops it.
	Expiry func(req *httpmsg.Request, h httpmsg.Header, now time.Time) time.Time
	// poolSize bounds every stage's pool of ready contexts; zero means
	// DefaultContextPoolSize().
	poolSize int

	mu sync.RWMutex
	// stages holds an entry per fetched (site, script URL), and each site's
	// deployed stage under (site, ""). It holds at most maxStages fetched
	// entries.
	stages map[stageKey]*entry

	// loads coalesces concurrent loads of one (site, script URL) so a
	// stampede on a scripted site fetches and evaluates the script once
	// instead of once per request.
	loads cache.Group[*Stage]
	// results counts the loads that fetched a script, by LoadResults.
	results [len(LoadResults)]atomic.Int64
}

// maxStages bounds the loader's fetched stages; past it, storing one drops
// an arbitrary other (rebuilding a stage costs one fetch and compile).
const maxStages = 4096

// failBackoff is how long a load that got no usable answer is held before
// the script is fetched again.
const failBackoff = time.Second

// forever is the expiry of an entry that never expires: a deployed stage,
// or a fetched one when the loader has no Expiry.
var forever = time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)

// LoadResults names how a load that fetched a script ended (see
// Loader.Loads): a new stage compiled, the served stage kept because the
// script was unchanged, the script missing (a 4xx, or a page for a site
// stage), a stage kept by the stale rule past a failed refetch (the fetch
// chain's stale copy of the script, or a missing script kept over its 404),
// or a failure with no stage to serve.
var LoadResults = [...]string{"compiled", "revalidated", "missing", "stale", "failed"}

// errUnavailable is the error of a load that failed with no stage to serve.
var errUnavailable = errors.New("pipeline: stage unavailable")

// stageKey names an entry: the script URL and the site it runs for, with an
// empty URL for the site's deployed stage.
type stageKey struct{ site, url string }

// entry is what the loader keeps under one stageKey, in one shape for every
// kind of stage.
type entry struct {
	// stage is nil after a load that failed with no good stage to serve; a
	// missing script's stage has no policies.
	stage *Stage
	// digest and gen are what stage was built from: the SHA-256 of the
	// script text and the deployment generation (0 for a fetched script),
	// compared by swap.
	digest [sha256.Size]byte
	gen    uint64
	// expires is when Load fetches the script again: its answer's expiry, a
	// stale answer's or a failure's back-off, or forever.
	expires time.Time
	// missing is a missing script's answer, its header and expiry, by which
	// fail keeps the stage through a failed refetch (cache.ServesStale): the
	// cache keeps no expired copy of a 404 without a validator, so the fetch
	// chain has none to serve stale. It is nil for any other entry.
	missing *cache.Stale
}

// served returns what the entry serves: its stage, or errUnavailable.
func (e *entry) served() (*Stage, error) {
	if e.stage == nil {
		return nil, errUnavailable
	}
	return e.stage, nil
}

// NewLoader returns a loader backed by host.
func NewLoader(host vocab.Host, limits script.Limits) *Loader {
	return &Loader{
		Host:   host,
		Limits: limits,
		stages: make(map[stageKey]*entry),
	}
}

// Load returns site's stage for scriptURL, a site stage (not a wall),
// fetching the script when the stage kept for it has expired (see Loader).
// It returns a nil stage and an error when the load failed. Concurrent
// loads of the same (site, URL) coalesce into one fetch and compile.
func (l *Loader) Load(scriptURL, site string) (*Stage, error) {
	return l.load(scriptURL, site, l.Host.Now(), false)
}

// load is Load at now, the instant the executor read when its request
// began, so a fresh stage costs one compare and no clock read; wall says
// the script is one of the node's walls (see refresh).
func (l *Loader) load(scriptURL, site string, now time.Time, wall bool) (*Stage, error) {
	k := stageKey{site, scriptURL}
	if e := l.entry(k); e != nil && now.Before(e.expires) {
		return e.served()
	}
	st, _, _, err := l.loads.Do(site+"\x00"+scriptURL, func() (*Stage, error) {
		return l.refresh(k, now, wall)
	})
	return st, err
}

// entry returns the entry kept under k, or nil.
func (l *Loader) entry(k stageKey) *entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.stages[k]
}

// refresh fetches k's script and swaps what it answers into k's entry (the
// slow path behind load's freshness check and coalescing).
//
// A 200 carries the script, except that for a site stage (the site's
// nakika.js, or a stage a script schedules) a 200 whose Content-Type is an
// HTML page's (isPage) says, as a 404 does, that the site has no script
// there: an origin that answers every path with a page answers this one too.
// A wall's page is compiled like any other reply, and fails closed, since a
// missing wall would fail open. Any other Content-Type, or none, is compiled.
func (l *Loader) refresh(k stageKey, now time.Time, wall bool) (*Stage, error) {
	// Re-check: a previous flight may have refreshed the entry between this
	// caller's check and its flight winning the slot.
	cur := l.entry(k)
	if cur != nil && now.Before(cur.expires) {
		return cur.served()
	}
	req, err := httpmsg.NewRequest("GET", k.url)
	if err != nil {
		return l.fail(k, cur, now, fmt.Errorf("pipeline: stage url %q: %w", k.url, err))
	}
	resp, err := l.Host.Fetch(req)
	if err == nil && resp.Status >= 500 {
		err = fmt.Errorf("pipeline: stage %s: origin answered %d", k.url, resp.Status)
	}
	if err != nil {
		return l.fail(k, cur, now, err)
	}
	next := entry{expires: forever}
	switch {
	case resp.Stale:
		next.expires = now.Add(failBackoff)
	case l.Expiry != nil:
		next.expires = l.Expiry(req, resp.Header, now)
	}
	// Any other answer is one: a script, or no script, a stage with no
	// policies.
	script := resp.Status == 200 && (wall || !isPage(resp))
	source := ""
	if script {
		source = string(resp.Body)
	} else if !resp.Stale {
		next.missing = &cache.Stale{Header: resp.Header, Expires: next.expires}
	}
	st, compiled, err := l.swap(k, k.url, cur, next, source)
	switch {
	case err != nil:
		// A script that does not compile fails closed, whatever was served.
		return l.fail(k, nil, now, err)
	case resp.Stale:
		l.result("stale").Add(1)
	case !script:
		l.result("missing").Add(1)
	case compiled:
		l.result("compiled").Add(1)
	default:
		l.result("revalidated").Add(1)
	}
	return st, nil
}

// isPage reports whether resp's Content-Type, without its parameters and
// in any case, is an HTML page's: text/html or application/xhtml+xml.
func isPage(resp *httpmsg.Response) bool {
	ct := resp.ContentType()
	return strings.EqualFold(ct, "text/html") || strings.EqualFold(ct, "application/xhtml+xml")
}

// swap is the one rule by which an entry changes, for a deploy and a
// refetch alike: it puts next, serving cur's stage when (next.gen, source's
// digest) is what cur serves, so an unchanged script keeps its compiled
// stage and context pool; else it builds a stage, compiled before the swap,
// so a request never sees a half-built stage, and a compile that fails
// changes nothing. An empty source is a stage with no policies, built
// without a compile.
func (l *Loader) swap(k stageKey, url string, cur *entry, next entry, source string) (st *Stage, built bool, err error) {
	next.digest = sha256.Sum256([]byte(source))
	switch {
	case cur != nil && cur.stage != nil && cur.gen == next.gen && cur.digest == next.digest:
		st = cur.stage
	case source == "":
		st, built = &Stage{URL: url, Site: k.site}, true
	default:
		if st, err = l.Compile(url, k.site, source); err != nil {
			return nil, false, err
		}
		built = true
	}
	next.stage = st
	l.put(k, &next)
	return st, built, nil
}

// fail holds a load that got no usable answer (no reply, a 5xx, a script
// that does not compile) for failBackoff. A missing script's stage cur
// serves on while the stale rule allows it over its 404; otherwise the
// entry serves nothing, and the load fails closed.
func (l *Loader) fail(k stageKey, cur *entry, now time.Time, cause error) (*Stage, error) {
	if cur != nil && cur.missing != nil && cache.ServesStale(cur.missing.Header, cur.missing.Expires, now) {
		l.result("stale").Add(1)
		st, _, _ := l.swap(k, k.url, cur, entry{expires: now.Add(failBackoff), missing: cur.missing}, "")
		return st, nil
	}
	l.result("failed").Add(1)
	l.put(k, &entry{expires: now.Add(failBackoff)})
	return nil, fmt.Errorf("%w: %w", errUnavailable, cause)
}

// put stores k's entry, dropping an arbitrary fetched one when the map is
// full (a deployed stage is never dropped).
func (l *Loader) put(k stageKey, e *entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.stages[k]; !ok && len(l.stages) >= maxStages {
		for old := range l.stages {
			if old.url != "" {
				delete(l.stages, old)
				break
			}
		}
	}
	l.stages[k] = e
}

// Loads returns how many loads ended as result, one of LoadResults.
func (l *Loader) Loads(result string) int64 { return l.result(result).Load() }

// result is the counter of the loads that ended as result.
func (l *Loader) result(result string) *atomic.Int64 {
	return &l.results[slices.Index(LoadResults[:], result)]
}

// Deploy makes the stage compiled from source, at generation gen, the one
// that serves site's nakika.js, and reports whether it swapped one in. It
// swaps by the loader's one rule: a re-apply of the (gen, source) the site
// serves is free, and a compile failure leaves the previous generation
// serving. A deployed stage never expires. Callers serialize the Deploys of
// one site.
func (l *Loader) Deploy(site string, gen uint64, source string) (bool, error) {
	k := stageKey{site: site}
	_, swapped, err := l.swap(k, deploy.StageURL(site, gen), l.entry(k), entry{gen: gen, expires: forever}, source)
	return swapped, err
}

// Deployed returns site's deployed stage and its generation, or (nil, 0)
// when the site has none. The executor reads it once per request, which
// pins the generation the whole request runs on.
func (l *Loader) Deployed(site string) (*Stage, uint64) {
	if e := l.entry(stageKey{site: site}); e != nil {
		return e.stage, e.gen
	}
	return nil, 0
}

// Generations returns the generation of every site's deployed stage.
func (l *Loader) Generations() map[string]uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	gens := make(map[string]uint64)
	for k, e := range l.stages {
		if k.url == "" {
			gens[k.site] = e.gen
		}
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
