// Package policy implements Na Kika's predicate-based event handler
// selection (Section 3.1 of the paper).
//
// Services and security policies alike are expressed as policy objects: a
// set of predicates over HTTP request fields (resource URL prefixes, client
// addresses, HTTP methods, arbitrary header regular expressions) paired with
// onRequest and onResponse event handlers and an optional list of
// dynamically scheduled next stages. Within a property, listed values form a
// disjunction; across properties, a conjunction; a null property is treated
// as truth. When several policies match, the closest valid match wins, with
// precedence given to resource URLs, then client addresses, then HTTP
// methods, and finally arbitrary headers.
//
// Two matchers are provided: Set, a straightforward linear scan used as the
// ablation baseline, and Tree, the decision-tree matcher described in
// Section 4 that trades space for dynamic predicate evaluation performance.
package policy

import (
	"fmt"
	"net"
	"net/http"
	"regexp"
	"strings"

	"nakika/internal/script"
)

// Policy associates request predicates with event handlers.
type Policy struct {
	// URLs is a list of resource URL prefixes of the form
	// "host[/path/prefix]"; the host part matches exactly or as a
	// dot-boundary suffix ("nyu.edu" matches "med.nyu.edu").
	URLs []string
	// Clients is a list of client predicates: an exact IP, a CIDR block, or
	// a dot-boundary domain suffix matched against the client's hostname.
	Clients []string
	// Methods is a list of HTTP methods.
	Methods []string
	// Headers maps header names to regular expression patterns; every listed
	// header must match at least one of its patterns.
	Headers map[string][]string
	// OnRequest and OnResponse are the paired event handlers; either may be
	// nil (treated as a no-op).
	OnRequest  script.Value
	OnResponse script.Value
	// NextStages lists script URLs to schedule directly after the current
	// stage.
	NextStages []string
	// Source records the script URL that registered this policy; used in
	// diagnostics and logs.
	Source string

	compiledHeaders map[string][]*regexp.Regexp
	compileErr      error
}

// Compile pre-compiles the header regular expressions; Match calls it lazily
// but callers that want eager validation (for example the script loader) can
// invoke it directly.
func (p *Policy) Compile() error {
	if p.compiledHeaders != nil || p.compileErr != nil {
		return p.compileErr
	}
	compiled := make(map[string][]*regexp.Regexp, len(p.Headers))
	for name, patterns := range p.Headers {
		for _, pat := range patterns {
			re, err := regexp.Compile(pat)
			if err != nil {
				p.compileErr = fmt.Errorf("policy: header %q pattern %q: %w", name, pat, err)
				return p.compileErr
			}
			key := http.CanonicalHeaderKey(name)
			compiled[key] = append(compiled[key], re)
		}
	}
	p.compiledHeaders = compiled
	return nil
}

// HasHandlers reports whether the policy defines at least one event handler
// or schedules further stages; policies without any of these are inert.
func (p *Policy) HasHandlers() bool {
	return p.OnRequest != nil || p.OnResponse != nil || len(p.NextStages) > 0
}

// Input is the request information predicates are evaluated against.
type Input struct {
	// Host is the resource URL host (without port), lower case.
	Host string
	// Port is the resource URL port ("" when default).
	Port string
	// Path is the resource URL path ("/" when empty).
	Path string
	// ClientIP is the client's IP address.
	ClientIP string
	// ClientHost is the client's hostname when known (reverse lookup or
	// configuration); may be empty.
	ClientHost string
	// Method is the HTTP method.
	Method string
	// Header holds the request headers.
	Header http.Header
}

// Score is the match specificity, ordered lexicographically by the paper's
// precedence: resource URL, client address, HTTP method, arbitrary headers.
// Higher is more specific. A nil match has no score.
type Score struct {
	URL    int
	Client int
	Method int
	Header int
}

// Less reports whether s is strictly less specific than other.
func (s Score) Less(other Score) bool {
	if s.URL != other.URL {
		return s.URL < other.URL
	}
	if s.Client != other.Client {
		return s.Client < other.Client
	}
	if s.Method != other.Method {
		return s.Method < other.Method
	}
	return s.Header < other.Header
}

// Match evaluates the policy's predicates against in. It returns whether all
// non-null properties matched and, if so, the specificity score.
func (p *Policy) Match(in Input) (Score, bool) {
	var score Score

	if len(p.URLs) > 0 {
		best := -1
		for _, pattern := range p.URLs {
			if s, ok := matchURLPattern(pattern, in.Host, in.Path); ok && s > best {
				best = s
			}
		}
		if best < 0 {
			return Score{}, false
		}
		score.URL = best
	}

	if len(p.Clients) > 0 {
		best := -1
		for _, pattern := range p.Clients {
			if s, ok := matchClientPattern(pattern, in.ClientIP, in.ClientHost); ok && s > best {
				best = s
			}
		}
		if best < 0 {
			return Score{}, false
		}
		score.Client = best
	}

	if len(p.Methods) > 0 {
		matched := false
		for _, m := range p.Methods {
			if strings.EqualFold(m, in.Method) {
				matched = true
				break
			}
		}
		if !matched {
			return Score{}, false
		}
		score.Method = 1
	}

	if len(p.Headers) > 0 {
		if err := p.Compile(); err != nil {
			return Score{}, false
		}
		for name, patterns := range p.compiledHeaders {
			values := in.Header.Values(name)
			if len(values) == 0 {
				return Score{}, false
			}
			matched := false
			for _, re := range patterns {
				for _, v := range values {
					if re.MatchString(v) {
						matched = true
						break
					}
				}
				if matched {
					break
				}
			}
			if !matched {
				return Score{}, false
			}
			score.Header++
		}
	}

	return score, true
}

// matchURLPattern matches a "host[/path/prefix]" pattern against a request
// host and path. The returned score is the number of host labels plus path
// segments covered by the pattern, so deeper (more specific) patterns win.
func matchURLPattern(pattern, host, path string) (int, bool) {
	pattern = strings.TrimSpace(strings.ToLower(pattern))
	pattern = strings.TrimPrefix(pattern, "http://")
	pattern = strings.TrimPrefix(pattern, "https://")
	if pattern == "" {
		return 0, false
	}
	patHost, patPath := pattern, ""
	if i := strings.Index(pattern, "/"); i >= 0 {
		patHost, patPath = pattern[:i], pattern[i:]
	}
	// Strip a port from the pattern host if present.
	if i := strings.Index(patHost, ":"); i >= 0 {
		patHost = patHost[:i]
	}
	host = strings.ToLower(host)
	hostLabels := 0
	switch {
	case patHost == "" || patHost == "*":
		hostLabels = 0
	case host == patHost:
		hostLabels = strings.Count(patHost, ".") + 1
	case strings.HasSuffix(host, "."+patHost):
		hostLabels = strings.Count(patHost, ".") + 1
	default:
		return 0, false
	}
	pathSegments := 0
	if patPath != "" && patPath != "/" {
		if !pathPrefixMatch(path, patPath) {
			return 0, false
		}
		pathSegments = len(splitSegments(patPath))
	}
	return hostLabels + pathSegments, true
}

// pathPrefixMatch reports whether prefix matches path on a segment boundary.
func pathPrefixMatch(path, prefix string) bool {
	if path == "" {
		path = "/"
	}
	prefix = strings.TrimSuffix(prefix, "/")
	if prefix == "" {
		return true
	}
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	rest := path[len(prefix):]
	return rest == "" || strings.HasPrefix(rest, "/") || strings.HasPrefix(rest, "?")
}

func splitSegments(p string) []string {
	var out []string
	for _, s := range strings.Split(p, "/") {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

// matchClientPattern matches a client predicate. CIDR patterns score by
// prefix length, exact IPs score 32 (or 128 for IPv6), and domain suffixes
// score by label count. This follows the paper's support for CIDR notation
// for IP addresses and hostname suffixes for organizations.
func matchClientPattern(pattern, clientIP, clientHost string) (int, bool) {
	pattern = strings.TrimSpace(strings.ToLower(pattern))
	if pattern == "" {
		return 0, false
	}
	if strings.Contains(pattern, "/") {
		_, ipnet, err := net.ParseCIDR(pattern)
		if err != nil {
			return 0, false
		}
		ip := net.ParseIP(clientIP)
		if ip == nil || !ipnet.Contains(ip) {
			return 0, false
		}
		ones, _ := ipnet.Mask.Size()
		return ones, true
	}
	if ip := net.ParseIP(pattern); ip != nil {
		client := net.ParseIP(clientIP)
		if client == nil || !client.Equal(ip) {
			return 0, false
		}
		if ip.To4() != nil {
			return 32, true
		}
		return 128, true
	}
	// Domain suffix against the client hostname.
	host := strings.ToLower(clientHost)
	if host == "" {
		return 0, false
	}
	if host == pattern || strings.HasSuffix(host, "."+pattern) {
		return strings.Count(pattern, ".") + 1, true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Conversion from script policy objects
// ---------------------------------------------------------------------------

// FromScriptObject converts a script-level policy object (created by
// new Policy() and populated with url/client/method/headers/onRequest/
// onResponse/nextStages properties) into a Policy. The source is recorded
// for diagnostics.
func FromScriptObject(obj *script.Object, source string) (*Policy, error) {
	p := &Policy{Source: source}
	p.URLs = stringList(obj, "url")
	p.Clients = stringList(obj, "client")
	p.Methods = stringList(obj, "method")
	if v, ok := obj.Get("headers"); ok {
		if ho, ok := v.(*script.Object); ok {
			p.Headers = make(map[string][]string)
			for _, name := range ho.Keys() {
				hv, _ := ho.Get(name)
				switch t := hv.(type) {
				case *script.Array:
					for _, e := range t.Elems {
						p.Headers[name] = append(p.Headers[name], script.ToString(e))
					}
				default:
					if !script.IsNullish(hv) {
						p.Headers[name] = append(p.Headers[name], script.ToString(hv))
					}
				}
			}
		}
	}
	if v, ok := obj.Get("onRequest"); ok && script.Callable(v) {
		p.OnRequest = v
	}
	if v, ok := obj.Get("onResponse"); ok && script.Callable(v) {
		p.OnResponse = v
	}
	for _, s := range stringList(obj, "nextStages") {
		if s != "" {
			p.NextStages = append(p.NextStages, s)
		}
	}
	if err := p.Compile(); err != nil {
		return nil, err
	}
	return p, nil
}

// stringList extracts a property that may be a single string or an array of
// strings.
func stringList(obj *script.Object, name string) []string {
	v, ok := obj.Get(name)
	if !ok || script.IsNullish(v) {
		return nil
	}
	switch t := v.(type) {
	case *script.Array:
		out := make([]string, 0, len(t.Elems))
		for _, e := range t.Elems {
			if !script.IsNullish(e) {
				out = append(out, script.ToString(e))
			}
		}
		return out
	default:
		return []string{script.ToString(v)}
	}
}
