package policy

import (
	"fmt"
	"net/http"
	"testing"
	"testing/quick"

	"nakika/internal/script"
)

// linearSet is the reference matcher the decision tree is checked and
// benchmarked against: a linear scan over the registered policies. Ties
// are broken in favour of the policy registered last, matching the
// prototype's behaviour of later registrations refining earlier ones.
type linearSet struct {
	policies []*Policy
}

func (s *linearSet) Add(p *Policy) { s.policies = append(s.policies, p) }

func (s *linearSet) Match(in Input) *Policy {
	var best *Policy
	var bestScore Score
	for _, p := range s.policies {
		score, ok := p.Match(in)
		if !ok {
			continue
		}
		if best == nil || !score.Less(bestScore) {
			best = p
			bestScore = score
		}
	}
	return best
}

func input(host, path string) Input {
	return Input{Host: host, Path: path, Method: "GET", Header: make(http.Header)}
}

func handler() script.Value {
	return &script.Native{Name: "handler", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		return script.Undefined{}, nil
	}}
}

func TestMatchURLExactHost(t *testing.T) {
	p := &Policy{URLs: []string{"med.nyu.edu"}, OnResponse: handler()}
	if _, ok := p.Match(input("med.nyu.edu", "/index.html")); !ok {
		t.Error("exact host should match")
	}
	if _, ok := p.Match(input("law.nyu.edu", "/")); ok {
		t.Error("different host should not match")
	}
	if _, ok := p.Match(input("evilmed.nyu.edu.attacker.com", "/")); ok {
		t.Error("host with pattern as non-suffix substring should not match")
	}
}

func TestMatchURLSuffix(t *testing.T) {
	p := &Policy{URLs: []string{"nyu.edu"}}
	if _, ok := p.Match(input("med.nyu.edu", "/")); !ok {
		t.Error("subdomain should match a domain suffix pattern")
	}
	if _, ok := p.Match(input("nyu.edu", "/")); !ok {
		t.Error("exact domain should match")
	}
	if _, ok := p.Match(input("notnyu.edu", "/")); ok {
		t.Error("non-dot-boundary suffix must not match")
	}
}

func TestMatchURLPathPrefix(t *testing.T) {
	p := &Policy{URLs: []string{"bmj.bmjjournals.com/cgi/reprint"}}
	if _, ok := p.Match(input("bmj.bmjjournals.com", "/cgi/reprint/355/7611/1.pdf")); !ok {
		t.Error("path under prefix should match")
	}
	if _, ok := p.Match(input("bmj.bmjjournals.com", "/cgi/reprint")); !ok {
		t.Error("exact path should match")
	}
	if _, ok := p.Match(input("bmj.bmjjournals.com", "/cgi/reprintother")); ok {
		t.Error("non-segment-boundary prefix must not match")
	}
	if _, ok := p.Match(input("bmj.bmjjournals.com", "/cgi/search")); ok {
		t.Error("different path should not match")
	}
}

func TestMatchURLDisjunction(t *testing.T) {
	// Figure 5's policy: two digital library URL prefixes.
	p := &Policy{URLs: []string{"bmj.bmjjournals.com/cgi/reprint", "content.nejm.org/cgi/reprint"}}
	if _, ok := p.Match(input("content.nejm.org", "/cgi/reprint/1.pdf")); !ok {
		t.Error("second listed URL should match (disjunction)")
	}
	if _, ok := p.Match(input("content.nejm.org", "/cgi/content/full/1")); ok {
		t.Error("other paths on the same host should not match")
	}
}

func TestMatchURLSpecificity(t *testing.T) {
	broad := &Policy{URLs: []string{"nyu.edu"}}
	narrow := &Policy{URLs: []string{"med.nyu.edu/simm"}}
	in := input("med.nyu.edu", "/simm/module1.html")
	bs, _ := broad.Match(in)
	ns, _ := narrow.Match(in)
	if !bs.Less(ns) {
		t.Errorf("narrow pattern should be more specific: broad=%+v narrow=%+v", bs, ns)
	}
}

func TestMatchClientCIDR(t *testing.T) {
	p := &Policy{Clients: []string{"192.168.0.0/16"}}
	in := input("example.org", "/")
	in.ClientIP = "192.168.5.20"
	if _, ok := p.Match(in); !ok {
		t.Error("IP inside CIDR should match")
	}
	in.ClientIP = "10.0.0.1"
	if _, ok := p.Match(in); ok {
		t.Error("IP outside CIDR should not match")
	}
	in.ClientIP = "not-an-ip"
	if _, ok := p.Match(in); ok {
		t.Error("unparsable IP should not match")
	}
}

func TestMatchClientExactIPAndHostSuffix(t *testing.T) {
	exact := &Policy{Clients: []string{"10.1.2.3"}}
	in := input("example.org", "/")
	in.ClientIP = "10.1.2.3"
	if _, ok := exact.Match(in); !ok {
		t.Error("exact IP should match")
	}
	suffix := &Policy{Clients: []string{"nyu.edu", "pitt.edu"}}
	in.ClientHost = "dialup-12.med.nyu.edu"
	if _, ok := suffix.Match(in); !ok {
		t.Error("client hostname suffix should match")
	}
	in.ClientHost = "students.pitt.edu"
	if _, ok := suffix.Match(in); !ok {
		t.Error("second client suffix should match (disjunction)")
	}
	in.ClientHost = "example.com"
	if _, ok := suffix.Match(in); ok {
		t.Error("unrelated client host should not match")
	}
	in.ClientHost = ""
	if _, ok := suffix.Match(in); ok {
		t.Error("empty client host cannot satisfy a hostname predicate")
	}
}

func TestMatchClientSpecificity(t *testing.T) {
	wide := &Policy{Clients: []string{"10.0.0.0/8"}}
	tight := &Policy{Clients: []string{"10.1.0.0/16"}}
	in := input("example.org", "/")
	in.ClientIP = "10.1.2.3"
	ws, _ := wide.Match(in)
	ts, _ := tight.Match(in)
	if !ws.Less(ts) {
		t.Errorf("longer prefix should score higher: wide=%+v tight=%+v", ws, ts)
	}
}

func TestMatchMethod(t *testing.T) {
	p := &Policy{Methods: []string{"POST", "PUT"}}
	in := input("example.org", "/submit")
	in.Method = "POST"
	if _, ok := p.Match(in); !ok {
		t.Error("POST should match")
	}
	in.Method = "get"
	if _, ok := p.Match(in); ok {
		t.Error("GET should not match a POST/PUT policy")
	}
	in.Method = "put"
	if _, ok := p.Match(in); !ok {
		t.Error("method matching should be case-insensitive")
	}
}

func TestMatchHeaders(t *testing.T) {
	p := &Policy{Headers: map[string][]string{"User-Agent": {"(?i)nokia", "(?i)sonyericsson"}}}
	in := input("example.org", "/pic.jpg")
	in.Header.Set("User-Agent", "Mozilla/4.0 (Nokia6600)")
	if _, ok := p.Match(in); !ok {
		t.Error("User-Agent regexp should match")
	}
	in.Header.Set("User-Agent", "Mozilla/5.0 (Windows)")
	if _, ok := p.Match(in); ok {
		t.Error("non-matching User-Agent should fail")
	}
	in.Header.Del("User-Agent")
	if _, ok := p.Match(in); ok {
		t.Error("missing header should fail the predicate")
	}
}

func TestMatchConjunctionAcrossProperties(t *testing.T) {
	// Figure 3: URLs AND clients must both match.
	p := &Policy{
		URLs:    []string{"med.nyu.edu", "medschool.pitt.edu"},
		Clients: []string{"nyu.edu", "pitt.edu"},
	}
	in := input("med.nyu.edu", "/lecture1.html")
	in.ClientHost = "lab.nyu.edu"
	if _, ok := p.Match(in); !ok {
		t.Error("both properties match: policy should apply")
	}
	in.ClientHost = "somewhere-else.com"
	if _, ok := p.Match(in); ok {
		t.Error("client mismatch should fail the conjunction")
	}
	in2 := input("www.cornell.edu", "/")
	in2.ClientHost = "lab.nyu.edu"
	if _, ok := p.Match(in2); ok {
		t.Error("URL mismatch should fail the conjunction")
	}
}

func TestNullPropertiesAreTruth(t *testing.T) {
	p := &Policy{} // no predicates at all
	if _, ok := p.Match(input("anything.example", "/any/path")); !ok {
		t.Error("a policy with no predicates matches everything")
	}
}

func TestInvalidHeaderRegexp(t *testing.T) {
	p := &Policy{Headers: map[string][]string{"X-Thing": {"([unclosed"}}}
	if err := p.Compile(); err == nil {
		t.Error("expected compile error for invalid regexp")
	}
	in := input("example.org", "/")
	in.Header.Set("X-Thing", "value")
	if _, ok := p.Match(in); ok {
		t.Error("policy with invalid regexp should never match")
	}
}

func TestSetClosestMatchPrecedence(t *testing.T) {
	// URL specificity outranks client specificity (paper precedence order).
	urlSpecific := &Policy{URLs: []string{"med.nyu.edu/simm/module1"}, Source: "url-specific"}
	clientSpecific := &Policy{URLs: []string{"nyu.edu"}, Clients: []string{"10.0.0.0/8"}, Source: "client-specific"}
	s := &linearSet{}
	s.Add(clientSpecific)
	s.Add(urlSpecific)
	in := input("med.nyu.edu", "/simm/module1/page.html")
	in.ClientIP = "10.1.2.3"
	got := s.Match(in)
	if got != urlSpecific {
		t.Errorf("closest match = %q, want url-specific", got.Source)
	}
}

func TestSetNoMatch(t *testing.T) {
	s := &linearSet{}
	s.Add(&Policy{URLs: []string{"example.org"}})
	if got := s.Match(input("other.org", "/")); got != nil {
		t.Errorf("expected nil match, got %+v", got)
	}
}

func TestSetTieBreaksTowardLaterRegistration(t *testing.T) {
	a := &Policy{URLs: []string{"example.org"}, Source: "first"}
	b := &Policy{URLs: []string{"example.org"}, Source: "second"}
	s := &linearSet{}
	s.Add(a)
	s.Add(b)
	if got := s.Match(input("example.org", "/")); got.Source != "second" {
		t.Errorf("tie should go to the later registration, got %q", got.Source)
	}
}

func TestTreeMatchesLinear(t *testing.T) {
	policies := []*Policy{
		{URLs: []string{"med.nyu.edu"}, Source: "site"},
		{URLs: []string{"med.nyu.edu/simm"}, Source: "simm"},
		{URLs: []string{"nyu.edu"}, Source: "university"},
		{URLs: []string{"bmj.bmjjournals.com/cgi/reprint", "content.nejm.org/cgi/reprint"}, Source: "libraries"},
		{Clients: []string{"192.168.0.0/16"}, Source: "intranet"},
		{Source: "catch-all"},
		{URLs: []string{"example.org"}, Methods: []string{"POST"}, Source: "posts"},
		{URLs: []string{"example.org"}, Headers: map[string][]string{"User-Agent": {"(?i)nokia"}}, Source: "mobile"},
	}
	set := &linearSet{}
	for _, p := range policies {
		set.Add(p)
	}
	tree := NewTree(policies)

	inputs := []Input{
		input("med.nyu.edu", "/simm/module2.html"),
		input("med.nyu.edu", "/about.html"),
		input("law.nyu.edu", "/"),
		input("content.nejm.org", "/cgi/reprint/1.pdf"),
		input("content.nejm.org", "/cgi/other"),
		input("unrelated.com", "/x"),
		func() Input { in := input("example.org", "/form"); in.Method = "POST"; return in }(),
		func() Input {
			in := input("example.org", "/img.png")
			in.Header.Set("User-Agent", "Nokia 6600")
			return in
		}(),
		func() Input { in := input("somewhere.net", "/"); in.ClientIP = "192.168.2.2"; return in }(),
	}
	for i, in := range inputs {
		a, b := set.Match(in), tree.Match(in)
		an, bn := "<nil>", "<nil>"
		if a != nil {
			an = a.Source
		}
		if b != nil {
			bn = b.Source
		}
		if an != bn {
			t.Errorf("input %d (%s %s): linear=%q tree=%q", i, in.Host, in.Path, an, bn)
		}
	}
	if tree.Len() != len(policies) {
		t.Errorf("tree.Len() = %d", tree.Len())
	}
}

func TestTreeDeepPathSelection(t *testing.T) {
	shallow := &Policy{URLs: []string{"site.org/a"}, Source: "shallow"}
	deep := &Policy{URLs: []string{"site.org/a/b/c"}, Source: "deep"}
	tree := NewTree([]*Policy{shallow, deep})
	if got := tree.Match(input("site.org", "/a/b/c/d.html")); got.Source != "deep" {
		t.Errorf("got %q, want deep", got.Source)
	}
	if got := tree.Match(input("site.org", "/a/x")); got.Source != "shallow" {
		t.Errorf("got %q, want shallow", got.Source)
	}
	if got := tree.Match(input("site.org", "/z")); got != nil {
		t.Errorf("got %q, want nil", got.Source)
	}
}

func TestFromScriptObject(t *testing.T) {
	ctx := script.NewContext(script.Limits{})
	v, err := ctx.RunSource(`
		var p = {
			url: [ "med.nyu.edu", "medschool.pitt.edu" ],
			client: [ "nyu.edu", "pitt.edu" ],
			method: "GET",
			headers: { "User-Agent": ["(?i)nokia"] },
			nextStages: [ "http://services.example/annotate.js" ],
			onResponse: function() { return 1; }
		};
		p
	`, "policy.js")
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromScriptObject(v.(*script.Object), "http://med.nyu.edu/nakika.js")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.URLs) != 2 || p.URLs[1] != "medschool.pitt.edu" {
		t.Errorf("URLs = %v", p.URLs)
	}
	if len(p.Clients) != 2 {
		t.Errorf("Clients = %v", p.Clients)
	}
	if len(p.Methods) != 1 || p.Methods[0] != "GET" {
		t.Errorf("Methods = %v", p.Methods)
	}
	if len(p.Headers["User-Agent"]) != 1 {
		t.Errorf("Headers = %v", p.Headers)
	}
	if len(p.NextStages) != 1 {
		t.Errorf("NextStages = %v", p.NextStages)
	}
	if p.OnResponse == nil {
		t.Error("OnResponse should be set")
	}
	if p.OnRequest != nil {
		t.Error("OnRequest should be nil")
	}
	if !p.HasHandlers() {
		t.Error("HasHandlers should be true")
	}
	if p.Source != "http://med.nyu.edu/nakika.js" {
		t.Errorf("Source = %q", p.Source)
	}
}

func TestFromScriptObjectInvalidRegexp(t *testing.T) {
	ctx := script.NewContext(script.Limits{})
	v, err := ctx.RunSource(`({ headers: { "X-Bad": "([" } })`, "p.js")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromScriptObject(v.(*script.Object), "src"); err == nil {
		t.Error("expected error for invalid header regexp")
	}
}

func TestScoreOrdering(t *testing.T) {
	cases := []struct {
		a, b  Score
		aLess bool
	}{
		{Score{URL: 1}, Score{URL: 2}, true},
		{Score{URL: 2, Client: 0}, Score{URL: 1, Client: 32}, false}, // URL outranks client
		{Score{URL: 1, Client: 8}, Score{URL: 1, Client: 16}, true},
		{Score{URL: 1, Client: 8, Method: 0}, Score{URL: 1, Client: 8, Method: 1}, true},
		{Score{URL: 1, Client: 8, Method: 1, Header: 0}, Score{URL: 1, Client: 8, Method: 1, Header: 2}, true},
	}
	for i, c := range cases {
		if got := c.a.Less(c.b); got != c.aLess {
			t.Errorf("case %d: Less = %v, want %v", i, got, c.aLess)
		}
	}
}

// Property: the decision tree and the linear matcher always return a policy
// with the same source for randomly generated host/path inputs over a fixed
// policy set.
func TestPropertyTreeEquivalentToLinear(t *testing.T) {
	policies := []*Policy{
		{URLs: []string{"a.example.org"}, Source: "a"},
		{URLs: []string{"b.example.org/docs"}, Source: "b-docs"},
		{URLs: []string{"example.org"}, Source: "root"},
		{URLs: []string{"c.example.org", "d.example.org"}, Source: "cd"},
		{Source: "wildcard"},
	}
	set := &linearSet{}
	for _, p := range policies {
		set.Add(p)
	}
	tree := NewTree(policies)
	hosts := []string{"a.example.org", "b.example.org", "c.example.org", "x.example.org", "example.org", "other.net", "deep.a.example.org"}
	paths := []string{"/", "/docs", "/docs/page.html", "/other", "/docs/sub/dir/file", ""}

	f := func(hostIdx, pathIdx uint8) bool {
		in := input(hosts[int(hostIdx)%len(hosts)], paths[int(pathIdx)%len(paths)])
		a, b := set.Match(in), tree.Match(in)
		if a == nil || b == nil {
			return a == b
		}
		return a.Source == b.Source
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: adding unrelated policies never changes the outcome for a
// request that matched a specific policy before.
func TestPropertyMatchStableUnderUnrelatedAdditions(t *testing.T) {
	base := &Policy{URLs: []string{"stable.example.org/app"}, Source: "stable"}
	f := func(n uint8) bool {
		tree := NewTree([]*Policy{base})
		for i := 0; i < int(n%20); i++ {
			tree.Add(&Policy{URLs: []string{fmt.Sprintf("site%d.other.net", i)}, Source: fmt.Sprintf("other%d", i)})
		}
		got := tree.Match(input("stable.example.org", "/app/index.html"))
		return got != nil && got.Source == "stable"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Decision tree vs. linear scan over 100 policies.
func buildAblationPolicies(n int) []*Policy {
	out := make([]*Policy, 0, n+1)
	for i := 0; i < n; i++ {
		out = append(out, &Policy{URLs: []string{fmt.Sprintf("site-%d.example.net/path", i)}})
	}
	out = append(out, &Policy{URLs: []string{"target.example.org/app"}})
	return out
}

var ablationInput = Input{Host: "target.example.org", Path: "/app/page.html", Method: "GET", Header: http.Header{}}

func BenchmarkPolicyMatch_Tree(b *testing.B) {
	tree := NewTree(buildAblationPolicies(100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree.Match(ablationInput) == nil {
			b.Fatal("no match")
		}
	}
}

func BenchmarkPolicyMatch_Linear(b *testing.B) {
	set := &linearSet{}
	for _, p := range buildAblationPolicies(100) {
		set.Add(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set.Match(ablationInput) == nil {
			b.Fatal("no match")
		}
	}
}
