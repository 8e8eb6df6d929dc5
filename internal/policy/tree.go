package policy

import "strings"

// Tree is the decision-tree matcher from Section 4 of the paper. While
// loading a script and registering policy objects, the matcher builds a
// decision tree for that pipeline stage, with nodes representing choices.
// Starting from the root, nodes represent the components of the resource
// URL's server name (from the registrable suffix inward), then the path
// components. Policies whose URL property is empty are attached to the root.
// Dynamic predicate evaluation is a walk down the tree following the request
// host and path, collecting candidate policies from every node along the
// way (deeper nodes are more specific), then resolving the closest valid
// match among the candidates using the full predicate evaluation (client,
// method, headers).
//
// The tree trades space for evaluation time: a request whose host shares no
// suffix with any registered policy terminates at the root after inspecting
// a handful of map entries, regardless of how many policies are registered,
// whereas the linear Set matcher evaluates every policy. The Pred-n
// micro-benchmark (Table 2) exercises exactly this difference.
type Tree struct {
	root *treeNode
	// all retains every policy (used by Policies and for stats).
	all []*Policy
}

type treeNode struct {
	// children maps the next host label (walking the host right to left) or
	// path segment (walking left to right) to the child node.
	hostChildren map[string]*treeNode
	pathChildren map[string]*treeNode
	// policies attached at this node: their URL patterns end here.
	policies []*Policy
}

func newTreeNode() *treeNode {
	return &treeNode{
		hostChildren: make(map[string]*treeNode),
		pathChildren: make(map[string]*treeNode),
	}
}

// NewTree builds a decision tree over the given policies.
func NewTree(policies []*Policy) *Tree {
	t := &Tree{root: newTreeNode()}
	for _, p := range policies {
		t.Add(p)
	}
	return t
}

// Add inserts a policy into the tree. A policy with n URL patterns is added
// along n paths, as described in the paper ("if a property contains multiple
// values, nodes are added along multiple paths").
func (t *Tree) Add(p *Policy) {
	t.all = append(t.all, p)
	if len(p.URLs) == 0 {
		t.root.policies = append(t.root.policies, p)
		return
	}
	for _, pattern := range p.URLs {
		host, path, _ := splitURLPattern(pattern)
		node := t.root
		// Host labels are inserted from the rightmost label inward so that
		// suffix patterns ("nyu.edu") sit on the prefix of more specific
		// patterns ("med.nyu.edu").
		host = strings.TrimSuffix(host, ".")
		for end := len(host); end >= 0 && host != ""; {
			var label string
			label, end = lastLabel(host, end)
			child, ok := node.hostChildren[label]
			if !ok {
				child = newTreeNode()
				node.hostChildren[label] = child
			}
			node = child
		}
		for seg, rest := nextSegment(path); seg != ""; seg, rest = nextSegment(rest) {
			child, ok := node.pathChildren[seg]
			if !ok {
				child = newTreeNode()
				node.pathChildren[seg] = child
			}
			node = child
		}
		node.policies = append(node.policies, p)
	}
}

// Len returns the number of policies in the tree.
func (t *Tree) Len() int { return len(t.all) }

// Policies returns all registered policies in registration order.
func (t *Tree) Policies() []*Policy { return t.all }

// Match walks the tree for the request's host and path, gathers candidate
// policies, and returns the closest valid match (or nil). It allocates
// nothing unless more than maxInlineCandidates policies are candidates.
func (t *Tree) Match(in Input) *Policy {
	var buf [maxInlineCandidates]*Policy
	var best *Policy
	var bestScore Score
	for _, p := range t.candidates(buf[:0], in.Host, in.Path) {
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

// maxInlineCandidates is how many candidates Match gathers without
// allocating.
const maxInlineCandidates = 16

// candidates appends to out the policies attached to every node along the
// host/path walk, which reads the host's labels and the path's segments in
// place. Policies at deeper nodes have more specific URL patterns, but the
// final specificity comparison is delegated to Policy.Match so the tree and
// linear matchers agree exactly.
func (t *Tree) candidates(out []*Policy, host, path string) []*Policy {
	out = append(out, t.root.policies...)
	node := t.root
	// Walk host labels right to left; stop at the first missing edge.
	host = strings.TrimSuffix(strings.ToLower(host), ".")
	for end := len(host); end >= 0 && host != ""; {
		var label string
		label, end = lastLabel(host, end)
		child, ok := node.hostChildren[label]
		if !ok {
			break
		}
		node = child
		out = append(out, node.policies...)
	}
	// Path segments only matter below the host node we stopped at.
	for seg, rest := nextSegment(path); seg != ""; seg, rest = nextSegment(rest) {
		child, ok := node.pathChildren[seg]
		if !ok {
			break
		}
		node = child
		out = append(out, node.policies...)
	}
	return out
}

// splitURLPattern splits a url pattern, "[scheme://]host[:port][/path]",
// into its host, lower-cased and without the port, and its path as it is
// written: host names and schemes are case-insensitive, URL paths are not.
// ok is false for a pattern with nothing after the scheme, which matches
// nothing.
func splitURLPattern(pattern string) (host, path string, ok bool) {
	pattern = strings.TrimSpace(pattern)
	for _, scheme := range [...]string{"http://", "https://"} {
		if len(pattern) >= len(scheme) && strings.EqualFold(pattern[:len(scheme)], scheme) {
			pattern = pattern[len(scheme):]
			break
		}
	}
	host, path = pattern, ""
	if i := strings.IndexByte(pattern, '/'); i >= 0 {
		host, path = pattern[:i], pattern[i:]
	}
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return strings.ToLower(host), path, pattern != ""
}

// lastLabel returns the rightmost dot-separated label of host[:end], and
// the end of the labels left of it: -1 once the leftmost is returned. From
// end = len(host) on, it yields host's labels right to left, as
// strings.Split would give them (two dots in a row hold an empty label).
func lastLabel(host string, end int) (label string, next int) {
	i := strings.LastIndexByte(host[:end], '.')
	return host[i+1 : end], i
}
