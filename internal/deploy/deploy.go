// Package deploy defines the replicated record format of the live script
// deployment plane: a per-site State holding the retained script versions
// and the generation currently active, stored as one versioned hard-state
// record under the internal key namespace. Keeping the whole deployment
// history of a site in a single record makes concurrent deploys an
// ordinary last-writer-wins race — the replication layer converges every
// node onto one State, and applying a State is a pure function of its
// content, so convergent records mean convergent pipelines.
package deploy

import (
	"fmt"
	"sort"

	"nakika/internal/wire"
)

const (
	// StateKey is the hard-state key a site's deployment record lives
	// under. It is in the reserved internal namespace ("\x00nk:", see
	// state.IsInternalKey): the record replicates, repairs, and hands off
	// like ordinary site data, but site scripts can neither read nor
	// overwrite their own deployment history.
	StateKey = "\x00nk:deploy"

	// IndexSite is the reserved site name whose StateKey record holds the
	// list of sites with deployments — the catalogue a node syncs from.
	// No site can reach it: core.Node.Deploy refuses a site with a ':', so
	// no site is deployed under this name, and StateKey is in the internal
	// namespace, which no script can read or write. (A request can still
	// name it: http://[nk:deploys]/x has the host name "nk:deploys".)
	IndexSite = "nk:deploys"

	// Retention bounds how many script versions a site's record keeps.
	// Rolling back reaches only retained generations; older ones are
	// trimmed on each deploy and rejected on rollback.
	Retention = 8
)

// Bundle is one retained script version for a site.
type Bundle struct {
	// Gen is the bundle's generation: assigned at publish time as one past
	// the highest generation the record had seen.
	Gen uint64
	// Script is the full service-script source.
	Script string
	// Note is the operator's free-form deploy annotation.
	Note string
}

// State is a site's complete deployment record: every retained bundle plus
// which generation the site's pipeline should serve. Active == 0 means no
// deployment (the site falls back to its origin-served nakika.js).
type State struct {
	Active  uint64
	Bundles []Bundle
}

// Find returns the retained bundle with the given generation.
func (st *State) Find(gen uint64) (Bundle, bool) {
	for _, b := range st.Bundles {
		if b.Gen == gen {
			return b, true
		}
	}
	return Bundle{}, false
}

// NextGen returns the generation the next published bundle gets: one past
// the highest ever retained (generations never regress, even after old
// bundles are trimmed, because the active generation is always retained).
func (st *State) NextGen() uint64 {
	next := st.Active + 1
	for _, b := range st.Bundles {
		if b.Gen >= next {
			next = b.Gen + 1
		}
	}
	if next == 0 {
		next = 1
	}
	return next
}

// Add retains b (keeping Bundles sorted by generation) and trims the record
// to the Retention newest generations. The active generation is never
// trimmed — a site that rolled back and then deployed several times keeps
// the version it is serving.
func (st *State) Add(b Bundle) {
	st.Bundles = append(st.Bundles, b)
	sort.Slice(st.Bundles, func(i, j int) bool { return st.Bundles[i].Gen < st.Bundles[j].Gen })
	for len(st.Bundles) > Retention {
		if st.Bundles[0].Gen == st.Active {
			// Trim the next-oldest instead of the serving version.
			st.Bundles = append(st.Bundles[:1], st.Bundles[2:]...)
			continue
		}
		st.Bundles = st.Bundles[1:]
	}
}

// Encode serializes st into the binary record value (magic byte first).
func Encode(st State) string {
	buf := make([]byte, 0, 64)
	buf = append(buf, wire.Magic)
	buf = wire.AppendUvarint(buf, st.Active)
	buf = wire.AppendUvarint(buf, uint64(len(st.Bundles)))
	for _, b := range st.Bundles {
		buf = wire.AppendUvarint(buf, b.Gen)
		buf = wire.AppendString(buf, b.Script)
		buf = wire.AppendString(buf, b.Note)
	}
	return string(buf)
}

// Decode parses a record value produced by Encode. It never panics on
// malformed input (arbitrary bytes can arrive over the wire or out of a
// corrupted store); errors mean the value is not a deployment record.
func Decode(s string) (State, error) {
	r, err := wire.Payload([]byte(s))
	if err != nil {
		return State{}, err
	}
	var st State
	if st.Active, err = r.Uvarint(); err != nil {
		return State{}, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return State{}, err
	}
	// Each bundle costs at least 3 bytes encoded, so a count the payload
	// cannot hold is malformed — and never drives a huge allocation.
	if n > uint64(r.Len()) {
		return State{}, wire.ErrMalformed
	}
	for i := uint64(0); i < n; i++ {
		var b Bundle
		if b.Gen, err = r.Uvarint(); err != nil {
			return State{}, err
		}
		if b.Script, err = r.String(); err != nil {
			return State{}, err
		}
		if b.Note, err = r.String(); err != nil {
			return State{}, err
		}
		st.Bundles = append(st.Bundles, b)
	}
	if r.Len() != 0 {
		return State{}, wire.ErrMalformed
	}
	return st, nil
}

// EncodeSites serializes the deployment index: the sorted site list under
// IndexSite's record.
func EncodeSites(sites []string) string {
	sorted := append([]string(nil), sites...)
	sort.Strings(sorted)
	buf := make([]byte, 0, 32)
	buf = append(buf, wire.Magic)
	buf = wire.AppendUvarint(buf, uint64(len(sorted)))
	for _, s := range sorted {
		buf = wire.AppendString(buf, s)
	}
	return string(buf)
}

// DecodeSites parses an index record value produced by EncodeSites.
func DecodeSites(s string) ([]string, error) {
	r, err := wire.Payload([]byte(s))
	if err != nil {
		return nil, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, wire.ErrMalformed
	}
	var sites []string
	for i := uint64(0); i < n; i++ {
		site, err := r.String()
		if err != nil {
			return nil, err
		}
		sites = append(sites, site)
	}
	if r.Len() != 0 {
		return nil, wire.ErrMalformed
	}
	return sites, nil
}

// StageURL names the pipeline stage a deployed bundle compiles into; it
// appears in stage traces so an operator can tell a deployed script from
// the origin-fetched nakika.js it replaced.
func StageURL(site string, gen uint64) string {
	return fmt.Sprintf("deploy://%s/nakika.js#gen-%d", site, gen)
}

// Status describes one site's deployment as an admin surface sees it: the
// record's intent (Active) next to what this node's pipeline actually
// serves (Applied), which differ only while a deploy is propagating.
type Status struct {
	Site     string     `json:"site"`
	Active   uint64     `json:"active_gen"`
	Applied  uint64     `json:"applied_gen"`
	Retained []Retained `json:"retained,omitempty"`
}

// Retained summarizes one kept script version (the script body is omitted;
// operators who need it have it in version control).
type Retained struct {
	Gen   uint64 `json:"gen"`
	Note  string `json:"note,omitempty"`
	Bytes int    `json:"bytes"`
}
