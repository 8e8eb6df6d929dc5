// Package nakika is the public API of the Na Kika reproduction: an open
// edge-side computing network in which services and security policies are
// expressed as scripted event handlers, selected by predicates on HTTP
// messages, composed into a pipeline of content processing stages, isolated
// from each other, and governed by congestion-based resource controls.
//
// The package re-exports the node runtime and the supporting substrates so
// applications can embed an edge node, run origins, and script the pipeline:
//
//	origin := ...                       // any nakika.Fetcher
//	node, _ := nakika.NewNode(nakika.Config{Name: "edge-1", Upstream: origin})
//	resp, _, _ := node.Handle(nakika.MustRequest("GET", "http://site.org/"))
//
// Nodes given the same Ring cooperate: they share cached copies, and their
// hard state (a site script's State.put and State.remove, leases, deployed
// scripts) is written at each key's owner and replicated to its
// successors. A node without a Ring owns every key and writes the same
// versioned records to its own store.
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory and the mapping from the paper's evaluation to the
// benchmark harness.
package nakika

import (
	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/overlay"
	"nakika/internal/store"
)

// Node is a Na Kika edge node: an HTTP proxy that executes the scripting
// pipeline, caches content cooperatively, and enforces security and resource
// controls.
type Node = core.Node

// Config configures an edge node. Config.Cache.Shards sets the proxy
// cache's lock-shard fan-out (zero means 16, rounded to a power of two and
// collapsed for small caches); each stage runs at most one handler per CPU
// at a time.
type Config = core.Config

// Fetcher retrieves resources from upstream origin servers.
type Fetcher = core.Fetcher

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc = core.FetcherFunc

// HTTPFetcher is the Fetcher a node uses when Config.Upstream is nil:
// HTTP/1.1 with the node's own codec, connections kept alive per origin,
// redirects relayed rather than followed.
type HTTPFetcher = core.HTTPFetcher

// Stats aggregates node counters.
type Stats = core.Stats

// Request and Response are the pipeline's HTTP message representation.
type Request = httpmsg.Request

// Response is the pipeline's HTTP response representation.
type Response = httpmsg.Response

// Ring is the structured overlay shared by cooperating nodes. In-process
// nodes sharing one replicate hard state over its transport: each key is
// written at its owner and pushed to the owner's successors. A node
// without a Ring owns every key.
type Ring = overlay.Ring

// Redirector picks nearby edge nodes for clients (the DNS-redirection
// substitute).
type Redirector = overlay.Redirector

// NewNode builds an edge node.
func NewNode(cfg Config) (*Node, error) { return core.NewNode(cfg) }

// NewRing returns an empty overlay ring.
func NewRing() *Ring { return overlay.NewRing() }

// NewRedirector returns a redirector over ring.
func NewRedirector(ring *Ring) *Redirector { return overlay.NewRedirector(ring) }

// FS is the filesystem abstraction the node's storage runs on; set
// Config.DataFS to make it durable (hard-state WAL, large-object tier and
// disk cache tier survive a restart).
type FS = store.FS

// NewDirFS roots an FS at a real directory (cmd/nakikad's -data-dir).
func NewDirFS(dir string) (*store.DirFS, error) { return store.NewDirFS(dir) }

// NewMemFS returns a hermetic in-memory FS, as the cluster harness uses
// for deterministic crash/restart testing.
func NewMemFS() *store.MemFS { return store.NewMemFS() }

// NewRequest builds a pipeline request for the given method and URL.
func NewRequest(method, url string) (*Request, error) { return httpmsg.NewRequest(method, url) }

// MustRequest is NewRequest that panics on error; for examples and tests.
func MustRequest(method, url string) *Request { return httpmsg.MustRequest(method, url) }

// NewTextResponse builds a text/plain response.
func NewTextResponse(status int, body string) *Response {
	return httpmsg.NewTextResponse(status, body)
}

// NewHTMLResponse builds a text/html response.
func NewHTMLResponse(status int, body string) *Response {
	return httpmsg.NewHTMLResponse(status, body)
}
