package bench

import (
	"fmt"

	"nakika/internal/core"
	"nakika/internal/httpmsg"
)

// Concurrency benchmark harness: the helpers behind the repository-level
// BenchmarkConcurrent* family. Where RunMicro measures single-request
// latency (Table 2), these build nodes meant to be hammered from many
// goroutines at once — warm proxy hits and warm Match-1 pipeline
// executions — so the request path's scalability (and any future
// lock-contention regression) is measurable with `go test -bench
// BenchmarkConcurrent -cpu 1,8`.

// NewConcurrentNode returns a node of the given micro-benchmark
// configuration primed for the warm path: the static page and the stage
// scripts are already cached, so every subsequent Handle is pure pipeline +
// cache work with no origin traffic. With ConfigProxy the stage scripts are
// absent; with ConfigMatch1 each request executes one onRequest and one
// onResponse handler in a pooled stage context.
func NewConcurrentNode(cfg MicroConfig) (*core.Node, error) {
	node, err := microNode(cfg)
	if err != nil {
		return nil, err
	}
	return node, warmNode(node)
}

func warmNode(node *core.Node) error {
	resp, _, err := node.Handle(pageRequest())
	if err != nil {
		return err
	}
	if resp.Status != 200 || len(resp.Body) != googlePageBytes {
		return fmt.Errorf("bench: warmup response %d (%d bytes)", resp.Status, len(resp.Body))
	}
	return nil
}

// ConcurrentRequest builds a fresh request for the warm benchmark loops
// (requests carry per-pipeline mutable state, so they are not reusable
// across iterations). It stages the request in the httpmsg pool — the same
// path the proxy's client port uses — so the warm benchmarks measure
// the server's steady-state allocation profile; release each request after
// its response when the trace shows no handler ran.
func ConcurrentRequest() *httpmsg.Request {
	req := httpmsg.AcquireRequest()
	req.Method = "GET"
	req.SetURLCopy(&pageURL)
	req.ClientIP = "10.0.0.1"
	return req
}

// pageURL is the pre-parsed benchmark URL ConcurrentRequest copies from.
var pageURL = *httpmsg.MustRequest("GET", "http://"+staticHost+"/index.html").URL
