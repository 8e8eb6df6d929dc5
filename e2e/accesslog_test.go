//go:build e2e

package e2e

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The access-log scenario (Section 3.3): a site script deployed through
// /admin/deploy names its log URL with Log.postTo. From then on the node
// keeps a line for each request it serves the site, plus each Log.write, and
// posts them to that URL: here nakika-origin's sink, at the latest when the
// node shuts down gracefully. Requests served before the script named a URL
// leave no line behind.
func TestAccessLogPostsToOriginSink(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e suite")
	}
	c := startCluster(t, 1)
	const site = "127.0.0.1"
	script := fmt.Sprintf(`Log.postTo("http://%s/nakika-log");
onResponse = function () { Log.write("e2e-write " + Request.path); };`, c.originHost)
	status, body, err := adminPostJSON(c.adminAddr[0], "/admin/deploy",
		map[string]any{"site": site, "script": script, "note": "e2e access log"})
	if err != nil || status != 200 {
		t.Fatalf("deploy: status %d, err %v, body %s", status, err, body)
	}
	waitDeployed(t, c, site, 1, 30*time.Second)

	paths := []string{"/file_set/dir/class0_0", "/file_set/dir/class0_1"}
	for _, p := range paths {
		if status, _, err := proxyGet(c.httpAddr[0], c.originHost, p); err != nil || status != 200 {
			t.Fatalf("GET %s: status %d, err %v", p, status, err)
		}
	}

	node := c.nodes[0]
	if err := node.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	exited := make(chan struct{})
	go func() { _, _ = node.cmd.Process.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(20 * time.Second):
		t.Fatalf("edge-0 did not exit after SIGTERM (log:\n%s)", node.logTail(20))
	}

	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + c.originHost + "/nakika-log")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sink := string(b)
	for _, p := range paths {
		// waitServing fetched class0_0 before the deploy: that request left
		// no line, so each path has exactly one.
		access := " GET http://" + c.originHost + p + " 200 "
		if n := strings.Count(sink, access); n != 1 {
			t.Errorf("sink holds %d access lines for %s, want 1; sink:\n%s", n, p, sink)
		}
		if !strings.Contains(sink, "e2e-write "+p+"\n") {
			t.Errorf("sink lacks the script's Log.write line for %s; sink:\n%s", p, sink)
		}
	}
}
