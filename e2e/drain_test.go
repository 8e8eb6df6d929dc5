//go:build e2e

package e2e

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// SIGTERM drains the client port: a large object streaming through the
// node when the signal arrives is delivered whole, and the process then
// exits cleanly. The origin is throttled so the cold object takes about
// two seconds to stream, well inside the 10 s drain.
func TestSigtermDrainCompletesStreamedGet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e suite")
	}
	const size, throttle = 16 << 20, 8 << 20
	dir := t.TempDir()
	nakikadBin, originBin := buildBinaries(t, dir)
	ports := freePorts(t, 2)
	originHost := fmt.Sprintf("127.0.0.1:%d", ports[0])
	nodeAddr := fmt.Sprintf("127.0.0.1:%d", ports[1])
	spawn(t, dir, "origin", originBin, "-app", "largefile", "-listen", originHost, "-host", originHost,
		"-size", fmt.Sprint(size), "-throttle", fmt.Sprint(throttle))
	node := spawn(t, dir, "edge", nakikadBin,
		"-listen", nodeAddr, "-name", "edge-drain",
		"-data-dir", filepath.Join(dir, "data"),
		"-resource-controls=false",
		"-large-threshold", fmt.Sprint(1<<20),
		"-clientwall", fmt.Sprintf("http://%s/clientwall.js", originHost),
		"-serverwall", fmt.Sprintf("http://%s/serverwall.js", originHost))
	end := time.Now().Add(30 * time.Second)
	for {
		status, _, err := proxyGet(nodeAddr, originHost, "/stats")
		if err == nil && status == 200 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("node never became ready (status %d, err %v)", status, err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	resp, err := streamGet(nodeAddr, originHost, "")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	head := make([]byte, 256<<10)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatalf("first bytes: %v", err)
	}
	exited := make(chan error, 1)
	if err := node.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	go func() { exited <- node.cmd.Wait() }()
	rest, err := io.ReadAll(resp.Body)
	if err != nil || len(head)+len(rest) != size {
		t.Fatalf("after SIGTERM the stream gave %d of %d bytes (err %v)\nnode log:\n%s", len(head)+len(rest), size, err, node.logTail(20))
	}
	verifyFill(t, head, 0, "head before SIGTERM")
	verifyFill(t, rest, int64(len(head)), "rest after SIGTERM")
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("nakikad exited with %v\n%s", err, node.logTail(20))
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("nakikad still running 20 s after SIGTERM\n%s", node.logTail(20))
	}
	if log := node.logTail(5); !strings.Contains(log, "store flushed, bye") {
		t.Fatalf("no clean exit in the log:\n%s", log)
	}
}
