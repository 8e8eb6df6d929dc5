//go:build e2e

package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nakika/internal/apps/largefile"
)

// The large-object acceptance scenario: a 64 MiB object served by the
// largefile origin through a live 4-process cluster with the chunked tier
// enabled. The origin throttles its writes, so wall-clock time-to-first-byte
// proves the edge streams the object (cut-through) instead of buffering it;
// the origin's fetch counters prove warm reads and warm ranges never touch
// it again; and a SIGKILL of the serving node mid-stream proves a retried
// range reader finishes from a surviving holder the cooperative index names.

const (
	lobE2ESize     = 64 << 20 // the object
	lobE2EThrottle = 16 << 20 // origin bytes/sec: the full body takes ~4s to send
)

// largefileStats reads the origin's fetch counters directly (not through the
// proxy, so the read itself never perturbs them).
func largefileStats(t *testing.T, originHost string) largefile.Stats {
	t.Helper()
	resp, err := http.Get("http://" + originHost + "/stats")
	if err != nil {
		t.Fatalf("origin stats: %v", err)
	}
	defer resp.Body.Close()
	var st largefile.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("origin stats: %v", err)
	}
	return st
}

// streamGet opens a proxy-style GET through nodeAddr and hands back the live
// response so the caller can read the body incrementally.
func streamGet(nodeAddr, originHost, rangeSpec string) (*http.Response, error) {
	req, err := http.NewRequest("GET", "http://"+nodeAddr+"/blob", nil)
	if err != nil {
		return nil, err
	}
	req.Host = originHost
	if rangeSpec != "" {
		req.Header.Set("Range", rangeSpec)
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	return client.Do(req)
}

// verifyFill checks body bytes against the origin's offset-derived content.
func verifyFill(t *testing.T, body []byte, off int64, context string) {
	t.Helper()
	want := make([]byte, len(body))
	largefile.Fill(want, off)
	for i := range body {
		if body[i] != want[i] {
			t.Fatalf("%s: content mismatch at offset %d", context, off+int64(i))
		}
	}
}

func TestLargeObjectClusterStreamsAndSurvivesCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e suite")
	}
	dir := t.TempDir()
	nakikadBin, originBin := buildBinaries(t, dir)

	const nodes = 4
	ports := freePorts(t, 1+2*nodes)
	originPort := ports[0]
	originHost := fmt.Sprintf("127.0.0.1:%d", originPort)
	httpAddr := make([]string, nodes)
	rpcAddr := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		httpAddr[i] = fmt.Sprintf("127.0.0.1:%d", ports[1+2*i])
		rpcAddr[i] = fmt.Sprintf("127.0.0.1:%d", ports[2+2*i])
	}

	spawn(t, dir, "origin", originBin,
		"-app", "largefile", "-listen", originHost, "-host", originHost,
		"-size", fmt.Sprint(lobE2ESize), "-throttle", fmt.Sprint(lobE2EThrottle))

	nodeArgs := func(i int) []string {
		var peers []string
		for j := 0; j < nodes; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("edge-%d=%s", j, rpcAddr[j]))
			}
		}
		return []string{
			"-listen", httpAddr[i],
			"-name", fmt.Sprintf("edge-%d", i),
			"-region", "e2e",
			"-rpc", rpcAddr[i],
			"-peers", strings.Join(peers, ","),
			"-data-dir", filepath.Join(dir, fmt.Sprintf("data-%d", i)),
			"-replication", "3",
			"-resource-controls=false",
			"-large-threshold", fmt.Sprint(1 << 20),
			"-segment-size", fmt.Sprint(256 << 10),
			"-clientwall", fmt.Sprintf("http://%s/clientwall.js", originHost),
			"-serverwall", fmt.Sprintf("http://%s/serverwall.js", originHost),
		}
	}
	procs := make([]*proc, nodes)
	for i := 0; i < nodes; i++ {
		procs[i] = spawn(t, dir, fmt.Sprintf("edge-%d", i), nakikadBin, nodeArgs(i)...)
	}
	for i := 0; i < nodes; i++ {
		// The largefile origin has no static file set; readiness is the
		// proxied stats page.
		end := time.Now().Add(30 * time.Second)
		for {
			status, _, err := proxyGet(httpAddr[i], originHost, "/stats")
			if err == nil && status == 200 {
				break
			}
			if time.Now().After(end) {
				t.Fatalf("node %s never became ready (status %d, err %v)", httpAddr[i], status, err)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}

	// Cold fetch through edge-0. The throttled origin needs ~4s to send the
	// body, so a first byte well before that proves the edge streams
	// segments as they arrive instead of buffering the whole object.
	originSendTime := time.Duration(lobE2ESize) * time.Second / time.Duration(lobE2EThrottle)
	coldStart := time.Now()
	resp, err := streamGet(httpAddr[0], originHost, "")
	if err != nil {
		t.Fatalf("cold fetch: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("cold fetch status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Largefile-Edge") != "1" {
		t.Errorf("cold fetch missing the edge script's header — pipeline did not run on the streamed response")
	}
	buf := make([]byte, 64<<10)
	n, err := io.ReadAtLeast(resp.Body, buf, 1)
	if err != nil {
		t.Fatalf("cold fetch first read: %v", err)
	}
	ttfb := time.Since(coldStart)
	verifyFill(t, buf[:n], 0, "cold fetch head")
	rest, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("cold fetch body: %v", err)
	}
	if total := n + len(rest); total != lobE2ESize {
		t.Fatalf("cold fetch delivered %d of %d bytes", total, lobE2ESize)
	}
	verifyFill(t, rest, int64(n), "cold fetch tail")
	if ttfb >= originSendTime*3/4 {
		t.Fatalf("cold first byte took %v; origin needs %v to send — the edge buffered instead of streaming", ttfb, originSendTime)
	}
	t.Logf("cold fetch: ttfb=%v, full body in %v (origin send time %v)", ttfb, time.Since(coldStart), originSendTime)
	if st := largefileStats(t, originHost); st.FullFetches != 1 || st.RangeFetches != 0 {
		t.Fatalf("cold fetch origin counters = %+v, want exactly one full fetch", st)
	}

	// Give edge-0 a beat to announce its copy in the cooperative index,
	// then warm edge-1: it adopts the manifest from edge-0's cache.get reply
	// and pulls every segment from edge-0 — the origin sees nothing.
	time.Sleep(2 * time.Second)
	resp, err = streamGet(httpAddr[1], originHost, "")
	if err != nil {
		t.Fatalf("warm fetch via edge-1: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || len(body) != lobE2ESize {
		t.Fatalf("warm fetch via edge-1: status %d, %d bytes, err %v", resp.StatusCode, len(body), err)
	}
	verifyFill(t, body, 0, "warm fetch via edge-1")
	if st := largefileStats(t, originHost); st.FullFetches != 1 || st.RangeFetches != 0 {
		t.Fatalf("warm fetch origin counters = %+v, want no new fetches (segments should come from edge-0)", st)
	}

	// Warm ranges from resident segments: 206 with the right span, zero
	// origin traffic.
	const rangeFrom, rangeTo = 5_000_000, 5_100_000
	resp, err = streamGet(httpAddr[1], originHost, fmt.Sprintf("bytes=%d-%d", rangeFrom, rangeTo-1))
	if err != nil {
		t.Fatalf("warm range: %v", err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("warm range: status %d, err %v", resp.StatusCode, err)
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes %d-%d/%d", rangeFrom, rangeTo-1, lobE2ESize) {
		t.Fatalf("warm range Content-Range = %q", cr)
	}
	if len(body) != rangeTo-rangeFrom {
		t.Fatalf("warm range delivered %d bytes", len(body))
	}
	verifyFill(t, body, rangeFrom, "warm range")
	if st := largefileStats(t, originHost); st.FullFetches != 1 || st.RangeFetches != 0 {
		t.Fatalf("warm range origin counters = %+v, want no new fetches", st)
	}

	// Crash mid-stream: a client reads a long range from edge-0 (a full
	// holder), edge-0 is SIGKILLed under it, and the client resumes the
	// remainder of the range through edge-3 — which has never served the
	// object and must find the surviving holder (edge-1) through the
	// cooperative index — kept at the key's owner and the owner's successor,
	// so it survives edge-0 even when edge-0 is that owner.
	const crashFrom = 1 << 20
	resp, err = streamGet(httpAddr[0], originHost, fmt.Sprintf("bytes=%d-%d", crashFrom, lobE2ESize-1))
	if err != nil {
		t.Fatalf("crash-range open: %v", err)
	}
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("crash-range status %d", resp.StatusCode)
	}
	head := make([]byte, 2<<20)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatalf("crash-range head: %v", err)
	}
	verifyFill(t, head, crashFrom, "crash-range head")
	procs[0].sigkill(t)
	// The interrupted reader eventually errors out; a real client would
	// observe the same and resume with a new Range request elsewhere.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resumeFrom := int64(crashFrom + len(head))
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err = streamGet(httpAddr[3], originHost, fmt.Sprintf("bytes=%d-%d", resumeFrom, lobE2ESize-1))
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusPartialContent && int64(len(body)) == int64(lobE2ESize)-resumeFrom {
				verifyFill(t, body, resumeFrom, "resumed range via edge-3")
				break
			}
			err = fmt.Errorf("status %d, %d bytes, read err %v", resp.StatusCode, len(body), rerr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed range via edge-3 never completed after the crash: %v\nedge-3 log:\n%s", err, procs[3].logTail(40))
		}
		time.Sleep(time.Second)
	}
	if st := largefileStats(t, originHost); st.FullFetches != 1 {
		t.Fatalf("post-crash origin counters = %+v, want still exactly one full fetch", st)
	}
	t.Logf("resumed range completed via edge-3 from the surviving replica (origin stats %+v)", largefileStats(t, originHost))
}
