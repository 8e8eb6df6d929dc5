//go:build e2e

package e2e

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The real-process acceptance scenario: 4 nakikad processes form a TCP
// cluster proxying for a real nakika-origin serving the SPECweb-like app,
// whose edge script keeps user registrations in replicated hard state. A
// registration burst rotates over the nodes; halfway through, one node is
// SIGKILLed. Every registration acknowledged by the edge script (200 with
// the edge-rendered body — which the script only produces after the
// replicated State.put was acknowledged) must remain readable through the
// survivors and, after the killed node restarts from its data directory
// and repair catches it up, through the restarted node too.

// buildBinaries compiles nakikad and nakika-origin into dir.
func buildBinaries(t *testing.T, dir string) (nakikad, origin string) {
	t.Helper()
	nakikad = filepath.Join(dir, "nakikad")
	origin = filepath.Join(dir, "nakika-origin")
	for bin, pkg := range map[string]string{nakikad: "nakika/cmd/nakikad", origin: "nakika/cmd/nakika-origin"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return nakikad, origin
}

// freePorts reserves n distinct listening ports and releases them for the
// child processes to claim.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	var listeners []net.Listener
	for len(ports) < n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	for _, l := range listeners {
		l.Close()
	}
	return ports
}

// proc is one spawned child process with its captured log.
type proc struct {
	cmd     *exec.Cmd
	logPath string
}

// spawn starts a binary with args, teeing output to a log file.
func spawn(t *testing.T, dir, name, bin string, args ...string) *proc {
	t.Helper()
	logPath := filepath.Join(dir, name+".log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		t.Fatalf("start %s: %v", name, err)
	}
	p := &proc{cmd: cmd, logPath: logPath}
	t.Cleanup(func() {
		logFile.Close()
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
			_, _ = p.cmd.Process.Wait()
		}
	})
	return p
}

// sigkill kills the process the way a crash would: no shutdown hooks run.
func (p *proc) sigkill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_, _ = p.cmd.Process.Wait()
}

func (p *proc) logTail(n int) string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// proxyGet issues one proxy-style GET through the node listening on
// nodeAddr for the origin URL path (the Host header carries the origin
// authority, as a redirected client would send it).
func proxyGet(nodeAddr, originHost, pathAndQuery string) (int, string, error) {
	req, err := http.NewRequest("GET", "http://"+nodeAddr+pathAndQuery, nil)
	if err != nil {
		return 0, "", err
	}
	req.Host = originHost
	client := &http.Client{Timeout: 15 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, string(body), nil
}

// waitServing polls a node until it proxies a static origin page.
func waitServing(t *testing.T, nodeAddr, originHost string, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	var lastErr error
	for time.Now().Before(end) {
		status, _, err := proxyGet(nodeAddr, originHost, "/file_set/dir/class0_0")
		if err == nil && status == 200 {
			return
		}
		lastErr = fmt.Errorf("status %d, err %v", status, err)
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatalf("node %s never became ready: %v", nodeAddr, lastErr)
}

// waitOrigin polls the origin directly until it serves a static page. A
// node whose first script fetch finds the origin not yet listening caches
// the site script as missing for the life of the process and never runs
// it (a lead under ROADMAP item 5), so nodes start only after this.
func waitOrigin(t *testing.T, originHost string, deadline time.Duration) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		resp, err := client.Get("http://" + originHost + "/file_set/dir/class0_0")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("origin %s never served", originHost)
}

// waitRegistering polls a node until one registration through it is acked
// by the edge script: a node whose first RPC found a peer not yet listening
// backs off redialling it, and until then State.put fails and the request
// falls through to the origin. Serving a static page does not show that.
// A stopgap, like the benchmark's readyProbe, until the node reports its
// own readiness (ROADMAP item 5).
func waitRegistering(t *testing.T, nodeAddr, originHost, user string, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	var status int
	var err error
	for time.Now().Before(end) {
		var body string
		if status, body, err = proxyGet(nodeAddr, originHost, "/cgi-bin/register?user="+user); err == nil && edgeRegistered(status, body) {
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatalf("node %s never acked a registration: status %d, err %v", nodeAddr, status, err)
}

// edgeRegistered reports whether the body is the edge script's
// acknowledgement: the script writes this body only after the replicated
// State.put succeeded, while the origin's fallback page carries the
// SPECweb ad banner the script omits.
func edgeRegistered(status int, body string) bool {
	return status == 200 && strings.Contains(body, "<p>registered</p>") && !strings.Contains(body, "class='ad'")
}

// edgeProfile reports whether the body is the edge script's profile
// rendering backed by replicated hard state.
func edgeProfile(status int, body string) bool {
	return status == 200 && strings.Contains(body, "profile ads=")
}

func TestClusterSurvivesSigkillWithZeroAckedWriteLoss(t *testing.T) {
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

	spawn(t, dir, "origin", originBin, "-app", "specweb", "-listen", originHost, "-host", originHost)
	waitOrigin(t, originHost, 30*time.Second)

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
			// Point the administrative walls at the origin (it 404s them
			// fast); the default nakika.net URLs would stall on DNS in CI.
			"-clientwall", fmt.Sprintf("http://%s/clientwall.js", originHost),
			"-serverwall", fmt.Sprintf("http://%s/serverwall.js", originHost),
		}
	}
	procs := make([]*proc, nodes)
	for i := 0; i < nodes; i++ {
		procs[i] = spawn(t, dir, fmt.Sprintf("edge-%d", i), nakikadBin, nodeArgs(i)...)
	}
	for i := 0; i < nodes; i++ {
		waitServing(t, httpAddr[i], originHost, 30*time.Second)
	}
	for i := 0; i < nodes; i++ {
		waitRegistering(t, httpAddr[i], originHost, fmt.Sprintf("e2e-ready-%d", i), 30*time.Second)
	}

	// The registration burst, rotating over all nodes; node 2 is SIGKILLed
	// halfway through, mid-burst. Requests routed to the dead node's HTTP
	// port fail at connect (not acked); requests at survivors whose ring
	// owner was the dead node must fail over inside the cluster.
	const users = 60
	const victim = 2
	acked := make([]string, 0, users)
	for u := 0; u < users; u++ {
		if u == users/2 {
			procs[victim].sigkill(t)
		}
		node := u % nodes
		user := fmt.Sprintf("e2e-user-%03d", u)
		status, body, err := proxyGet(httpAddr[node], originHost, "/cgi-bin/register?user="+user)
		if err != nil {
			if node == victim && u >= users/2 {
				continue // the dead node's clients see connection errors
			}
			t.Fatalf("register %s via edge-%d: %v", user, node, err)
		}
		if edgeRegistered(status, body) {
			acked = append(acked, user)
		}
	}
	if len(acked) < users/2 {
		t.Fatalf("only %d of %d registrations acked; burst did not exercise the cluster (edge-0 log:\n%s)",
			len(acked), users, procs[0].logTail(30))
	}

	// With the victim still dead, every acked registration must be
	// readable through a survivor (failover reads).
	for _, user := range acked {
		status, body, err := proxyGet(httpAddr[(victim+1)%nodes], originHost, "/cgi-bin/profile?user="+user)
		if err != nil || !edgeProfile(status, body) {
			t.Fatalf("acked registration %s lost with the owner dead (status %d, err %v, body %.120q)", user, status, err, body)
		}
	}

	// Restart the victim from its preserved data directory; its WAL
	// replays the pre-kill acks, and the 5s maintenance loop's repair
	// pushes it the writes it missed while dead.
	procs[victim] = spawn(t, dir, "edge-2-restarted", nakikadBin, nodeArgs(victim)...)
	waitServing(t, httpAddr[victim], originHost, 30*time.Second)

	// Recovery: within the repair window, every acked registration reads
	// back through every node, the restarted one included.
	deadline := time.Now().Add(90 * time.Second)
	for _, user := range acked {
		for node := 0; node < nodes; node++ {
			for {
				status, body, err := proxyGet(httpAddr[node], originHost, "/cgi-bin/profile?user="+user)
				if err == nil && edgeProfile(status, body) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("acked registration %s unreadable via edge-%d after recovery (status %d, err %v, body %.120q)\nrestarted node log:\n%s",
						user, node, status, err, body, procs[victim].logTail(40))
				}
				time.Sleep(500 * time.Millisecond)
			}
		}
	}
}
