package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// binaries are the programs under test, built from the checkout.
type binaries struct{ nakikad, origin string }

// buildBinaries compiles cmd/nakikad and cmd/nakika-origin from the
// checkout at root into dir. Build time is reported, never counted as
// set-up.
func buildBinaries(root, dir string) (binaries, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/nakikad", "./cmd/nakika-origin")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, 0, fmt.Errorf("go build in %s: %v\n%s", root, err, out)
	}
	return binaries{nakikad: filepath.Join(dir, "nakikad"), origin: filepath.Join(dir, "nakika-origin")}, time.Since(start), nil
}

// addrs is the set of loopback addresses one run reserves: the origin,
// and per node the client, admin and cluster ports.
type addrs struct {
	origin           string
	http, admin, rpc []string
}

func reserveAddrs(nodes int) (addrs, error) {
	ports, err := freePorts(1 + 3*nodes)
	if err != nil {
		return addrs{}, err
	}
	at := func(p int) string { return fmt.Sprintf("127.0.0.1:%d", p) }
	a := addrs{origin: at(ports[0])}
	for i := 0; i < nodes; i++ {
		a.http = append(a.http, at(ports[1+3*i]))
		a.admin = append(a.admin, at(ports[2+3*i]))
		a.rpc = append(a.rpc, at(ports[3+3*i]))
	}
	return a, nil
}

// topology is a workload's origin and nodes, running: as processes for
// the measured windows (cluster), or inside this process for the traced
// pass, the layer loops and the tests (inproc).
type topology interface {
	// scrape sums the nodes' /metrics, series by series.
	scrape() (scrape, error)
	// nodePIDs are the processes the nodes run in; originPID is the
	// origin's, or 0 when it cannot be told apart from the nodes'.
	nodePIDs() []int
	originPID() int
	// logTails quotes the end of every child's output, for failure reports.
	logTails(n int) string
	// stop ends everything the topology started and waits for it.
	stop()
}

// starter brings a workload's topology up at the reserved addresses,
// keeping logs and data under dir, and returns once every port accepts
// connections.
type starter func(w *workload, a addrs, dir string) (topology, error)

// cluster is the topology as real processes.
type cluster struct {
	dir    string
	origin *proc
	nodes  []*proc
	a      addrs
}

// processStarter starts clusters of the given binaries.
func processStarter(bins binaries) starter {
	return func(w *workload, a addrs, dir string) (topology, error) { return startCluster(w, bins, a, dir) }
}

// nodeName matches the workload table: connection 0 drives edge-1.
func nodeName(i int) string { return fmt.Sprintf("edge-%d", i+1) }

// nodeArgs are nakikad's flags for node i: shipped defaults (resource
// controls on, observability on) plus what the topology needs. The
// administrative wall scripts point at origin URLs that 404 at once; the
// default nakika.net URLs would wait on DNS.
func nodeArgs(w *workload, a addrs, dir string, i int) []string {
	args := []string{
		"-listen", a.http[i],
		"-name", nodeName(i),
		"-admin", a.admin[i],
		"-clientwall", "http://" + a.origin + "/clientwall.js",
		"-serverwall", "http://" + a.origin + "/serverwall.js",
	}
	if w.dataDir {
		args = append(args, "-data-dir", filepath.Join(dir, "data-"+nodeName(i)))
	}
	if w.nodes > 1 {
		var peers []string
		for j := 0; j < w.nodes; j++ {
			if j != i {
				peers = append(peers, nodeName(j)+"="+a.rpc[j])
			}
		}
		args = append(args, "-rpc", a.rpc[i], "-peers", strings.Join(peers, ","), "-replication", "3")
	}
	return args
}

// startCluster spawns the origin and the nodes.
func startCluster(w *workload, bins binaries, a addrs, dir string) (topology, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, a: a}
	var err error
	originArgs := []string{"-app", w.app, "-listen", a.origin, "-host", a.origin}
	if w.objectBytes > 0 {
		originArgs = append(originArgs, "-size", strconv.Itoa(w.objectBytes))
	}
	if c.origin, err = spawn(loadCPU, dir, "origin", bins.origin, originArgs...); err != nil {
		return nil, err
	}
	for i := 0; i < w.nodes; i++ {
		p, err := spawn(sutCPU, dir, nodeName(i), bins.nakikad, nodeArgs(w, a, dir, i)...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, p)
	}
	const bootTimeout = 20 * time.Second
	if err := waitListening(a.origin, c.origin, bootTimeout); err != nil {
		c.stop()
		return nil, err
	}
	for i, p := range c.nodes {
		listen := []string{a.http[i], a.admin[i]}
		if w.nodes > 1 {
			listen = append(listen, a.rpc[i])
		}
		for _, addr := range listen {
			if err := waitListening(addr, p, bootTimeout); err != nil {
				c.stop()
				return nil, err
			}
		}
	}
	return c, nil
}

// stop kills every process of the cluster, waits for them, and removes
// the data directories. Logs stay in dir for the caller to quote.
func (c *cluster) stop() {
	for _, p := range c.nodes {
		p.kill()
	}
	if c.origin != nil {
		c.origin.kill()
	}
	entries, _ := os.ReadDir(c.dir)
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "data-") {
			os.RemoveAll(filepath.Join(c.dir, e.Name()))
		}
	}
}

func (c *cluster) logTails(n int) string {
	var sb strings.Builder
	for _, p := range append([]*proc{c.origin}, c.nodes...) {
		if p != nil {
			fmt.Fprintf(&sb, "--- %s ---\n%s\n", p.name, p.logTail(n))
		}
	}
	return sb.String()
}

func (c *cluster) scrape() (scrape, error) { return scrapeAll(c.a.admin) }

func (c *cluster) originPID() int { return c.origin.cmd.Process.Pid }

func (c *cluster) nodePIDs() []int {
	pids := make([]int, len(c.nodes))
	for i, p := range c.nodes {
		pids[i] = p.cmd.Process.Pid
	}
	return pids
}
