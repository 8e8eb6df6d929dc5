// Command nakikad runs a Na Kika edge node as a real HTTP proxy.
//
// Clients reach it either through proxy configuration or by rewriting URLs
// to append .nakika.net to the hostname and pointing that name at this node.
//
//	nakikad -listen :8080 -name edge-1 -region us-east -local 10.0.0.0/8
//
// Several nakikad processes form a cooperative cluster over the TCP
// transport: give each a -rpc listen address and the name=address pairs of
// its peers. Overlay routing, cooperative cache fetches, and hard-state
// replication then flow between the processes on length-prefixed frames:
//
//	nakikad -listen :8080 -name edge-1 -rpc :9091 -peers edge-2=host2:9092
//	nakikad -listen :8081 -name edge-2 -rpc :9092 -peers edge-1=host1:9091
//
// One wall-clock ticker at the resource manager's control interval drives
// the node's periodic work: each beat starts a core.Node.Tick, which runs
// what is due. That is the congestion control of the paper's Figure 6 every
// control interval, an access-log flush every minute and, in a cluster, one
// maintenance round (core.Node.Maintain) 5 s after the last: a ping round
// over the node's ring neighbours, a pending catch-up, repair, publish
// retries, RTT re-probes and a deployment sync. The first Tick runs only the
// boot catch-up, the pull of the key range the node owns, since its peers
// may not listen yet; the rounds retry the pull until it succeeds.
//
// With -data-dir the node persists its hard state through a write-ahead
// log and keeps a disk cache tier, so a restart recovers both instead of
// starting cold. SIGINT/SIGTERM shut the node down through core.Node.Stop:
// the client and admin ports drain, the cluster transport closes, the
// access log is posted and the store flushed, all within 15 s.
//
// Both ports speak HTTP/1.1 through the node's own codec: the client port
// with core.Node.Serve, the admin port with core.Node.ServeAdmin. A listen
// address that cannot be bound stops the start.
//
// The flags and the node's configuration are core.ParseDaemon's: the one
// function that builds what this command runs, which internal/core's tests
// call with an argument list to measure the daemon's own node. A flag error
// prints the usage and exits with status 2; -h exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nakika/internal/admin"
	"nakika/internal/core"
)

func main() {
	d, err := core.ParseDaemon(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, core.ErrUsage):
		os.Exit(2)
	case err != nil:
		log.Fatalf("nakikad: %v", err)
	}

	node, err := core.NewNode(d.Config)
	if err != nil {
		log.Fatalf("nakikad: %v", err)
	}
	if d.DataDir != "" {
		st := node.StoreStats()
		log.Printf("nakikad: persistent store in %s (replayed %d records, disk cache %d entries)",
			d.DataDir, st.Replayed, node.Cache().Stats().Disk.Entries)
	}
	if d.TCP != nil {
		addr, err := d.TCP.Listen(d.RPC)
		if err != nil {
			log.Fatalf("nakikad: rpc listen: %v", err)
		}
		log.Printf("nakikad: cluster transport on %s (%d peers)", addr, len(d.Config.Ring.Nodes())-1)
	}

	// The admin port, optional: /metrics, /admin/traces, /admin/statusz,
	// the deployment API and /debug/pprof/ on a port separate from client
	// traffic, served by the node's own ingress. Then the client port. Both
	// drain on the same signal, so a scrape in flight at SIGTERM completes
	// before the process exits.
	if d.Admin != "" {
		adminLn, err := net.Listen("tcp", d.Admin)
		if err != nil {
			log.Fatalf("nakikad: admin listener: %v", err)
		}
		log.Printf("nakikad: admin surface on %s", adminLn.Addr())
		go func() {
			if err := node.ServeAdmin(adminLn, admin.NewHandler(node)); err != nil {
				log.Fatalf("nakikad: admin listener: %v", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", d.Listen)
	if err != nil {
		log.Fatalf("nakikad: %v", err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	// The node's periodic work: a Tick on every beat, each in a goroutine
	// of its own, so a round or a log post blocked on the network never
	// holds back the control procedure.
	go func() {
		beat := time.NewTicker(node.Resources().ControlInterval())
		for ; ; <-beat.C {
			go node.Tick()
		}
	}()
	go func() {
		log.Printf("nakikad: node %s (%s) listening on %s", d.Config.Name, d.Config.Region, ln.Addr())
		if err := node.Serve(ln); err != nil {
			log.Fatalf("nakikad: %v", err)
		}
	}()

	// Graceful shutdown: on SIGINT/SIGTERM the node stops (core.Node.Stop):
	// the requests and scrapes in flight finish and the access log is
	// posted, all within 15 s. A node killed without -data-dir simply loses
	// its state; with it, the next boot replays the log.
	log.Printf("nakikad: %v: shutting down", <-sigs)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := node.Stop(ctx); err != nil {
		log.Fatalf("nakikad: store shutdown: %v", err)
	}
	log.Printf("nakikad: store flushed, bye")
}
