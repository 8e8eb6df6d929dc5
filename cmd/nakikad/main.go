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
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nakika"
	"nakika/internal/admin"
	"nakika/internal/resource"
	"nakika/internal/store"
	"nakika/internal/transport"
)

func main() {
	listen := flag.String("listen", ":8080", "address to listen on")
	name := flag.String("name", "edge-1", "node name")
	region := flag.String("region", "default", "node region (for client redirection)")
	local := flag.String("local", "127.0.0.0/8", "comma-separated CIDR blocks considered local (System.isLocal)")
	clientWall := flag.String("clientwall", "", "URL of the client-side administrative control script (empty: none)")
	serverWall := flag.String("serverwall", "", "URL of the server-side administrative control script (empty: none)")
	enableRes := flag.Bool("resource-controls", true, "enable congestion-based resource controls")
	cpuCapacity := flag.Float64("cpu-capacity", 50_000_000, "CPU capacity (script steps) per control interval")
	rpcAddr := flag.String("rpc", "", "TCP transport listen address for cluster traffic (empty: single-node)")
	peers := flag.String("peers", "", "comma-separated name=host:port pairs of cluster peers")
	dataDir := flag.String("data-dir", "", "directory for the persistent store (WAL + segments + disk cache tier); empty keeps all state in memory")
	replication := flag.Int("replication", 3, "copies kept of each hard-state key in cluster mode (ring owner + successors, written synchronously); 1 keeps owner-only placement")
	offloadThreshold := flag.Float64("offload-threshold", 0, "load score above which arriving requests are shed to the least-loaded replica of their site (cluster mode); 0 disables offload")
	hedgeAfter := flag.Duration("hedge-after", 0, "latency budget for replicated hard-state reads: when the owner's EWMA round trip exceeds it the read is hedged to the next replica; 0 disables hedging")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "default time-to-live of distributed leases taken without an explicit TTL (Lease.acquire)")
	adminAddr := flag.String("admin", "", "admin listener address serving /metrics, /admin/traces, /admin/statusz, /admin/deploy, /admin/rollback, /admin/deployments and /debug/pprof/ (no delta profiles: compare two with go tool pprof -base); empty disables the listener")
	noObserve := flag.Bool("no-observe", false, "disable the observability plane (metrics registry, request tracing, trace-id propagation)")
	largeThreshold := flag.Int64("large-threshold", 1<<20, "response size in bytes at which bodies are chunked into the content-addressed large-object tier and served as streams; 0 disables the tier")
	segmentSize := flag.Int64("segment-size", 256<<10, "segment size of the large-object tier")
	largeCapacity := flag.Int64("large-capacity", 512<<20, "byte capacity of the large-object segment slab (oldest segments reclaimed beyond it, those in use carried forward)")
	flag.Parse()
	if *replication < 1 {
		log.Printf("nakikad: -replication %d: want at least 1", *replication)
		flag.Usage()
		os.Exit(2)
	}

	cfg := nakika.Config{
		Name:                 *name,
		Region:               *region,
		ClientWallURL:        *clientWall,
		ServerWallURL:        *serverWall,
		ReplicationFactor:    *replication,
		OffloadThreshold:     *offloadThreshold,
		HedgeAfter:           *hedgeAfter,
		LeaseTTL:             *leaseTTL,
		NoObserve:            *noObserve,
		EnableResources:      *enableRes,
		LargeObjectThreshold: *largeThreshold,
		LargeObjectSegment:   *segmentSize,
		LargeObjectCapacity:  *largeCapacity,
		Resources: resource.Config{
			Capacity: map[resource.Kind]float64{
				resource.CPU:    *cpuCapacity,
				resource.Memory: 256 << 20,
			},
		},
	}
	for _, cidr := range strings.Split(*local, ",") {
		if cidr = strings.TrimSpace(cidr); cidr != "" {
			cfg.LocalNetworks = append(cfg.LocalNetworks, cidr)
		}
	}
	if *dataDir != "" {
		fs, err := store.NewDirFS(*dataDir)
		if err != nil {
			log.Fatalf("nakikad: %v", err)
		}
		cfg.DataFS = fs
	}

	// Cluster mode: an overlay ring over the TCP wire transport. This
	// process serves its own node; peers are remote membership stubs
	// reached through the address book.
	var tcp *transport.TCP
	peerCount := 0
	if *rpcAddr != "" {
		tcp = transport.NewTCP()
		ring := nakika.NewRing()
		ring.Transport = tcp
		cfg.Ring = ring
		cfg.Transport = tcp
		for _, pair := range strings.Split(*peers, ",") {
			if pair = strings.TrimSpace(pair); pair == "" {
				continue
			}
			nameAddr := strings.SplitN(pair, "=", 2)
			if len(nameAddr) != 2 {
				log.Fatalf("nakikad: bad -peers entry %q (want name=host:port)", pair)
			}
			ring.AddRemote(nameAddr[0], "remote")
			tcp.AddPeer(nameAddr[0], nameAddr[1])
			peerCount++
		}
	}

	node, err := nakika.NewNode(cfg)
	if err != nil {
		log.Fatalf("nakikad: %v", err)
	}
	if *dataDir != "" {
		st := node.StoreStats()
		log.Printf("nakikad: persistent store in %s (replayed %d records, disk cache %d entries)",
			*dataDir, st.Replayed, node.Cache().Stats().Disk.Entries)
	}
	if tcp != nil {
		addr, err := tcp.Listen(*rpcAddr)
		if err != nil {
			log.Fatalf("nakikad: rpc listen: %v", err)
		}
		log.Printf("nakikad: cluster transport on %s (%d peers)", addr, peerCount)
	}

	// The admin port, optional: /metrics, /admin/traces, /admin/statusz,
	// the deployment API and /debug/pprof/ on a port separate from client
	// traffic, served by the node's own ingress. Then the client port. Both
	// drain on the same signal, so a scrape in flight at SIGTERM completes
	// before the process exits.
	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
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
	ln, err := net.Listen("tcp", *listen)
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
		log.Printf("nakikad: node %s (%s) listening on %s", *name, *region, ln.Addr())
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
