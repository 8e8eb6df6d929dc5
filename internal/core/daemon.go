package core

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"nakika/internal/overlay"
	"nakika/internal/resource"
	"nakika/internal/store"
	"nakika/internal/transport"
)

// Daemon is a node as cmd/nakikad's flags describe it: the Config it runs
// and the addresses it listens on.
type Daemon struct {
	Config Config
	// Listen is the client port's address; Admin the admin port's, empty
	// for none.
	Listen, Admin string
	// RPC is the cluster transport's listen address, and TCP that
	// transport, which knows every -peers address and is Config's Transport
	// and its Ring's. Both are empty on a single node.
	RPC string
	TCP *transport.TCP
	// DataDir is the directory Config.DataFS is opened on, empty for none.
	DataDir string
}

// ErrUsage marks a ParseDaemon error in the flags themselves, reported with
// the usage on ParseDaemon's output, as the flag package does.
var ErrUsage = errors.New("usage")

// ParseDaemon builds the node nakikad runs from its argument list (without
// the program name), printing a flag error and the usage to output. A flag
// error is ErrUsage (and flag.ErrHelp for -h); a -peers entry without "="
// or a data directory that cannot be opened is another error.
func ParseDaemon(args []string, output io.Writer) (Daemon, error) {
	fs := flag.NewFlagSet("nakikad", flag.ContinueOnError)
	fs.SetOutput(output)
	var d Daemon
	fs.StringVar(&d.Listen, "listen", ":8080", "address to listen on")
	name := fs.String("name", "edge-1", "node name")
	region := fs.String("region", "default", "node region (for client redirection)")
	local := fs.String("local", "127.0.0.0/8", "comma-separated CIDR blocks considered local (System.isLocal)")
	clientWall := fs.String("clientwall", "", "URL of the client-side administrative control script (empty: none)")
	serverWall := fs.String("serverwall", "", "URL of the server-side administrative control script (empty: none)")
	enableRes := fs.Bool("resource-controls", true, "enable congestion-based resource controls")
	cpuCapacity := fs.Float64("cpu-capacity", 50_000_000, "CPU capacity (script steps) per control interval")
	fs.StringVar(&d.RPC, "rpc", "", "TCP transport listen address for cluster traffic (empty: single-node)")
	peers := fs.String("peers", "", "comma-separated name=host:port pairs of cluster peers")
	fs.StringVar(&d.DataDir, "data-dir", "", "directory for the persistent store (WAL + segments + disk cache tier); empty keeps all state in memory")
	replication := fs.Int("replication", 3, "copies kept of each hard-state key in cluster mode (ring owner + successors, written synchronously); 1 keeps owner-only placement")
	offloadThreshold := fs.Float64("offload-threshold", 0, "load score above which arriving requests are shed to the least-loaded replica of their site (cluster mode); 0 disables offload")
	hedgeAfter := fs.Duration("hedge-after", 0, "latency budget for replicated hard-state reads: when the owner's EWMA round trip exceeds it the read is hedged to the next replica; 0 disables hedging")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "default time-to-live of distributed leases taken without an explicit TTL (Lease.acquire)")
	fs.StringVar(&d.Admin, "admin", "", "admin listener address serving /metrics, /admin/traces, /admin/statusz, /admin/deploy, /admin/rollback, /admin/deployments and /debug/pprof/ (no delta profiles: compare two with go tool pprof -base); empty disables the listener")
	noObserve := fs.Bool("no-observe", false, "disable the observability plane (metrics registry, request tracing, trace-id propagation)")
	largeThreshold := fs.Int64("large-threshold", 1<<20, "response size in bytes at which bodies are chunked into the content-addressed large-object tier and served as streams; 0 disables the tier")
	segmentSize := fs.Int64("segment-size", 256<<10, "segment size of the large-object tier")
	largeCapacity := fs.Int64("large-capacity", 512<<20, "byte capacity of the large-object segment slab (oldest segments reclaimed beyond it, those in use carried forward)")
	if err := fs.Parse(args); err != nil {
		return d, fmt.Errorf("%w: %w", ErrUsage, err)
	}
	if *replication < 1 {
		// -replication 0 would read as Config's default of three copies.
		err := fmt.Errorf("-replication %d: want at least 1", *replication)
		fmt.Fprintln(output, err)
		fs.Usage()
		return d, fmt.Errorf("%w: %w", ErrUsage, err)
	}

	d.Config = Config{
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
			d.Config.LocalNetworks = append(d.Config.LocalNetworks, cidr)
		}
	}

	// Cluster mode: an overlay ring over the TCP wire transport. This
	// process serves its own node; peers are remote membership stubs
	// reached through the address book.
	if d.RPC != "" {
		d.TCP = transport.NewTCP()
		ring := overlay.NewRing()
		ring.Transport = d.TCP
		d.Config.Ring = ring
		d.Config.Transport = d.TCP
		for _, pair := range strings.Split(*peers, ",") {
			if pair = strings.TrimSpace(pair); pair == "" {
				continue
			}
			name, addr, ok := strings.Cut(pair, "=")
			if !ok {
				return d, fmt.Errorf("bad -peers entry %q (want name=host:port)", pair)
			}
			ring.AddRemote(name, "remote")
			d.TCP.AddPeer(name, addr)
		}
	}
	if d.DataDir != "" {
		dir, err := store.NewDirFS(d.DataDir)
		if err != nil {
			return d, err
		}
		d.Config.DataFS = dir
	}
	return d, nil
}
