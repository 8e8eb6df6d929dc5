package core

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nakika/internal/resource"
	"nakika/internal/store"
)

// daemonNode builds the node nakikad runs with args. mutate may set only
// what no flag sets: the Upstream, the Clock, and a wrapper around the
// DataFS -data-dir opened.
func daemonNode(t testing.TB, mutate func(*Config), args ...string) *Node {
	t.Helper()
	d, err := ParseDaemon(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&d.Config)
	}
	n, err := NewNode(d.Config)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// checkConfig compares got with want field by field, naming each field
// that differs.
func checkConfig(t *testing.T, got, want Config) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if f := g.Type().Field(i); !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("Config.%s = %#v, want %#v", f.Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}

// TestParseDaemonDefaults: nakikad with no flags runs a single node on :8080
// with resource controls on, the large-object tier at 1 MiB, no walls, no
// admin port and no data directory, and every Config field nakikad sets is
// what its flags' defaults say.
func TestParseDaemonDefaults(t *testing.T) {
	d, err := ParseDaemon(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkConfig(t, d.Config, Config{
		Name:                 "edge-1",
		Region:               "default",
		LocalNetworks:        []string{"127.0.0.0/8"},
		EnableResources:      true,
		Resources:            resource.Config{Capacity: map[resource.Kind]float64{resource.CPU: 50_000_000, resource.Memory: 256 << 20}},
		ReplicationFactor:    3,
		LeaseTTL:             30 * time.Second,
		LargeObjectThreshold: 1 << 20,
		LargeObjectSegment:   256 << 10,
		LargeObjectCapacity:  512 << 20,
	})
	if d.Listen != ":8080" || d.Admin != "" || d.RPC != "" || d.TCP != nil || d.DataDir != "" {
		t.Errorf("addresses: listen %q, admin %q, rpc %q, transport %v, data dir %q; want :8080 and none of the rest",
			d.Listen, d.Admin, d.RPC, d.TCP, d.DataDir)
	}
}

// TestParseDaemonEveryFlag: each flag set away from its default reaches its
// Config field, and -rpc with -peers builds the TCP transport, with each
// peer in the ring, as both the Config's transport and the ring's.
func TestParseDaemonEveryFlag(t *testing.T) {
	dir := t.TempDir()
	d, err := ParseDaemon([]string{
		"-listen", "127.0.0.1:9", "-admin", "127.0.0.1:10", "-rpc", "127.0.0.1:11",
		"-peers", "edge-2=127.0.0.1:12, ,edge-3=127.0.0.1:13,",
		"-name", "edge-9", "-region", "eu-west", "-local", " 10.0.0.0/8, ,192.168.0.0/16,",
		"-clientwall", "http://w.example/c.js", "-serverwall", "http://w.example/s.js",
		"-resource-controls=false", "-cpu-capacity", "1000", "-data-dir", dir,
		"-replication", "1", "-offload-threshold", "0.5", "-hedge-after", "20ms", "-lease-ttl", "5s",
		"-no-observe", "-large-threshold", "0", "-segment-size", "4096", "-large-capacity", "65536",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if d.TCP == nil || d.Config.Transport != d.TCP || d.Config.Ring == nil || d.Config.Ring.Transport != d.TCP {
		t.Fatalf("-rpc: transport %v, Config.Transport %v, ring %v; want one TCP transport for both", d.TCP, d.Config.Transport, d.Config.Ring)
	}
	if got := d.Config.Ring.Nodes(); !slices.Equal(got, []string{"edge-2", "edge-3"}) && !slices.Equal(got, []string{"edge-3", "edge-2"}) {
		t.Errorf("ring members %v, want edge-2 and edge-3", got)
	}
	if _, ok := d.Config.DataFS.(*store.DirFS); !ok {
		t.Errorf("-data-dir opened %T, want a *store.DirFS", d.Config.DataFS)
	}
	checkConfig(t, d.Config, Config{
		Name:                 "edge-9",
		Region:               "eu-west",
		LocalNetworks:        []string{"10.0.0.0/8", "192.168.0.0/16"},
		ClientWallURL:        "http://w.example/c.js",
		ServerWallURL:        "http://w.example/s.js",
		EnableResources:      false,
		Resources:            resource.Config{Capacity: map[resource.Kind]float64{resource.CPU: 1000, resource.Memory: 256 << 20}},
		Ring:                 d.Config.Ring,
		Transport:            d.TCP,
		DataFS:               d.Config.DataFS,
		ReplicationFactor:    1,
		OffloadThreshold:     0.5,
		HedgeAfter:           20 * time.Millisecond,
		LeaseTTL:             5 * time.Second,
		NoObserve:            true,
		LargeObjectThreshold: 0,
		LargeObjectSegment:   4096,
		LargeObjectCapacity:  65536,
	})
	if d.Listen != "127.0.0.1:9" || d.Admin != "127.0.0.1:10" || d.RPC != "127.0.0.1:11" || d.DataDir != dir {
		t.Errorf("addresses: listen %q, admin %q, rpc %q, data dir %q", d.Listen, d.Admin, d.RPC, d.DataDir)
	}
}

// TestParseDaemonRefusesBadFlags: what nakikad refuses comes back as an
// error, never an exit. A flag error is ErrUsage and prints the usage, as
// the flag package does; a -peers entry without "=" is an error of its own.
func TestParseDaemonRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		usage bool
		says  string
	}{
		{[]string{"-replication", "0"}, true, "-replication 0: want at least 1"},
		{[]string{"-nosuch"}, true, "flag provided but not defined: -nosuch"},
		{[]string{"-cpu-capacity", "lots"}, true, "invalid value"},
		{[]string{"-h"}, true, ""},
		{[]string{"-rpc", "127.0.0.1:0", "-peers", "edge-2=127.0.0.1:1,edge-3"}, false, `bad -peers entry "edge-3"`},
	} {
		var out strings.Builder
		_, err := ParseDaemon(tc.args, &out)
		if err == nil {
			t.Errorf("%q: no error", tc.args)
			continue
		}
		if errors.Is(err, ErrUsage) != tc.usage {
			t.Errorf("%q: %v; usage error %v, want %v", tc.args, err, errors.Is(err, ErrUsage), tc.usage)
		}
		if tc.usage && !strings.Contains(out.String(), "Usage of nakikad") {
			t.Errorf("%q printed no usage: %q", tc.args, out.String())
		}
		if !strings.Contains(out.String()+err.Error(), tc.says) {
			t.Errorf("%q: %v, output %q; want it to say %q", tc.args, err, out.String(), tc.says)
		}
	}
	if _, err := ParseDaemon([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}
