//go:build e2e

package e2e

import (
	"context"
	"errors"
	"net"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestReplicationBelowOneRefused: -replication 0 would read as the node
// default of three copies, so nakikad refuses it at the flag, with usage
// and exit status 2, instead of booting.
func TestReplicationBelowOneRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e suite")
	}
	nakikadBin, _ := buildBinaries(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, nakikadBin, "-listen", "127.0.0.1:0", "-replication", "0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("nakikad -replication 0: %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-replication 0: want at least 1") {
		t.Fatalf("nakikad -replication 0 printed:\n%s", out)
	}
}

// TestAdminAddressTakenRefused: an -admin address another socket holds stops
// the start with a non-zero exit, as a taken -listen address does, instead
// of a node that serves without its admin surface.
func TestAdminAddressTakenRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e suite")
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	nakikadBin, _ := buildBinaries(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, nakikadBin, "-listen", "127.0.0.1:0", "-admin", taken.Addr().String()).CombinedOutput()
	var exit *exec.ExitError
	if ctx.Err() != nil || !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("nakikad -admin %s (taken): %v, want a non-zero exit\n%s", taken.Addr(), err, out)
	}
	if !strings.Contains(string(out), "admin listener") || !strings.Contains(string(out), "address already in use") {
		t.Fatalf("nakikad -admin %s (taken) printed:\n%s", taken.Addr(), out)
	}
}
