//go:build e2e

package e2e

import (
	"context"
	"errors"
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
