package nakika

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuildsAndPasses keeps benchmark/ inside tier-1. It is a
// module of its own (nakika/benchmark, replace nakika => ../), so `go build
// ./... && go test ./...` at the root neither compiles nor tests it, and a
// change that renames something it imports would otherwise break the
// benchmark unseen.
func TestBenchmarkModuleBuildsAndPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on the nested module; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in benchmark/: %v\n%s", args[0], err, out)
		}
	}
}
