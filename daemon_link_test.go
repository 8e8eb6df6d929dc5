package nakika

import (
	"debug/elf"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// readOnlyCeiling bounds the bytes of nakikad's read-only PT_LOAD segments
// (text, rodata and the symbol tables the runtime reads) on go1.24 for
// linux/amd64: 7 290 392 measured, plus 64 KiB. Every read-only page of the
// binary is resident in a running node, so these bytes are each nakikad's
// file-backed memory floor. With net/http's server and net/http/pprof linked
// they were 8 219 752.
const readOnlyCeiling = 7_290_392 + 64<<10

// TestDaemonLinksOneHTTPServer builds cmd/nakikad and checks that the only
// HTTP server it links is the node's own ingress (core.Node.Serve and
// ServeAdmin): neither net/http's server loop nor net/http/pprof is in the
// binary. On go1.24 for linux/amd64 it also holds the binary's read-only
// bytes under readOnlyCeiling.
func TestDaemonLinksOneHTTPServer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/nakikad; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := filepath.Join(t.TempDir(), "nakikad")
	build := exec.Command(goTool, "build", "-o", bin, "./cmd/nakikad")
	build.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/nakikad: %v\n%s", err, out)
	}
	f, err := elf.Open(bin)
	if err != nil {
		t.Skipf("not an ELF binary: %v", err)
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		t.Fatalf("symbol table: %v", err)
	}
	for _, s := range syms {
		if s.Name == "net/http.(*Server).Serve" || s.Name == "net/http.(*conn).serve" || strings.HasPrefix(s.Name, "net/http/pprof.") {
			t.Errorf("nakikad links %s", s.Name)
		}
	}

	var readOnly uint64
	for _, p := range f.Progs {
		if p.Type == elf.PT_LOAD && p.Flags&elf.PF_W == 0 {
			readOnly += p.Filesz
		}
	}
	version, err := exec.Command(goTool, "env", "GOVERSION", "GOOS", "GOARCH").Output()
	if err != nil {
		t.Fatalf("go env: %v", err)
	}
	if target := strings.Fields(string(version)); len(target) != 3 || !strings.HasPrefix(target[0], "go1.24") || target[1] != "linux" || target[2] != "amd64" {
		t.Logf("read-only bytes %d; the ceiling holds on go1.24 linux/amd64 only, not %s", readOnly, version)
		return
	}
	t.Logf("read-only bytes %d, ceiling %d", readOnly, readOnlyCeiling)
	if readOnly > readOnlyCeiling {
		t.Errorf("nakikad's read-only segments hold %d bytes, above the ceiling of %d", readOnly, readOnlyCeiling)
	}
}
