package store

import (
	"errors"
	"io"
	"reflect"
	"testing"
)

// TestMemViewRevokeRefusesEverything: once a view is revoked, every
// operation through it fails, on the view and on handles it opened before,
// and the MemFS under it, and a new view of it, are exactly as they were.
func TestMemViewRevokeRefusesEverything(t *testing.T) {
	mem := NewMemFS()
	view := mem.View()
	w, err := view.OpenAppend("log/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("written")); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(view, "log/b", []byte("synced")); err != nil {
		t.Fatal(err)
	}
	r, err := view.Open("log/a")
	if err != nil {
		t.Fatal(err)
	}
	ra, ok := r.(io.ReaderAt)
	if !ok {
		t.Fatal("a view of MemFS hands out a read handle without ReadAt")
	}
	if _, err := ra.ReadAt(make([]byte, 3), 0); err != nil {
		t.Fatalf("ReadAt before the revocation: %v", err)
	}
	before := memFiles(t, mem)

	view.Revoke()
	buf := make([]byte, 3)
	for op, do := range map[string]func() error{
		"create":      func() error { _, err := view.Create("log/c"); return err },
		"open append": func() error { _, err := view.OpenAppend("log/a"); return err },
		"open":        func() error { _, err := view.Open("log/a"); return err },
		"remove":      func() error { return view.Remove("log/b") },
		"rename":      func() error { return view.Rename("log/a", "log/b") },
		"write":       func() error { _, err := w.Write([]byte("late")); return err },
		"sync":        func() error { return w.Sync() },
		"read":        func() error { _, err := r.Read(buf); return err },
		"read at":     func() error { _, err := ra.ReadAt(buf, 0); return err },
	} {
		if err := do(); !errors.Is(err, errRevoked) {
			t.Errorf("%s through a revoked view: %v, want it refused", op, err)
		}
	}
	if after := memFiles(t, mem); !reflect.DeepEqual(after, before) {
		t.Errorf("the revoked view changed the files:\n before %q\n after  %q", before, after)
	}
	next := mem.View()
	if got, err := ReadAll(next, "log/a"); err != nil || string(got) != "written" {
		t.Errorf("a new view reads %q, %v; want every byte the revoked one wrote", got, err)
	}
}

// memFiles is every file of fs with its contents.
func memFiles(t *testing.T, fs *MemFS) map[string]string {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, name := range names {
		data, err := ReadAll(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(data)
	}
	return files
}
