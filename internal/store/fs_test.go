package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
	"testing/iotest"
)

// hintFS is a MemFS whose read handles report the size they are told to
// instead of the file's: the file grew or shrank between the size being
// taken and the bytes being read.
type hintFS struct {
	*MemFS
	hint int
}

type hintReader struct {
	io.ReadCloser
	hint int
}

func (r hintReader) Len() int { return r.hint }

func (h hintFS) Open(name string) (io.ReadCloser, error) {
	rc, err := h.MemFS.Open(name)
	if err != nil {
		return nil, err
	}
	return hintReader{rc, h.hint}, nil
}

// blindFS hands out read handles with no size to report, a byte at a time.
type blindFS struct{ *MemFS }

func (b blindFS) Open(name string) (io.ReadCloser, error) {
	rc, err := b.MemFS.Open(name)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(iotest.OneByteReader(rc)), nil
}

func mustWrite(t testing.TB, fs FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAllSizeIsOnlyAHint: ReadAll returns exactly the bytes present
// whether the handle reports the right size, one that is too small (the
// file grew under the reader), one that is too large (it shrank), or none.
func TestReadAllSizeIsOnlyAHint(t *testing.T) {
	content := bytes.Repeat([]byte("0123456789abcdef"), 300) // 4800 bytes: past the no-hint start size
	mem := NewMemFS()
	mustWrite(t, mem, "f", content)
	mustWrite(t, mem, "sub/f", content)
	mustWrite(t, mem, "empty", nil)
	dir, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, dir, "f", content)

	cases := map[string]FS{
		"MemFS":       mem,
		"DirFS":       dir,
		"under a Sub": Sub(mem, "sub"),
		"no size":     blindFS{mem},
	}
	for name, hint := range map[string]int{
		"exact":             len(content),
		"file one longer":   len(content) - 1,
		"file one shorter":  len(content) + 1,
		"file much longer":  7,
		"file much shorter": 3 * len(content),
		"zero":              0,
	} {
		cases["hint: "+name] = hintFS{mem, hint}
	}
	for name, fs := range cases {
		got, err := ReadAll(fs, "f")
		if err != nil || !bytes.Equal(got, content) {
			t.Errorf("%s: read %d bytes (%v), want the file's %d", name, len(got), err, len(content))
		}
	}
	if got, err := ReadAll(mem, "empty"); err != nil || len(got) != 0 {
		t.Errorf("empty file: %d bytes, %v", len(got), err)
	}
	if _, err := ReadAll(mem, "missing"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
}

// TestReadAllAllocatesOnceWhenSized: with a size to go by, the whole file
// costs one buffer (plus what Open itself allocates), not a growth chain.
func TestReadAllAllocatesOnceWhenSized(t *testing.T) {
	dir, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 256<<10)
	mustWrite(t, dir, "f", content)
	perRun := testing.AllocsPerRun(20, func() {
		if got, err := ReadAll(dir, "f"); err != nil || len(got) != len(content) {
			t.Fatalf("read %d bytes: %v", len(got), err)
		}
	})
	// io.ReadAll's growth from 512 bytes to 256 KiB was ~25 allocations on
	// top of these; open, stat and the one buffer stay under ten.
	if perRun > 10 {
		t.Fatalf("ReadAll of a sized file: %.0f allocations, want the one buffer and Open's few", perRun)
	}
}

// TestMemFSReadHandleIsADescriptor: MemFS's read handle reads the file in
// place, not a copy taken at Open, so it must answer like the *os.File that
// DirFS hands out. Three cases, each with the handle opened first:
//
//   - bytes appended afterwards are read (a descriptor reads the live file);
//   - a truncation afterwards — DropUnsynced, os.Truncate on the real file —
//     ends the reads at the new length: ReadAt past it is io.EOF;
//   - Remove afterwards changes nothing: the handle keeps the whole file,
//     while a new Open fails with os.ErrNotExist.
func TestMemFSReadHandleIsADescriptor(t *testing.T) {
	dirRoot := t.TempDir()
	dir, err := NewDirFS(dirRoot)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemFS()
	for name, c := range map[string]struct {
		fs       FS
		truncate func(t *testing.T)
	}{
		"MemFS": {mem, func(*testing.T) { mem.DropUnsynced() }},
		"DirFS": {dir, func(t *testing.T) {
			if err := os.Truncate(dirRoot+"/f", 5); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(name, func(t *testing.T) {
			w, err := c.fs.OpenAppend("f")
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if _, err := w.Write([]byte("01234")); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			r, err := c.fs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			ra, ok := r.(io.ReaderAt)
			if !ok {
				t.Fatal("the read handle has no ReadAt")
			}
			if got := sizeHint(r); got != 5 {
				t.Errorf("size hint = %d, want 5", got)
			}
			head := make([]byte, 3)
			if _, err := io.ReadFull(r, head); err != nil || string(head) != "012" {
				t.Fatalf("first read: %q, %v", head, err)
			}

			if _, err := w.Write([]byte("56789")); err != nil {
				t.Fatal(err)
			}
			at := make([]byte, 4)
			if n, err := ra.ReadAt(at, 4); n != 4 || err != nil || string(at) != "4567" {
				t.Errorf("ReadAt across the append: %q, n=%d, %v", at, n, err)
			}
			if n, err := ra.ReadAt(at, 8); n != 2 || err != io.EOF || string(at[:n]) != "89" {
				t.Errorf("ReadAt over the end: %q, n=%d, %v; want the last two bytes and io.EOF", at[:n], n, err)
			}

			c.truncate(t) // back to the five bytes that were synced
			if n, err := ra.ReadAt(at, 5); n != 0 || err != io.EOF {
				t.Errorf("ReadAt past a truncation: n=%d, %v; want io.EOF", n, err)
			}
			if rest, err := io.ReadAll(r); err != nil || string(rest) != "34" {
				t.Errorf("sequential read after the truncation: %q, %v; want the two bytes left", rest, err)
			}

			if err := c.fs.Remove("f"); err != nil {
				t.Fatal(err)
			}
			if n, err := ra.ReadAt(at, 0); n != 4 || err != nil || string(at) != "0123" {
				t.Errorf("ReadAt after Remove: %q, n=%d, %v; want the file still readable", at, n, err)
			}
			if _, err := c.fs.Open("f"); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("a new Open after Remove: %v, want os.ErrNotExist", err)
			}
		})
	}
}
