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

func mustWrite(t *testing.T, fs FS, name string, data []byte) {
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

// TestReadIntoFailsRatherThanGrows: a file must end within the buffer. One
// spare byte is how the caller learns that it did.
func TestReadIntoFailsRatherThanGrows(t *testing.T) {
	content := []byte("exactly twenty bytes")
	mem := NewMemFS()
	mustWrite(t, mem, "f", content)
	mustWrite(t, mem, "empty", nil)
	for name, fs := range map[string]FS{"MemFS": mem, "no size, byte at a time": blindFS{mem}} {
		buf := make([]byte, len(content)+1)
		if n, err := ReadInto(fs, "f", buf); err != nil || !bytes.Equal(buf[:n], content) {
			t.Errorf("%s: a buffer one byte larger than the file: n=%d err=%v", name, n, err)
		}
		for _, size := range []int{len(content), len(content) - 1, 0} {
			if _, err := ReadInto(fs, "f", buf[:size]); err != io.ErrShortBuffer {
				t.Errorf("%s: %d-byte buffer for a %d-byte file: err = %v, want io.ErrShortBuffer", name, size, len(content), err)
			}
		}
		if n, err := ReadInto(fs, "empty", buf[:1]); n != 0 || err != nil {
			t.Errorf("%s: empty file: n=%d err=%v", name, n, err)
		}
		if _, err := ReadInto(fs, "missing", buf); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: missing file: %v", name, err)
		}
	}
}
