// Package store is the node's log-structured persistence engine: an
// append-only write-ahead log with CRC-framed records and fsync batching
// (group commit), compacted snapshot segments, and an in-memory index
// rebuilt by replay — the one engine hard state runs on. A node with a data
// directory runs it on a DirFS; every other node runs it on a private
// MemFS, so nothing survives that process but every write takes the same
// path.
//
// The engine never trusts the tail of a log file: a crash can leave a torn
// final record, and recovery stops cleanly at the last complete,
// checksummed record (the recoverable-mutual-exclusion discipline — every
// state transition is structured so a restart recovers a consistent view).
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FS is the narrow filesystem surface the engine runs on. Production nodes
// use DirFS over a real data directory; the cluster harness injects MemFS
// instances keyed by node name so crash/restart cycles are hermetic and
// deterministic. Names use forward slashes; implementations create parent
// directories on demand.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Open opens name for sequential reading.
	Open(name string) (io.ReadCloser, error)
	// List returns the names (full, slash-separated) of every file whose
	// name starts with prefix, sorted.
	List(prefix string) ([]string, error)
	// Remove deletes name; removing a missing file is not an error.
	Remove(name string) error
	// Rename atomically replaces newName with oldName's content.
	Rename(oldName, newName string) error
	// SyncDir makes the directory entries for name's directory durable
	// (the fsync-the-parent step that makes creates and renames survive a
	// power failure). A no-op where the concept does not apply.
	SyncDir(name string) error
}

// File is a writable file handle. Sync makes previously written bytes
// durable (the WAL's group commit batches many records into one Sync).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// ReadAll reads the entire named file. A missing file returns os.ErrNotExist.
// When the opened handle reports its size the buffer is allocated once, one
// byte larger so the read that finds end-of-file needs no growth (the
// os.ReadFile arrangement); the size is only a hint, and a file that grew
// or shrank since is still returned exactly as read.
func ReadAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readAll(f)
}

// readAll is ReadAll on an opened handle, read from where it stands.
func readAll(f io.Reader) ([]byte, error) {
	buf := make([]byte, max(sizeHint(f), 511)+1)
	n := 0
	for {
		m, err := readToEOF(f, buf[n:])
		n += m
		if err != io.ErrShortBuffer {
			return buf[:n], err
		}
		buf = append(buf, 0)
		buf = buf[:cap(buf)]
	}
}

// readToEOF reads f to end-of-file into buf with as few Reads as f needs;
// io.ErrShortBuffer means buf filled before the file ended.
func readToEOF(f io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := f.Read(buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
	return n, io.ErrShortBuffer
}

// sizeHint returns the size an opened handle reports for itself, 0 when it
// cannot say: a real file through Stat, MemFS's reader through its length.
func sizeHint(f io.Reader) int {
	switch f := f.(type) {
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := f.Stat(); err == nil && fi.Size() < 1<<31 {
			return int(fi.Size())
		}
	case interface{ Len() int }:
		return f.Len()
	}
	return 0
}

// WriteAtomic writes data to name via a temporary file, sync, and rename,
// so a crash mid-write never leaves a half-written name visible. Snapshot
// segments rely on this: a snapshot either exists completely or not at all.
func WriteAtomic(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, name); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(name)
}

// Sub returns a view of fs rooted at prefix, so independent engines (the
// hard-state log, the disk cache tier) share one data directory without
// name collisions.
func Sub(fs FS, prefix string) FS {
	prefix = strings.TrimSuffix(prefix, "/") + "/"
	return &subFS{fs: fs, prefix: prefix}
}

type subFS struct {
	fs     FS
	prefix string
}

func (s *subFS) Create(name string) (File, error)     { return s.fs.Create(s.prefix + name) }
func (s *subFS) OpenAppend(name string) (File, error) { return s.fs.OpenAppend(s.prefix + name) }
func (s *subFS) Open(name string) (io.ReadCloser, error) {
	return s.fs.Open(s.prefix + name)
}
func (s *subFS) Remove(name string) error  { return s.fs.Remove(s.prefix + name) }
func (s *subFS) SyncDir(name string) error { return s.fs.SyncDir(s.prefix + name) }
func (s *subFS) Rename(oldName, newName string) error {
	return s.fs.Rename(s.prefix+oldName, s.prefix+newName)
}
func (s *subFS) List(prefix string) ([]string, error) {
	names, err := s.fs.List(s.prefix + prefix)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, strings.TrimPrefix(n, s.prefix))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// DirFS: a real directory
// ---------------------------------------------------------------------------

// DirFS implements FS over a directory on the host filesystem.
type DirFS struct {
	root string
}

// NewDirFS returns an FS rooted at dir, creating it if necessary.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: data dir %s: %w", dir, err)
	}
	return &DirFS{root: dir}, nil
}

func (d *DirFS) path(name string) string {
	return filepath.Join(d.root, filepath.FromSlash(name))
}

func (d *DirFS) open(name string, flag int) (File, error) {
	p := d.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	return os.OpenFile(p, flag, 0o644)
}

// Create implements FS.
func (d *DirFS) Create(name string) (File, error) {
	return d.open(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
}

// OpenAppend implements FS.
func (d *DirFS) OpenAppend(name string) (File, error) {
	return d.open(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND)
}

// Open implements FS.
func (d *DirFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(d.path(name))
}

// List implements FS.
func (d *DirFS) List(prefix string) ([]string, error) {
	var names []string
	err := filepath.WalkDir(d.root, func(p string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (d *DirFS) Remove(name string) error {
	err := os.Remove(d.path(name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Rename implements FS.
func (d *DirFS) Rename(oldName, newName string) error {
	p := d.path(newName)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.Rename(d.path(oldName), p)
}

// SyncDir implements FS: it fsyncs the directory containing name so the
// entry itself (a create or rename) survives a power failure.
func (d *DirFS) SyncDir(name string) error {
	dir, err := os.Open(filepath.Dir(d.path(name)))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// ---------------------------------------------------------------------------
// MemFS: hermetic in-memory filesystem with crash semantics
// ---------------------------------------------------------------------------

// MemFS implements FS in memory. It models the durability a real kernel
// provides: bytes written survive a process crash (they reached the "page
// cache"), while DropUnsynced simulates a power failure that loses
// everything not yet fsynced. The cluster harness keeps one MemFS per node
// name so crash/restart preserves the node's data directory.
type MemFS struct {
	mu     sync.Mutex
	files  map[string]*memFile
	writes int64
	syncs  int64
}

type memFile struct {
	data   []byte
	synced int // length made durable by the last Sync
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// Writes returns the number of Write calls observed (bench/test telemetry).
func (m *MemFS) Writes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writes
}

// Syncs returns the number of Sync calls observed; group commit shows up
// as far fewer syncs than appended records.
func (m *MemFS) Syncs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// DropUnsynced truncates every file to its last synced length, simulating
// a power failure. A process crash alone does not lose written bytes, so
// the cluster harness does not call this; torn-tail recovery tests do.
func (m *MemFS) DropUnsynced() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		if f.synced < len(f.data) {
			f.data = f.data[:f.synced]
		}
	}
}

type memHandle struct {
	fs   *MemFS
	file *memFile
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.file.data = append(h.file.data, p...)
	h.fs.writes++
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.file.synced = len(h.file.data)
	h.fs.syncs++
	return nil
}

func (h *memHandle) Close() error { return nil }

// Create implements FS. An existing file is truncated in place, as O_TRUNC
// does: a handle opened on it before reads the new bytes.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		f = &memFile{}
		m.files[name] = f
	}
	f.data, f.synced = nil, 0
	return &memHandle{fs: m, file: f}, nil
}

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		f = &memFile{}
		m.files[name] = f
	}
	return &memHandle{fs: m, file: f}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("store: open %s: %w", name, os.ErrNotExist)
	}
	return &memReader{fs: m, file: f}, nil
}

// memReader is a read handle on the file itself, not on a copy: like a
// descriptor it sees bytes appended after Open, ends where a truncation
// (DropUnsynced, Create) left the file, keeps reading a file that was
// removed or renamed over, and reads nothing once closed (os.ErrClosed).
// Every read is taken under the filesystem's lock and bounded by the file's
// length at that moment.
type memReader struct {
	fs     *MemFS
	file   *memFile
	off    int
	closed bool
}

func (r *memReader) Read(p []byte) (int, error) {
	n, err := r.ReadAt(p, int64(r.off))
	r.off += n
	if n > 0 {
		err = nil
	}
	return n, err
}

// ReadAt implements io.ReaderAt.
func (r *memReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: read at negative offset %d", off)
	}
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if r.closed {
		return 0, os.ErrClosed
	}
	n := 0
	if off < int64(len(r.file.data)) {
		n = copy(p, r.file.data[off:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Len returns the number of unread bytes: the size hint ReadAll asks for.
func (r *memReader) Len() int {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return max(len(r.file.data)-r.off, 0)
}

func (r *memReader) Close() error {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	r.closed = true
	return nil
}

// List implements FS.
func (m *MemFS) List(prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldName]
	if !ok {
		return fmt.Errorf("store: rename %s: %w", oldName, os.ErrNotExist)
	}
	delete(m.files, oldName)
	m.files[newName] = f
	return nil
}

// SyncDir implements FS: MemFS directory entries are always durable
// (DropUnsynced only truncates file contents).
func (m *MemFS) SyncDir(string) error { return nil }
