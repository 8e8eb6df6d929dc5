package store

import (
	"encoding/hex"
	"testing"
)

// decodeRecord parses one record payload into the plain-op fields (the
// fuzz target's view of DecodeLogRecord).
func decodeRecord(payload []byte) (op byte, site, key, value string, err error) {
	rec, err := DecodeLogRecord(payload)
	return rec.Op, rec.Site, rec.Key, rec.Value, err
}

// memLog opens a log with the given per-site quota on a fresh MemFS: the
// engine an in-memory node runs.
func memLog(t *testing.T, quota int64) *Log {
	t.Helper()
	l, err := OpenLog(NewMemFS(), LogConfig{Quota: quota})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestLogRecordGolden pins the WAL's on-disk bytes: one record of each op,
// framed and checksummed, exactly as a data directory written today holds
// them. A codec change that moves a byte fails here before it strands an
// existing directory.
func TestLogRecordGolden(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put("site.example", "k", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := del(l, "site.example", "gone"); err != nil {
		t.Fatal(err)
	}
	if err := fencedPut(l, "site.example", "k", "v2", "lock", "node-a", 7); err != nil {
		t.Fatal(err)
	}
	if err := l.RaiseFence("site.example", "lock", "node-b", 300); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(fs, "wal-00000001.log")
	if err != nil {
		t.Fatal(err)
	}
	const want = "000000133783bff6500c736974652e6578616d706c65016b027631000000132e" +
		"e60cf3440c736974652e6578616d706c6504676f6e65000000207ea6c290470c" +
		"736974652e6578616d706c65016b027632046c6f636b066e6f64652d61070000" +
		"001c3e77be3f460c736974652e6578616d706c65046c6f636b066e6f64652d62" +
		"ac02"
	if hex.EncodeToString(got) != want {
		t.Fatalf("wal bytes moved:\n got %x\nwant %s", got, want)
	}
}
