package largeobject

import (
	"bytes"
	"testing"

	"nakika/internal/store"
)

// TestSegmentsSharingAHash forces two segment ids onto one hash: the later
// stored supersedes the earlier, so the later is served and a read of the
// earlier is a miss that never returns the other's bytes, before and after a
// reopen; storing the earlier again supersedes it back.
func TestSegmentsSharingAHash(t *testing.T) {
	const segSize = 64
	one, two := testBody(segSize), bytes.Repeat([]byte("2"), segSize)
	idOne, idTwo := HashSegment(one), HashSegment(two)
	seeded := hashKey
	defer func() { hashKey = seeded }()
	hashKey = func(key []byte) uint64 {
		if bytes.Equal(key, idOne[:]) || bytes.Equal(key, idTwo[:]) {
			return 42
		}
		return seeded(key)
	}
	want := func(s *Slab, id SegID, data []byte) {
		t.Helper()
		got, ok := s.Get(id)
		if data == nil && ok {
			t.Errorf("segment %v: served %q, want a miss", id, got)
		} else if data != nil && (!ok || !bytes.Equal(got, data)) {
			t.Errorf("segment %v: served %q (%v), want its bytes", id, got, ok)
		}
	}
	fs := store.NewMemFS()
	s, err := NewSlab(fs, segSize, 8*segSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(idOne, one); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(idTwo, two); err != nil {
		t.Fatal(err)
	}
	re, err := NewSlab(fs, segSize, 8*segSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Slab{s, re} {
		want(s, idTwo, two)
		want(s, idOne, nil)
		if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Errorf("stats %+v: want a hit and a miss", st)
		}
	}
	if err := s.Put(idOne, one); err != nil {
		t.Fatal(err)
	}
	want(s, idOne, one)
	want(s, idTwo, nil)
}

// TestSlabUsedCountsSegmentsOnly: manifest records share the slab's log, and
// its owner word tells them apart, so Used counts the segments alone while a
// manifest is written and after it is tombstoned.
func TestSlabUsedCountsSegmentsOnly(t *testing.T) {
	const segSize = 64
	fs := store.NewMemFS()
	s, err := NewSlab(fs, segSize, 8*segSize)
	if err != nil {
		t.Fatal(err)
	}
	var ids []SegID
	for i := range 3 {
		data := bytes.Repeat([]byte{byte('a' + i)}, segSize)
		ids = append(ids, HashSegment(data))
		if err := s.Put(ids[i], data); err != nil {
			t.Fatal(err)
		}
	}
	m := &Manifest{Key: "GET http://o/x", Status: 200, TotalLen: 3 * segSize, SegSize: segSize, Segments: ids}
	if err := s.putManifest(m.Key, m); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Used != 3 || st.Entries != 4 {
		t.Fatalf("with the manifest written: %+v, want 3 segments used of 4 entries", st)
	}
	if err := s.putManifest(m.Key, nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Used != 3 || st.Entries != 3 {
		t.Fatalf("with the manifest tombstoned: %+v, want 3 segments used of 3 entries", st)
	}
	re, err := NewSlab(fs, segSize, 8*segSize)
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Used != 3 || st.Entries != 3 {
		t.Fatalf("reopened: %+v, want 3 segments used of 3 entries", st)
	}
}
