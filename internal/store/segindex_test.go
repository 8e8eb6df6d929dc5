package store

import (
	"math/rand"
	"testing"
)

// TestSegIndexMatchesMap runs seeded sequences of puts, overwrites and
// deletes against the index table and a Go map side by side. Most hashes
// have their home in the last slots of the first table, so runs wrap past
// its end and deletes shift slots back across it; the rest spread out, so
// the table grows several times.
func TestSegIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var x segIndex
		model := map[uint64]indexSlot{}
		var hashes []uint64
		for i := 0; i < 600; i++ {
			h := rng.Uint64()
			if i%3 != 0 {
				h = h&^(minIndexSlots-1) | uint64(minIndexSlots-1-rng.Intn(3))
			}
			hashes = append(hashes, h)
		}
		for op := 0; op < 4000; op++ {
			h := hashes[rng.Intn(len(hashes))]
			if rng.Intn(3) == 0 {
				x.del(h)
				delete(model, h)
			} else {
				s := indexSlot{hash: h, seg: uint64(op), off: uint32(op), n: uint32(FrameHeader + rng.Intn(100)), word: rng.Int63()}
				if !x.put(s) {
					t.Fatalf("seed %d op %d: put failed", seed, op)
				}
				model[h] = s
			}
			if x.count != len(model) {
				t.Fatalf("seed %d op %d: count %d, model %d", seed, op, x.count, len(model))
			}
			if op%50 == 0 || op > 3900 {
				for _, h := range hashes {
					got, ok := x.get(h)
					want, in := model[h]
					if ok != in || got != want {
						t.Fatalf("seed %d op %d: %#x holds %+v (%v), the map %+v (%v)", seed, op, h, got, ok, want, in)
					}
				}
				filled := 0
				x.each(func(indexSlot) { filled++ })
				if filled != len(model) || x.bytes() != int64(len(x.slots)*indexSlotSize) || len(model)*4 > len(x.slots)*3 {
					t.Fatalf("seed %d op %d: %d slots filled of %d (%d bytes), model %d", seed, op, filled, len(x.slots), x.bytes(), len(model))
				}
			}
		}
		x.free()
		if _, ok := x.get(hashes[0]); ok || x.count != 0 || x.bytes() != 0 {
			t.Fatalf("seed %d: a freed index still answers", seed)
		}
	}
}

// TestSegLogHashCollision files two keys under one hash: the later record
// supersedes the earlier, whose read is then a miss that never returns the
// other key's bytes, and a replay finds the same.
func TestSegLogHashCollision(t *testing.T) {
	fs := NewMemFS()
	l := openSegLog(t, fs, 1<<20)
	put := func(key string, body []byte) {
		kp := logKeyPart(key)
		if err := l.Append(7, int64(len(kp)+len(body)), FrameHead(kp, body), kp, body); err != nil {
			t.Fatal(err)
		}
	}
	// read is an owner's read of key filed under the shared hash 7.
	read := func(key string) ([]byte, bool) {
		ref, ok := l.Lookup(7)
		if !ok {
			return nil, false
		}
		p, err := l.Read(ref, make([]byte, ref.Len()))
		if got, _, live, ok := logSplit(p); err != nil || !ok || !live || got != key {
			return nil, false
		}
		return p[1+len(key):], true
	}
	put("a", []byte("bytes of a"))
	put("b", []byte("bytes of b"))
	if got, ok := read("a"); ok {
		t.Fatalf("a read %q, want a miss", got)
	}
	if got, ok := read("b"); !ok || string(got) != "bytes of b" {
		t.Fatalf("b read %q (%v)", got, ok)
	}
	if st := l.Stats(); st.Entries != 1 || st.IndexBytes == 0 {
		t.Fatalf("stats %+v, want one entry in a mapped index", st)
	}
	l, err := OpenSegLog(fs, 1<<20, func(p []byte) (uint64, int64, bool, bool) {
		_, word, live, ok := logSplit(p)
		return 7, word, live, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := read("a"); ok {
		t.Fatal("after the replay a is served")
	}
	if got, ok := read("b"); !ok || string(got) != "bytes of b" {
		t.Fatalf("after the replay b read %q (%v)", got, ok)
	}
}
