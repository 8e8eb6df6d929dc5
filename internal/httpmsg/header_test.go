package httpmsg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"nakika/internal/wire"
)

// httpHeader converts h to a net/http header, for comparing with net/http.
func httpHeader(h Header) http.Header {
	out := http.Header{}
	h.Each(func(k, v string) { out[k] = append(out[k], v) })
	return out
}

// TestHeaderPinnedBytes: a Header's bytes are the encoding AppendHeader wrote
// for a net/http header before Header was one type, so the wire, the disk
// tier's records and the manifests read as they did. The literals were
// captured from that AppendHeader; the long ones by their SHA-256.
func TestHeaderPinnedBytes(t *testing.T) {
	many := http.Header{}
	for i := 0; i < 130; i++ {
		many[fmt.Sprintf("X-K%03d", i)] = []string{"v"}
	}
	for _, c := range []struct {
		h    http.Header
		want string
	}{
		{nil, "00"},
		{http.Header{"Content-Type": {"text/html"}}, "010c436f6e74656e742d547970650109746578742f68746d6c"},
		{
			http.Header{"Cache-Control": {"max-age=60"}, "Content-Type": {"text/html; charset=utf-8"}, "Etag": {`"v1"`}, "Set-Cookie": {"a=1", "b=2"}},
			"040d43616368652d436f6e74726f6c010a6d61782d6167653d36300c436f6e74656e742d547970650118746578742f68746d6c3b20636861727365743d7574662d3804457461670104227631220a5365742d436f6f6b69650203613d3103623d32",
		},
		{
			http.Header{"X-Long": {strings.Repeat("a", 200)}, "x-lower": {""}, "X-Empty": {}},
			"0307582d456d7074790006582d4c6f6e6701c801" + strings.Repeat("61", 200) + "07782d6c6f7765720100",
		},
		{many, "sha256:26e94bf43a4a2abc6d203d51a877720a2d7c2b1d1be863f822013778a5dbbc5a"},
	} {
		h := FromHTTPHeader(c.h)
		enc := AppendHeader(nil, h)
		got := hex.EncodeToString(enc)
		if strings.HasPrefix(c.want, "sha256:") {
			sum := sha256.Sum256(enc)
			got = "sha256:" + hex.EncodeToString(sum[:])
		}
		if got != c.want {
			t.Errorf("header %v encodes to %s, want %s", c.h, got, c.want)
		}
		back, err := ReadHeader(wire.NewReader(enc))
		if err != nil || back != h {
			t.Errorf("header %v reads back as %v, %v", c.h, httpHeader(back), err)
		}
		// Built field by field in any order, a header with canonical keys has
		// the same bytes.
		var built Header
		keys := reflect.ValueOf(c.h).MapKeys()
		rand.New(rand.NewSource(int64(len(keys)))).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		canonical := true
		for _, k := range keys {
			key := k.String()
			canonical = canonical && http.CanonicalHeaderKey(key) == key && len(c.h[key]) > 0
			for _, v := range c.h[key] {
				built.Add(key, v)
			}
		}
		if canonical && built != h {
			t.Errorf("header %v built by Add encodes to %x, want %x", c.h, AppendHeader(nil, built), enc)
		}
	}
}

// TestHeaderMatchesHTTPHeader drives a Header and a net/http header through
// the same seeded writes and requires the two to read alike after each, and
// a copy taken before a write to read as it did.
func TestHeaderMatchesHTTPHeader(t *testing.T) {
	keys := []string{"Accept", "cache-control", "Content-Type", "ETAG", "X-A", "x-z", "Set-Cookie", "Vary"}
	rng := rand.New(rand.NewSource(57))
	var h Header
	model := http.Header{}
	for step := 0; step < 2000; step++ {
		k := keys[rng.Intn(len(keys))]
		v := strings.Repeat("v", rng.Intn(3)) + fmt.Sprint(step)
		before, beforeModel := h, httpHeader(h)
		switch rng.Intn(4) {
		case 0:
			h.Set(k, v)
			model.Set(k, v)
		case 1, 2:
			h.Add(k, v)
			model.Add(k, v)
		default:
			h.Del(k)
			model.Del(k)
		}
		if !reflect.DeepEqual(httpHeader(before), beforeModel) {
			t.Fatalf("step %d: a write reached a copy taken before it", step)
		}
		if len(model) == 0 && h != (Header{}) {
			t.Fatalf("step %d: an emptied header is not the zero Header", step)
		}
		if !reflect.DeepEqual(httpHeader(h), model) {
			t.Fatalf("step %d: header %v, net/http %v", step, httpHeader(h), model)
		}
		for _, k := range keys {
			_, has := model[http.CanonicalHeaderKey(k)]
			if h.Get(k) != model.Get(k) || !reflect.DeepEqual(h.Values(k), model.Values(k)) || h.Has(k) != has {
				t.Fatalf("step %d: key %q reads %q %q %v, net/http %q %q %v", step, k, h.Get(k), h.Values(k), h.Has(k), model.Get(k), model.Values(k), has)
			}
		}
		if again := FromHTTPHeader(model); len(model) > 0 && again != h {
			t.Fatalf("step %d: the same fields from net/http encode to %x, Header holds %x", step, again.enc, h.enc)
		}
	}
}

// TestReadHeaderRefusesUnsortedKeys: every encoder writes a header's keys in
// ascending order, which lookups rely on, so bytes with a key out of order
// or repeated are malformed.
func TestReadHeaderRefusesUnsortedKeys(t *testing.T) {
	for _, enc := range [][]byte{
		{2, 1, 'B', 1, 1, 'x', 1, 'A', 1, 1, 'y'},
		{2, 1, 'A', 1, 1, 'x', 1, 'A', 1, 1, 'y'},
	} {
		if h, err := ReadHeader(wire.NewReader(enc)); err == nil {
			t.Errorf("ReadHeader(% x) = %v, want an error", enc, httpHeader(h))
		}
	}
}

// TestEachStampedIsEachOfTheStampedHeader: writing a header with a stamp
// gives the fields, in the order, that writing the header with the stamp's
// fields Set in it gives: a stamp key before, among, after and equal to the
// header's keys, and either side empty.
func TestEachStampedIsEachOfTheStampedHeader(t *testing.T) {
	header := func(kv ...string) (h Header) {
		for i := 0; i < len(kv); i += 2 {
			h.Add(kv[i], kv[i+1])
		}
		return h
	}
	base := header("Cache-Control", "max-age=60", "Content-Type", "text/html", "Set-Cookie", "a=1", "Set-Cookie", "b=2", "Zz", "last")
	for _, c := range []struct {
		name          string
		header, stamp Header
	}{
		{"empty both", Header{}, Header{}},
		{"empty stamp", base, Header{}},
		{"empty header", Header{}, header("X-Na-Kika-Node", "edge-1")},
		{"among", base, header("X-Na-Kika-Node", "edge-1")},
		{"two among", base, header("X-Na-Kika-Gen", "4", "X-Na-Kika-Node", "edge-1")},
		{"before all", base, header("Accept-Ranges", "bytes")},
		{"after all", base, header("Zzz", "after")},
		{"replaces", base, header("Set-Cookie", "c=3", "Content-Type", "text/plain")},
	} {
		var got, want []string
		c.header.eachStamped(&c.stamp, func(k, v string) { got = append(got, k+": "+v) })
		stamped := c.header
		c.stamp.Each(stamped.Set)
		stamped.Each(func(k, v string) { want = append(want, k+": "+v) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: eachStamped wrote %q, want %q", c.name, got, want)
		}
	}
}
