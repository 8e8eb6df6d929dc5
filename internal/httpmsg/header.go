package httpmsg

import (
	"net/textproto"
	"strings"

	"nakika/internal/wire"
)

// Header is a message's header fields as one immutable string: the bytes
// AppendHeader writes,
//
//	uvarint(nkeys) { str(key) uvarint(nvals) str(val)... }...
//
// with the keys in ascending byte order and each key's values in the order
// they arrived. It is the one form a header takes from the socket to the
// store: the client port and the upstream client build it from a message
// head in one allocation, the codecs append and read its bytes as they are,
// a cache and a manifest keep it, and a hit serves it without decoding.
// Its zero value is the empty header.
//
// The methods look a key up in canonical form, as net/http.Header's do. A
// write (Set, Add, Del) builds a new string and leaves every copy of the
// old value as it was, so a copy of a Header is a clone of it.
type Header struct {
	enc string // "" when there are no fields
}

// Get returns the first value of key, or "".
func (h Header) Get(key string) string {
	c, n, _ := h.seek(textproto.CanonicalMIMEHeaderKey(key))
	if n == 0 {
		return ""
	}
	return c.str()
}

// Values returns the values of key in order, or nil.
func (h Header) Values(key string) []string {
	c, n, _ := h.seek(textproto.CanonicalMIMEHeaderKey(key))
	if n == 0 {
		return nil
	}
	vs := make([]string, n)
	for i := range vs {
		vs[i] = c.str()
	}
	return vs
}

// Has reports whether h has a field named key.
func (h Header) Has(key string) bool {
	_, _, ok := h.seek(textproto.CanonicalMIMEHeaderKey(key))
	return ok
}

// Each calls f with each field of h: the keys in ascending order, each
// key's values in order.
func (h Header) Each(f func(key, value string)) {
	if h.enc == "" {
		return
	}
	c := hdrCursor{s: h.enc}
	for i := c.uvarint(); i > 0; i-- {
		k := c.str()
		for n := c.uvarint(); n > 0; n-- {
			f(k, c.str())
		}
	}
}

// eachStamped calls f as Each does for the header h would be with stamp's
// fields Set in it, without building that header: the keys of both in
// ascending order, and for a key both have, stamp's values alone. A nil
// stamp has no fields.
func (h Header) eachStamped(stamp *Header, f func(key, value string)) {
	var s hdrCursor
	left := 0
	if stamp != nil && stamp.enc != "" {
		s.s = stamp.enc
		left = s.uvarint()
	}
	// emit calls f with stamp's entries that sort before key (all that are
	// left when all is set) and reports whether stamp's next key is key.
	emit := func(key string, all bool) bool {
		for ; left > 0; left-- {
			at := s.off
			k := s.str()
			if !all && k >= key {
				s.off = at
				return k == key
			}
			for n := s.uvarint(); n > 0; n-- {
				f(k, s.str())
			}
		}
		return false
	}
	h.Each(func(k, v string) {
		if !emit(k, false) {
			f(k, v)
		}
	})
	emit("", true)
}

// Set replaces the values of key with value.
func (h *Header) Set(key, value string) { h.edit(key, value, editSet) }

// Add appends value to the values of key.
func (h *Header) Add(key, value string) { h.edit(key, value, editAdd) }

// Del removes the values of key.
func (h *Header) Del(key string) { h.edit(key, "", editDel) }

const (
	editSet = iota
	editAdd
	editDel
)

// edit rewrites h's encoding with key's entry set to value, value appended
// to it, or removed, in one new string.
func (h *Header) edit(key, value string, op int) {
	key = textproto.CanonicalMIMEHeaderKey(key)
	l := h.locate(key)
	switch {
	case op == editDel && !l.found:
		return
	case op == editDel:
		l.nkeys--
	case !l.found:
		l.nkeys++
	}
	if l.nkeys == 0 {
		h.enc = ""
		return
	}
	var small [512]byte
	b := wire.AppendUvarint(small[:0], uint64(l.nkeys))
	b = append(b, h.enc[l.body:l.start]...)
	if op != editDel {
		b = wire.AppendString(b, key)
		if op == editAdd && l.found {
			b = wire.AppendUvarint(b, uint64(l.nvals+1))
			b = append(b, h.enc[l.vals:l.end]...)
		} else {
			b = wire.AppendUvarint(b, 1)
		}
		b = wire.AppendString(b, value)
	}
	h.enc = string(append(b, h.enc[l.end:]...))
}

// location is where key's entry is in a header's encoding, which has nkeys
// entries from body on: the entry is the bytes [start, end) and its nvals
// values begin at vals. A missing key's span is the empty one where its
// entry would go.
type location struct {
	nkeys, body, start, vals, end, nvals int
	found                                bool
}

func (h Header) locate(key string) (l location) {
	if h.enc == "" {
		return l
	}
	c := hdrCursor{s: h.enc}
	l.nkeys = c.uvarint()
	l.body = c.off
	for i := 0; i < l.nkeys; i++ {
		at := c.off
		if k := c.str(); k >= key {
			if k == key {
				l.start, l.nvals, l.found = at, c.uvarint(), true
				l.vals = c.off
				c.skip(l.nvals)
				l.end = c.off
				return l
			}
			c.off = at
			break
		}
		c.skip(c.uvarint())
	}
	l.start, l.vals, l.end = c.off, c.off, c.off
	return l
}

// seek returns a cursor at the first value of key's entry and its value
// count, and whether h has the key.
func (h Header) seek(key string) (hdrCursor, int, bool) {
	l := h.locate(key)
	return hdrCursor{s: h.enc, off: l.vals}, l.nvals, l.found
}

// anyElement calls f on each non-empty element of the comma-separated lists
// in key's values, its blanks trimmed, and reports whether f returned true
// for one; it stops there.
func (h Header) anyElement(key string, f func(elem string) bool) bool {
	c, n, _ := h.seek(key)
	for ; n > 0; n-- {
		for v := c.str(); v != ""; {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if elem = strings.Trim(elem, " \t"); elem != "" && f(elem) {
				return true
			}
		}
	}
	return false
}

// hdrCursor walks a header's encoding, which every constructor of a Header
// has checked.
type hdrCursor struct {
	s   string
	off int
}

func (c *hdrCursor) uvarint() int {
	var v uint64
	for shift := 0; ; shift += 7 {
		b := c.s[c.off]
		c.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int(v)
		}
	}
}

func (c *hdrCursor) str() string {
	n := c.uvarint()
	c.off += n
	return c.s[c.off-n : c.off]
}

// skip moves past n values.
func (c *hdrCursor) skip(n int) {
	for ; n > 0; n-- {
		c.off += c.uvarint()
	}
}
