package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"
)

// field is one Append*/Reader pair applied to one value: enc appends it,
// dec reads it back and reports whether it matches.
type field struct {
	name string
	enc  func([]byte) []byte
	dec  func(*Reader) (ok bool, err error)
}

func uvarintField(v uint64) field {
	return field{"uvarint", func(b []byte) []byte { return AppendUvarint(b, v) },
		func(r *Reader) (bool, error) { got, err := r.Uvarint(); return got == v, err }}
}

func varintField(v int64) field {
	return field{"varint", func(b []byte) []byte { return AppendVarint(b, v) },
		func(r *Reader) (bool, error) { got, err := r.Varint(); return got == v, err }}
}

func stringField(v string) field {
	return field{"string", func(b []byte) []byte { return AppendString(b, v) },
		func(r *Reader) (bool, error) { got, err := r.String(); return got == v, err }}
}

func bytesField(v []byte) field {
	return field{"bytes", func(b []byte) []byte { return AppendBytes(b, v) },
		func(r *Reader) (bool, error) { got, err := r.Bytes(); return bytes.Equal(got, v), err }}
}

func copyBytesField(v []byte) field {
	return field{"copybytes", func(b []byte) []byte { return AppendBytes(b, v) },
		func(r *Reader) (bool, error) {
			got, err := r.CopyBytes()
			// An empty string copies out as nil, and a copy never aliases the payload.
			fresh := len(got) == 0 || &got[0] != &r.Buf[r.Off-len(got)]
			return bytes.Equal(got, v) && (len(v) > 0 || got == nil) && fresh, err
		}}
}

func rawField(v []byte) field {
	return field{"raw", func(b []byte) []byte { return AppendRaw(b, v) },
		func(r *Reader) (bool, error) { got, err := r.Raw(len(v)); return bytes.Equal(got, v), err }}
}

func boolField(v bool) field {
	return field{"bool", func(b []byte) []byte { return AppendBool(b, v) },
		func(r *Reader) (bool, error) { got, err := r.Bool(); return got == v, err }}
}

func byteField(v byte) field {
	return field{"byte", func(b []byte) []byte { return append(b, v) },
		func(r *Reader) (bool, error) { got, err := r.Byte(); return got == v, err }}
}

func timeField(v time.Time) field {
	return field{"time", func(b []byte) []byte { return AppendTime(b, v) },
		func(r *Reader) (bool, error) {
			got, err := r.Time()
			return got.Equal(v) && got.IsZero() == v.IsZero(), err
		}}
}

var roundTripFields = []field{
	uvarintField(0), uvarintField(127), uvarintField(128), uvarintField(math.MaxUint64),
	varintField(0), varintField(-1), varintField(math.MinInt64), varintField(math.MaxInt64),
	stringField(""), stringField("k"), stringField("nul \x00 and \xff bytes"), stringField(string(make([]byte, 300))),
	bytesField(nil), bytesField([]byte{}), bytesField([]byte{Magic}), bytesField(bytes.Repeat([]byte{7}, 200)),
	copyBytesField(nil), copyBytesField([]byte("copied")),
	rawField(nil), rawField([]byte("0123456789abcdef")),
	boolField(false), boolField(true),
	byteField(0), byteField(0xff),
	timeField(time.Time{}), timeField(time.Unix(0, 0)), timeField(time.Unix(0, -1)), timeField(time.Unix(1754600000, 123456789)),
}

// TestRoundTrip runs every Append*/Reader pair over its edge values, first
// each alone, then all of them back to back in one buffer (so a pair that
// consumed one byte too many or too few shifts every later field).
func TestRoundTrip(t *testing.T) {
	var all []byte
	for _, f := range roundTripFields {
		buf := f.enc(nil)
		r := NewReader(buf)
		if ok, err := f.dec(r); err != nil || !ok || r.Len() != 0 {
			t.Errorf("%s % x: ok=%v err=%v, %d bytes left over", f.name, buf, ok, err, r.Len())
		}
		all = f.enc(all)
	}
	r := NewReader(all)
	for i, f := range roundTripFields {
		if ok, err := f.dec(r); err != nil || !ok {
			t.Fatalf("field %d (%s) in sequence: ok=%v err=%v", i, f.name, ok, err)
		}
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes left after the sequence", r.Len())
	}
}

// TestTruncationIsMalformed cuts every encoding at every byte boundary
// short of its full length: the reader must answer ErrMalformed, not panic
// and not succeed.
func TestTruncationIsMalformed(t *testing.T) {
	for _, f := range roundTripFields {
		buf := f.enc(nil)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := f.dec(NewReader(buf[:cut])); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s % x cut to %d bytes: err = %v, want ErrMalformed", f.name, buf, cut, err)
			}
		}
	}
}

// TestLengthsBeyondThePayloadAreMalformed covers the bounds a hostile
// length prefix probes: longer than what is left, and past the int range.
func TestLengthsBeyondThePayloadAreMalformed(t *testing.T) {
	huge := AppendUvarint(nil, math.MaxUint64)
	over := append(AppendUvarint(nil, 5), 'a', 'b')
	overlong := bytes.Repeat([]byte{0x80}, 11) // a uvarint that never ends
	for _, buf := range [][]byte{huge, over, overlong} {
		if _, err := NewReader(buf).Bytes(); !errors.Is(err, ErrMalformed) {
			t.Errorf("Bytes(% x) = %v, want ErrMalformed", buf, err)
		}
		if _, err := NewReader(buf).String(); !errors.Is(err, ErrMalformed) {
			t.Errorf("String(% x) = %v, want ErrMalformed", buf, err)
		}
		if _, err := NewReader(buf).CopyBytes(); !errors.Is(err, ErrMalformed) {
			t.Errorf("CopyBytes(% x) = %v, want ErrMalformed", buf, err)
		}
	}
	for _, n := range []int{-1, 3, math.MaxInt} {
		if _, err := NewReader([]byte{1, 2}).Raw(n); !errors.Is(err, ErrMalformed) {
			t.Errorf("Raw(%d) of 2 bytes = %v, want ErrMalformed", n, err)
		}
	}
}

func TestPayload(t *testing.T) {
	for _, bad := range [][]byte{nil, {}, {1}, {0xff, Magic}, []byte("\x32\x7f\x03\x01\x01\x0arepForward")} {
		if _, err := Payload(bad); !errors.Is(err, ErrMalformed) {
			t.Errorf("Payload(% x) = %v, want ErrMalformed", bad, err)
		}
	}
	r, err := Payload(AppendString([]byte{Magic}, "site"))
	if err != nil {
		t.Fatal(err)
	}
	if s, err := r.String(); err != nil || s != "site" || r.Len() != 0 {
		t.Errorf("payload body = %q, %v, %d left", s, err, r.Len())
	}
	if r, err := Payload([]byte{Magic}); err != nil || r.Len() != 0 {
		t.Errorf("bare magic byte = %d left, %v; want an empty body", r.Len(), err)
	}
}

// FuzzReader drives every Reader method over arbitrary bytes in an order
// the input picks: no panic, no offset outside the buffer, and no error
// other than ErrMalformed.
func FuzzReader(f *testing.F) {
	var seed []byte
	for _, fl := range roundTripFields {
		seed = fl.enc(seed)
	}
	f.Add(seed, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, []byte{2, 3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{4, 5, 6})
	f.Add([]byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r := NewReader(data)
		for _, op := range ops {
			var err error
			switch op % 9 {
			case 0:
				_, err = r.Byte()
			case 1:
				_, err = r.Bool()
			case 2:
				_, err = r.Uvarint()
			case 3:
				_, err = r.Varint()
			case 4:
				_, err = r.Bytes()
			case 5:
				_, err = r.CopyBytes()
			case 6:
				_, err = r.String()
			case 7:
				_, err = r.Time()
			case 8:
				_, err = r.Raw(int(op) - 100)
			}
			if err != nil && !errors.Is(err, ErrMalformed) {
				t.Fatalf("op %d: error %v is not ErrMalformed", op%9, err)
			}
			if r.Off < 0 || r.Off > len(data) || r.Len() != len(data)-r.Off {
				t.Fatalf("op %d left the reader at offset %d of %d", op%9, r.Off, len(data))
			}
		}
		if pr, err := Payload(data); err == nil && (pr.Off != 1 || data[0] != Magic) {
			t.Fatalf("Payload accepted % x", data[:1])
		}
	})
}
