package script

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// sameBacking reports whether two binding lists share storage.
func sameBacking(a, b []binding) bool {
	return cap(a) > 0 && cap(b) > 0 && unsafe.SliceData(a[:cap(a)]) == unsafe.SliceData(b[:cap(b)])
}

// objectModel is the reference an Object is checked against: a map plus
// the first-insertion order of its keys.
type objectModel struct {
	vals  map[string]float64
	order []string
}

func (m *objectModel) set(k string, v float64) {
	if _, ok := m.vals[k]; !ok {
		m.order = append(m.order, k)
	}
	m.vals[k] = v
}

func (m *objectModel) remove(k string) {
	if _, ok := m.vals[k]; ok {
		delete(m.vals, k)
		m.order = slices.DeleteFunc(m.order, func(o string) bool { return o == k })
	}
}

// check compares o with the model through Get, Keys, Len and the index.
func (m *objectModel) check(t *testing.T, o *Object) {
	t.Helper()
	if got := o.Keys(); !slices.Equal(got, m.order) {
		t.Fatalf("keys %v, model %v", got, m.order)
	}
	if o.Len() != len(m.order) {
		t.Fatalf("len %d, model %d", o.Len(), len(m.order))
	}
	if (o.props.index != nil) != (len(m.order) > indexAfter) {
		t.Fatalf("%d keys, index built = %v", len(m.order), o.props.index != nil)
	}
	for _, k := range m.order {
		v, ok := o.Get(k)
		if !ok || float64(v.(Number)) != m.vals[k] {
			t.Fatalf("get %s = %v, %v; model %v", k, v, ok, m.vals[k])
		}
	}
}

// handedOut is a string a concatenation returned, with a copy of what it
// read then.
type handedOut struct{ s, want string }

// FuzzObjectModel runs random Set / Get / Delete / Keys / for-in / Fork
// sequences on an Object against a map-plus-order model, interleaved with
// string concatenation chains, Forks and Resets. It checks that every
// string a concatenation handed out still reads what it read when it was
// handed out, and that a fork shares no binding storage and no
// concatenation buffer with its parent.
func FuzzObjectModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 4, 1, 5, 6, 6, 6, 7, 6, 8, 2, 1, 3})
	f.Add([]byte("\x00\x01\x00\x02\x00\x03\x00\x04\x00\x05\x00\x06\x00\x07\x00\x08\x00\x09\x00\x0a\x00\x0b\x00\x0c\x00\x0d\x00\x0e\x00\x0f\x00\x10\x00\x11\x00\x12\x02\x05\x03\x05\x06\x06\x06\x08\x06\x06\x09\x06"))
	f.Add([]byte("\x06\x00\x06\x01\x06\x02\x06\x00\x06\x03\x08\x06\x00\x07\x06\x01\x06\x04\x08\x06\x05"))
	forIn, err := Parse(`var seen = ""; for (var k in obj) { seen += k + ","; } seen`, "forin.js")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		ctx := NewContext(Limits{})
		obj := NewObject()
		ctx.DefineGlobal("obj", obj)
		model := &objectModel{vals: map[string]float64{}}
		var strs []handedOut
		arg := func(i int) byte {
			if i < len(ops) {
				return ops[i]
			}
			return 0
		}
		checkStrings := func() {
			t.Helper()
			for _, h := range strs {
				if h.s != h.want {
					t.Fatalf("a handed-out string changed: %q, was %q", h.s, h.want)
				}
			}
		}
		// pick returns the operand a concatenation extends: mostly the
		// latest result, so chains form, else an earlier one or a fresh
		// literal.
		pick := func(b byte) string {
			switch {
			case len(strs) == 0 || b%8 == 7:
				return fmt.Sprintf("lit%d", b)
			case b%2 == 0:
				return strs[len(strs)-1].s
			default:
				return strs[int(b)%len(strs)].s
			}
		}
		for i := 0; i < len(ops); i += 2 {
			a := arg(i + 1)
			key := fmt.Sprintf("k%d", a%40)
			switch ops[i] % 9 {
			case 0:
				obj.Set(key, Number(float64(i)))
				model.set(key, float64(i))
			case 1:
				v, ok := obj.Get(key)
				want, wok := model.vals[key]
				if ok != wok || ok && float64(v.(Number)) != want {
					t.Fatalf("get %s = %v, %v; model %v, %v", key, v, ok, want, wok)
				}
			case 2:
				obj.Delete(key)
				model.remove(key)
			case 3:
				model.check(t, obj)
			case 4:
				v, err := ctx.Run(forIn)
				if err != nil {
					t.Fatal(err)
				}
				want := ""
				for _, k := range model.order {
					want += k + ","
				}
				if got := ToString(v); got != want {
					t.Fatalf("for-in saw %q, model %q", got, want)
				}
			case 5:
				fork, roots := ctx.Fork(obj)
				dup := roots[0].(*Object)
				if g, _ := fork.Global("obj"); g != dup || dup == obj {
					t.Fatal("fork did not translate the object root to its own copy")
				}
				model.check(t, dup)
				if sameBacking(dup.props.list, obj.props.list) || sameBacking(fork.Globals.vars.list, ctx.Globals.vars.list) {
					t.Fatal("fork shares binding storage with its parent")
				}
				if dup.props.index != nil && reflect.ValueOf(dup.props.index).UnsafePointer() == reflect.ValueOf(obj.props.index).UnsafePointer() {
					t.Fatal("fork shares a binding index with its parent")
				}
				for j := range fork.concatBufs {
					if fork.concatBufs[j].buf != nil {
						t.Fatal("fork holds a concatenation buffer")
					}
				}
				// The fork extends a parent's string, then writes over every
				// binding it has: the parent sees neither.
				if len(strs) > 0 {
					s := strs[len(strs)-1].s
					got, err := fork.applyBinary("+", String(s), String("fork"), 0, 0)
					if err != nil || string(got.(String)) != s+"fork" {
						t.Fatalf("fork concat = %v, %v", got, err)
					}
				}
				for _, k := range dup.Keys() {
					dup.Set(k, Number(-1))
				}
				dup.Set("forked", Number(-1))
				model.check(t, obj)
			case 6:
				left := pick(a)
				piece := strings.Repeat(string(rune('a'+a%26)), 1+int(a)%37)
				got, err := ctx.applyBinary("+", String(left), String(piece), 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				s := string(got.(String))
				if want := left + piece; s != want {
					t.Fatalf("concat = %q, want %q", s, want)
				}
				strs = append(strs, handedOut{s, strings.Clone(s)})
				if len(strs) > 64 {
					strs = strs[len(strs)-64:]
				}
			case 7:
				ctx.Reset()
				for j := range ctx.concatBufs {
					if ctx.concatBufs[j].buf != nil {
						t.Fatal("Reset kept a concatenation buffer")
					}
				}
			case 8:
				// Numbers and other non-strings on the left start a result
				// of their own.
				got, err := ctx.applyBinary("+", Number(a), String(pick(a)), 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				s := string(got.(String))
				strs = append(strs, handedOut{s, strings.Clone(s)})
			}
			checkStrings()
		}
		model.check(t, obj)
	})
}

// TestConcatExtendsInPlace is the invariant behind concat.go's unsafe: a
// page built by repeated += extends one buffer (amortized, well under one
// allocation per step), yet no string handed out earlier ever changes, even
// when an older result is extended a second way after a newer one was built
// on it.
func TestConcatExtendsInPlace(t *testing.T) {
	ctx := NewContext(Limits{})
	plus := func(a, b string) string {
		t.Helper()
		v, err := ctx.applyBinary("+", String(a), String(b), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return string(v.(String))
	}
	// "<html><body>" takes a 16-byte size class: room for "<p>" in place.
	base := plus("<html>", "<body>")
	first := plus(base, "<p>")
	if unsafe.StringData(first) != unsafe.StringData(base) {
		t.Error("extending the latest result did not extend its buffer")
	}
	// base is no longer its buffer's used prefix, though the buffer still
	// has room: this must copy, not write over the "<p>" first reads.
	second := plus(base, "<b>")
	if first != "<html><body><p>" || second != "<html><body><b>" || base != "<html><body>" {
		t.Fatalf("branching from an old result wrote over a handed-out string: %q %q %q", base, first, second)
	}

	page := "<html>"
	allocs := testing.AllocsPerRun(200, func() {
		page = ctx.concat(page, "<div class='narrative'>a paragraph</div>")
	})
	if allocs >= 0.1 {
		t.Errorf("html += piece costs %.2f allocs per step, want amortized growth", allocs)
	}

	// Reset drops the buffers: the next result starts a buffer of its own.
	before := page
	ctx.Reset()
	after := plus(page, "tail")
	if unsafe.StringData(after) == unsafe.StringData(page) || page != before {
		t.Error("a reset context extended a buffer from before the reset")
	}

	// A fork holds no buffer: extending a string its parent built copies.
	fork, _ := ctx.Fork()
	v, err := fork.applyBinary("+", String(after), String("!"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(v.(String)); unsafe.StringData(s) == unsafe.StringData(after) || s != after+"!" {
		t.Error("a fork extended its parent's buffer")
	}
	if again := plus(after, "?"); again != before+"tail?" || after != before+"tail" {
		t.Errorf("parent's results after the fork: %q, %q", again, after)
	}
}
