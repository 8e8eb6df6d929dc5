package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types of NKScript values.
type Kind int

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
	KindArray
	KindFunction
	KindNative
	KindByteArray
)

func (k Kind) String() string {
	switch k {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		return "object"
	case KindArray:
		return "array"
	case KindFunction, KindNative:
		return "function"
	case KindByteArray:
		return "bytearray"
	default:
		return "unknown"
	}
}

// Value is the interface implemented by every NKScript runtime value.
type Value interface {
	Kind() Kind
}

// Undefined is the undefined value.
type Undefined struct{}

// Null is the null value.
type Null struct{}

// Bool is a boolean value.
type Bool bool

// Number is a 64-bit floating point value (NKScript numbers, like
// JavaScript's, are all float64).
type Number float64

// String is an immutable string value.
type String string

func (Undefined) Kind() Kind { return KindUndefined }
func (Null) Kind() Kind      { return KindNull }
func (Bool) Kind() Kind      { return KindBool }
func (Number) Kind() Kind    { return KindNumber }
func (String) Kind() Kind    { return KindString }

// Object is a mutable property map. Property insertion order is preserved so
// for-in iteration and policy-object introspection are deterministic.
type Object struct {
	props bindings
	// ClassName is a debugging label set by native constructors (for example
	// "Policy" or "ByteArray wrapper").
	ClassName string
}

// NewObject returns an empty object.
func NewObject() *Object { return &Object{} }

// Kind implements Value.
func (o *Object) Kind() Kind { return KindObject }

// Get returns the named property and whether it exists. A Getter's
// property reads as what the Getter returns.
func (o *Object) Get(name string) (Value, bool) {
	v, ok := o.props.get(name)
	if g, isGetter := v.(Getter); isGetter {
		return g(), true
	}
	return v, ok
}

// Set stores a property, preserving first-insertion order for iteration.
func (o *Object) Set(name string, v Value) { o.props.set(name, v) }

// Delete removes a property.
func (o *Object) Delete(name string) { o.props.remove(name) }

// Clear removes every property, keeping the storage for the next ones.
func (o *Object) Clear() {
	clear(o.props.list)
	o.props.list = o.props.list[:0]
	o.props.index = nil
}

// Keys returns the property names in insertion order.
func (o *Object) Keys() []string { return o.props.names() }

// Len returns the number of properties.
func (o *Object) Len() int { return len(o.props.list) }

// Getter is a property computed when it is read: Object.Get, and so a
// script's read of the property, returns what it returns, and never the
// Getter itself. A vocabulary binds a host object's fields this way, so a
// field costs nothing until a script reads it. Assigning the property
// replaces the Getter with the value.
type Getter func() Value

// Kind implements Value; no script sees a Getter.
func (Getter) Kind() Kind { return KindUndefined }

// Array is a mutable, growable sequence of values.
type Array struct {
	Elems []Value
}

// NewArray returns an array with the given elements.
func NewArray(elems ...Value) *Array { return &Array{Elems: elems} }

// Kind implements Value.
func (a *Array) Kind() Kind { return KindArray }

// Len returns the number of elements.
func (a *Array) Len() int { return len(a.Elems) }

// Function is a script-defined function closing over its defining
// environment.
type Function struct {
	Lit *FunctionLit // the parsed function: name, parameters and body
	Env *Env
	Ctx *Context // the context the function was created in
}

// Kind implements Value.
func (f *Function) Kind() Kind { return KindFunction }

// NativeFunc is the signature of built-in functions exposed to scripts by
// vocabularies. The this argument is the receiver for method-style calls and
// Undefined otherwise.
type NativeFunc func(ctx *Context, this Value, args []Value) (Value, error)

// Native wraps a Go function as a callable script value. Construct, when
// non-nil, is invoked for new expressions; otherwise new falls back to Fn
// with a fresh empty object as this.
type Native struct {
	Name      string
	Fn        NativeFunc
	Construct NativeFunc
}

// Kind implements Value.
func (n *Native) Kind() Kind { return KindNative }

// ByteArray is NKScript's core binary data type, added (as in the paper's
// SpiderMonkey modification) to avoid copying message bodies between the
// runtime and the scripting engine. The underlying buffer is shared between
// the host and the script. A body another response shares is the exception:
// the callers of one coalesced fetch share its bytes, so the vocabulary
// copies them (httpmsg.Response.Materialize) before a script sees them, and
// a script's writes reach only its own response.
type ByteArray struct {
	Data []byte
}

// NewByteArray wraps data without copying it.
func NewByteArray(data []byte) *ByteArray { return &ByteArray{Data: data} }

// Kind implements Value.
func (b *ByteArray) Kind() Kind { return KindByteArray }

// Append appends other's bytes to b.
func (b *ByteArray) Append(other []byte) { b.Data = append(b.Data, other...) }

// Len returns the byte length.
func (b *ByteArray) Len() int { return len(b.Data) }

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

// Truthy reports whether v is truthy under JavaScript rules.
func Truthy(v Value) bool {
	switch t := v.(type) {
	case Undefined, Null:
		return false
	case Bool:
		return bool(t)
	case Number:
		return float64(t) != 0 && !math.IsNaN(float64(t))
	case String:
		return len(t) > 0
	case *ByteArray:
		return true
	default:
		return true
	}
}

// ToNumber converts v to a number following JavaScript coercion rules
// (undefined → NaN, null → 0, strings parsed as decimal).
func ToNumber(v Value) float64 {
	switch t := v.(type) {
	case Number:
		return float64(t)
	case Bool:
		if t {
			return 1
		}
		return 0
	case String:
		s := strings.TrimSpace(string(t))
		if s == "" {
			return 0
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case Null:
		return 0
	case *Array:
		if len(t.Elems) == 1 {
			return ToNumber(t.Elems[0])
		}
		if len(t.Elems) == 0 {
			return 0
		}
		return math.NaN()
	case *ByteArray:
		return float64(len(t.Data))
	default:
		return math.NaN()
	}
}

// ToString converts v to its string representation following JavaScript
// rules for primitives; objects render as a JSON-ish literal for debugging.
func ToString(v Value) string {
	switch t := v.(type) {
	case Undefined:
		return "undefined"
	case Null:
		return "null"
	case Bool:
		if t {
			return "true"
		}
		return "false"
	case Number:
		return formatNumber(float64(t))
	case String:
		return string(t)
	case *ByteArray:
		return string(t.Data)
	case *Array:
		parts := make([]string, len(t.Elems))
		for i, e := range t.Elems {
			if e == nil || e.Kind() == KindUndefined || e.Kind() == KindNull {
				parts[i] = ""
			} else {
				parts[i] = ToString(e)
			}
		}
		return strings.Join(parts, ",")
	case *Object:
		return "[object Object]"
	case *Function:
		if t.Lit.Name != "" {
			return "function " + t.Lit.Name + "() { ... }"
		}
		return "function () { ... }"
	case *Native:
		return "function " + t.Name + "() { [native code] }"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// formatNumber renders a float64 the way JavaScript's Number#toString does
// for the common cases (integral values without a decimal point).
func formatNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e21 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ToInt converts v to an int via ToNumber, truncating toward zero. NaN and
// infinities convert to 0.
func ToInt(v Value) int {
	f := ToNumber(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int(f)
}

// TypeOf returns the typeof string for a value.
func TypeOf(v Value) string {
	switch v.(type) {
	case Undefined:
		return "undefined"
	case Null:
		return "object"
	case Bool:
		return "boolean"
	case Number:
		return "number"
	case String:
		return "string"
	case *Function, *Native:
		return "function"
	default:
		return "object"
	}
}

// StrictEquals implements the === operator.
func StrictEquals(a, b Value) bool {
	if a == nil {
		a = Undefined{}
	}
	if b == nil {
		b = Undefined{}
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case Undefined, Null:
		return true
	case Bool:
		return x == b.(Bool)
	case Number:
		fa, fb := float64(x), float64(b.(Number))
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return false
		}
		return fa == fb
	case String:
		return x == b.(String)
	default:
		return a == b // reference equality for objects, arrays, functions, byte arrays
	}
}

// LooseEquals implements the == operator with the subset of JavaScript's
// coercion rules NKScript supports: null == undefined, number/string/bool
// cross-coercion via ToNumber, and reference equality for objects.
func LooseEquals(a, b Value) bool {
	if a == nil {
		a = Undefined{}
	}
	if b == nil {
		b = Undefined{}
	}
	ka, kb := a.Kind(), b.Kind()
	if ka == kb {
		return StrictEquals(a, b)
	}
	nullish := func(k Kind) bool { return k == KindUndefined || k == KindNull }
	if nullish(ka) && nullish(kb) {
		return true
	}
	if nullish(ka) || nullish(kb) {
		return false
	}
	// ByteArray / string comparison compares contents, which scripts rely on
	// when comparing bodies to literals.
	if ka == KindByteArray && kb == KindString {
		return string(a.(*ByteArray).Data) == string(b.(String))
	}
	if ka == KindString && kb == KindByteArray {
		return string(a.(String)) == string(b.(*ByteArray).Data)
	}
	prim := func(k Kind) bool { return k == KindBool || k == KindNumber || k == KindString }
	if prim(ka) && prim(kb) {
		na, nb := ToNumber(a), ToNumber(b)
		if math.IsNaN(na) || math.IsNaN(nb) {
			return false
		}
		return na == nb
	}
	return a == b
}

// Convenience constructors used widely by vocabularies.

// Num wraps a float64 as a Number value.
func Num(f float64) Value { return Number(f) }

// Int wraps an int as a Number value.
func Int(i int) Value { return Number(float64(i)) }

// Str wraps a string as a String value.
func Str(s string) Value { return String(s) }

// Boolean wraps a bool as a Bool value.
func Boolean(b bool) Value { return Bool(b) }

// NullValue returns the null value.
func NullValue() Value { return Null{} }

// IsNullish reports whether v is null or undefined (or a nil interface).
func IsNullish(v Value) bool {
	if v == nil {
		return true
	}
	k := v.Kind()
	return k == KindUndefined || k == KindNull
}

// Callable reports whether v can be invoked.
func Callable(v Value) bool {
	switch v.(type) {
	case *Function, *Native:
		return true
	default:
		return false
	}
}
