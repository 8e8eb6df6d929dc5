package script

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// installBuiltins populates a fresh context's global environment with the
// built-in constructors and utility objects available to every script.
func installBuiltins(ctx *Context) {
	g := ctx.Globals

	// ByteArray constructor: new ByteArray(), new ByteArray(size),
	// new ByteArray(string).
	g.Define("ByteArray", &Native{
		Name: "ByteArray",
		Construct: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return NewByteArray(nil), nil
			}
			switch a := args[0].(type) {
			case Number:
				n := ToInt(a)
				if n < 0 {
					n = 0
				}
				if err := c.chargeHeap(n); err != nil {
					return nil, err
				}
				return NewByteArray(make([]byte, n)), nil
			case String:
				if err := c.chargeHeap(len(a)); err != nil {
					return nil, err
				}
				return NewByteArray([]byte(a)), nil
			case *ByteArray:
				if err := c.chargeHeap(len(a.Data)); err != nil {
					return nil, err
				}
				cp := make([]byte, len(a.Data))
				copy(cp, a.Data)
				return NewByteArray(cp), nil
			default:
				return NewByteArray(nil), nil
			}
		},
		Fn: func(c *Context, this Value, args []Value) (Value, error) {
			return NewByteArray(nil), nil
		},
	})

	// Math object.
	mathObj := NewObject()
	mathObj.ClassName = "Math"
	mathObj.Set("PI", Number(math.Pi))
	mathObj.Set("E", Number(math.E))
	defineMathFn := func(name string, fn func(float64) float64) {
		mathObj.Set(name, &Native{Name: "Math." + name, Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(math.NaN()), nil
			}
			return Number(fn(ToNumber(args[0]))), nil
		}})
	}
	defineMathFn("floor", math.Floor)
	defineMathFn("ceil", math.Ceil)
	defineMathFn("round", func(f float64) float64 { return math.Floor(f + 0.5) })
	defineMathFn("abs", math.Abs)
	defineMathFn("sqrt", math.Sqrt)
	defineMathFn("log", math.Log)
	defineMathFn("exp", math.Exp)
	mathObj.Set("pow", &Native{Name: "Math.pow", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Number(math.NaN()), nil
		}
		return Number(math.Pow(ToNumber(args[0]), ToNumber(args[1]))), nil
	}})
	mathObj.Set("min", &Native{Name: "Math.min", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		m := math.Inf(1)
		for _, a := range args {
			if f := ToNumber(a); f < m {
				m = f
			}
		}
		return Number(m), nil
	}})
	mathObj.Set("max", &Native{Name: "Math.max", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		m := math.Inf(-1)
		for _, a := range args {
			if f := ToNumber(a); f > m {
				m = f
			}
		}
		return Number(m), nil
	}})
	g.Define("Math", mathObj)

	// JSON object with stringify and parse.
	jsonObj := NewObject()
	jsonObj.ClassName = "JSON"
	jsonObj.Set("stringify", &Native{Name: "JSON.stringify", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Undefined{}, nil
		}
		s, err := jsonStringify(args[0], 0)
		if err != nil {
			return nil, err
		}
		if err := c.chargeHeap(len(s)); err != nil {
			return nil, err
		}
		return String(s), nil
	}})
	jsonObj.Set("parse", &Native{Name: "JSON.parse", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, ThrowString("JSON.parse: missing argument")
		}
		v, err := jsonParse(ToString(args[0]))
		if err != nil {
			return nil, ThrowString("JSON.parse: " + err.Error())
		}
		return v, nil
	}})
	g.Define("JSON", jsonObj)

	// Top-level numeric utilities.
	g.Define("parseInt", &Native{Name: "parseInt", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(math.NaN()), nil
		}
		s := strings.TrimSpace(ToString(args[0]))
		base := 10
		if len(args) > 1 {
			if b := ToInt(args[1]); b != 0 {
				base = b
			}
		}
		// Trim trailing non-digits as parseInt does.
		end := 0
		neg := false
		if end < len(s) && (s[end] == '+' || s[end] == '-') {
			neg = s[end] == '-'
			end++
		}
		start := end
		for end < len(s) {
			c := s[end]
			var d int
			switch {
			case c >= '0' && c <= '9':
				d = int(c - '0')
			case c >= 'a' && c <= 'z':
				d = int(c-'a') + 10
			case c >= 'A' && c <= 'Z':
				d = int(c-'A') + 10
			default:
				d = 99
			}
			if d >= base {
				break
			}
			end++
		}
		if end == start {
			return Number(math.NaN()), nil
		}
		v, err := strconv.ParseInt(s[start:end], base, 64)
		if err != nil {
			return Number(math.NaN()), nil
		}
		if neg {
			v = -v
		}
		return Number(float64(v)), nil
	}})
	g.Define("parseFloat", &Native{Name: "parseFloat", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(math.NaN()), nil
		}
		s := strings.TrimSpace(ToString(args[0]))
		end := 0
		seenDot, seenExp := false, false
		for end < len(s) {
			c := s[end]
			if c >= '0' && c <= '9' {
				end++
				continue
			}
			if (c == '+' || c == '-') && (end == 0 || s[end-1] == 'e' || s[end-1] == 'E') {
				end++
				continue
			}
			if c == '.' && !seenDot && !seenExp {
				seenDot = true
				end++
				continue
			}
			if (c == 'e' || c == 'E') && !seenExp && end > 0 {
				seenExp = true
				end++
				continue
			}
			break
		}
		if end == 0 {
			return Number(math.NaN()), nil
		}
		f, err := strconv.ParseFloat(s[:end], 64)
		if err != nil {
			return Number(math.NaN()), nil
		}
		return Number(f), nil
	}})
	g.Define("isNaN", &Native{Name: "isNaN", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Bool(true), nil
		}
		return Bool(math.IsNaN(ToNumber(args[0]))), nil
	}})
	g.Define("isFinite", &Native{Name: "isFinite", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Bool(false), nil
		}
		f := ToNumber(args[0])
		return Bool(!math.IsNaN(f) && !math.IsInf(f, 0)), nil
	}})
	g.Define("String", &Native{Name: "String", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return String(""), nil
		}
		return String(ToString(args[0])), nil
	}})
	g.Define("Number", &Native{Name: "Number", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(0), nil
		}
		return Number(ToNumber(args[0])), nil
	}})
	g.Define("Boolean", &Native{Name: "Boolean", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Bool(false), nil
		}
		return Bool(Truthy(args[0])), nil
	}})
	g.Define("Array", &Native{
		Name: "Array",
		Construct: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 1 && args[0].Kind() == KindNumber {
				n := ToInt(args[0])
				elems := make([]Value, n)
				for i := range elems {
					elems[i] = Undefined{}
				}
				return &Array{Elems: elems}, nil
			}
			return NewArray(slices.Clone(args)...), nil
		},
		Fn: func(c *Context, this Value, args []Value) (Value, error) {
			return NewArray(slices.Clone(args)...), nil
		},
	})
	g.Define("Object", &Native{
		Name:      "Object",
		Construct: func(c *Context, this Value, args []Value) (Value, error) { return NewObject(), nil },
		Fn:        func(c *Context, this Value, args []Value) (Value, error) { return NewObject(), nil },
	})
	g.Define("Error", &Native{
		Name: "Error",
		Construct: func(c *Context, this Value, args []Value) (Value, error) {
			o := NewObject()
			o.ClassName = "Error"
			if len(args) > 0 {
				o.Set("message", String(ToString(args[0])))
			} else {
				o.Set("message", String(""))
			}
			return o, nil
		},
		Fn: func(c *Context, this Value, args []Value) (Value, error) {
			o := NewObject()
			o.ClassName = "Error"
			if len(args) > 0 {
				o.Set("message", String(ToString(args[0])))
			}
			return o, nil
		},
	})

	// RegExp constructor exposing test/exec/replace over Go's regexp
	// package. JavaScript regular-expression syntax is close enough to RE2
	// for the patterns that appear in policy scripts.
	g.Define("RegExp", &Native{
		Name: "RegExp",
		Construct: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return nil, ThrowString("RegExp: missing pattern")
			}
			pattern := ToString(args[0])
			flags := ""
			if len(args) > 1 {
				flags = ToString(args[1])
			}
			return newRegExpObject(pattern, flags)
		},
		Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return nil, ThrowString("RegExp: missing pattern")
			}
			flags := ""
			if len(args) > 1 {
				flags = ToString(args[1])
			}
			return newRegExpObject(ToString(args[0]), flags)
		},
	})
}

// newRegExpObject compiles pattern and wraps it as a script object with
// test, exec, and replace methods.
func newRegExpObject(pattern, flags string) (Value, error) {
	goPattern := pattern
	if strings.Contains(flags, "i") {
		goPattern = "(?i)" + goPattern
	}
	re, err := regexp.Compile(goPattern)
	if err != nil {
		return nil, ThrowString("RegExp: invalid pattern: " + err.Error())
	}
	obj := NewObject()
	obj.ClassName = "RegExp"
	obj.Set("source", String(pattern))
	obj.Set("flags", String(flags))
	obj.Set("test", &Native{Name: "RegExp.test", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Bool(false), nil
		}
		return Bool(re.MatchString(ToString(args[0]))), nil
	}})
	obj.Set("exec", &Native{Name: "RegExp.exec", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Null{}, nil
		}
		m := re.FindStringSubmatch(ToString(args[0]))
		if m == nil {
			return Null{}, nil
		}
		arr := &Array{}
		for _, g := range m {
			arr.Elems = append(arr.Elems, String(g))
		}
		return arr, nil
	}})
	obj.Set("replace", &Native{Name: "RegExp.replace", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Undefined{}, nil
		}
		global := strings.Contains(flags, "g")
		src := ToString(args[0])
		repl := ToString(args[1])
		// Translate $1-style references to Go's ${1}.
		repl = regexp.MustCompile(`\$(\d+)`).ReplaceAllString(repl, "${$1}")
		if global {
			return String(re.ReplaceAllString(src, repl)), nil
		}
		done := false
		out := re.ReplaceAllStringFunc(src, func(m string) string {
			if done {
				return m
			}
			done = true
			idx := re.FindStringSubmatchIndex(src)
			return string(re.ExpandString(nil, repl, src, idx))
		})
		return String(out), nil
	}})
	return obj, nil
}

// ---------------------------------------------------------------------------
// String methods
// ---------------------------------------------------------------------------

func stringMethod(s String, name string) Value {
	str := string(s)
	switch name {
	case "charAt":
		return &Native{Name: "String.charAt", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				i = ToInt(args[0])
			}
			if i < 0 || i >= len(str) {
				return String(""), nil
			}
			return String(string(str[i])), nil
		}}
	case "charCodeAt":
		return &Native{Name: "String.charCodeAt", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				i = ToInt(args[0])
			}
			if i < 0 || i >= len(str) {
				return Number(math.NaN()), nil
			}
			return Number(float64(str[i])), nil
		}}
	case "indexOf":
		return &Native{Name: "String.indexOf", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			return Number(float64(strings.Index(str, ToString(args[0])))), nil
		}}
	case "lastIndexOf":
		return &Native{Name: "String.lastIndexOf", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			return Number(float64(strings.LastIndex(str, ToString(args[0])))), nil
		}}
	case "substring":
		return &Native{Name: "String.substring", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			start, end := 0, len(str)
			if len(args) > 0 {
				start = clamp(ToInt(args[0]), 0, len(str))
			}
			if len(args) > 1 {
				end = clamp(ToInt(args[1]), 0, len(str))
			}
			if start > end {
				start, end = end, start
			}
			return String(str[start:end]), nil
		}}
	case "substr":
		return &Native{Name: "String.substr", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			start := 0
			if len(args) > 0 {
				start = ToInt(args[0])
			}
			if start < 0 {
				start = len(str) + start
				if start < 0 {
					start = 0
				}
			}
			start = clamp(start, 0, len(str))
			length := len(str) - start
			if len(args) > 1 {
				length = ToInt(args[1])
			}
			end := clamp(start+length, start, len(str))
			return String(str[start:end]), nil
		}}
	case "slice":
		return &Native{Name: "String.slice", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			start, end := 0, len(str)
			if len(args) > 0 {
				start = sliceIndex(ToInt(args[0]), len(str))
			}
			if len(args) > 1 {
				end = sliceIndex(ToInt(args[1]), len(str))
			}
			if start > end {
				return String(""), nil
			}
			return String(str[start:end]), nil
		}}
	case "toLowerCase":
		return &Native{Name: "String.toLowerCase", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			return String(strings.ToLower(str)), nil
		}}
	case "toUpperCase":
		return &Native{Name: "String.toUpperCase", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			return String(strings.ToUpper(str)), nil
		}}
	case "split":
		return &Native{Name: "String.split", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return NewArray(String(str)), nil
			}
			sep := ToString(args[0])
			var parts []string
			if sep == "" {
				for _, ch := range str {
					parts = append(parts, string(ch))
				}
			} else {
				parts = strings.Split(str, sep)
			}
			arr := &Array{}
			for _, p := range parts {
				arr.Elems = append(arr.Elems, String(p))
			}
			return arr, nil
		}}
	case "replace":
		return &Native{Name: "String.replace", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) < 2 {
				return String(str), nil
			}
			// Pattern may be a string (replace first occurrence) or a RegExp
			// object created via new RegExp(...).
			if o, ok := args[0].(*Object); ok && o.ClassName == "RegExp" {
				replFn, _ := o.Get("replace")
				return c.callValue(replFn, o, []Value{String(str), args[1]}, 0, 0)
			}
			old, repl := ToString(args[0]), ToString(args[1])
			return String(strings.Replace(str, old, repl, 1)), nil
		}}
	case "trim":
		return &Native{Name: "String.trim", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			return String(strings.TrimSpace(str)), nil
		}}
	case "startsWith":
		return &Native{Name: "String.startsWith", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Bool(false), nil
			}
			return Bool(strings.HasPrefix(str, ToString(args[0]))), nil
		}}
	case "endsWith":
		return &Native{Name: "String.endsWith", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Bool(false), nil
			}
			return Bool(strings.HasSuffix(str, ToString(args[0]))), nil
		}}
	case "match":
		return &Native{Name: "String.match", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Null{}, nil
			}
			var pattern string
			if o, ok := args[0].(*Object); ok && o.ClassName == "RegExp" {
				src, _ := o.Get("source")
				pattern = ToString(src)
			} else {
				pattern = ToString(args[0])
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				return nil, ThrowString("match: invalid pattern: " + err.Error())
			}
			m := re.FindStringSubmatch(str)
			if m == nil {
				return Null{}, nil
			}
			arr := &Array{}
			for _, g := range m {
				arr.Elems = append(arr.Elems, String(g))
			}
			return arr, nil
		}}
	case "concat":
		return &Native{Name: "String.concat", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			out := str
			for _, a := range args {
				out += ToString(a)
			}
			if err := c.chargeHeap(len(out)); err != nil {
				return nil, err
			}
			return String(out), nil
		}}
	case "toString":
		return &Native{Name: "String.toString", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			return String(str), nil
		}}
	}
	return nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func sliceIndex(i, length int) int {
	if i < 0 {
		i = length + i
	}
	return clamp(i, 0, length)
}

// ---------------------------------------------------------------------------
// Array methods
// ---------------------------------------------------------------------------

func arrayMethod(a *Array, name string) Value {
	switch name {
	case "push":
		return &Native{Name: "Array.push", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if err := c.chargeHeap(16 * len(args)); err != nil {
				return nil, err
			}
			a.Elems = append(a.Elems, args...)
			return Number(float64(len(a.Elems))), nil
		}}
	case "pop":
		return &Native{Name: "Array.pop", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(a.Elems) == 0 {
				return Undefined{}, nil
			}
			v := a.Elems[len(a.Elems)-1]
			a.Elems = a.Elems[:len(a.Elems)-1]
			return v, nil
		}}
	case "shift":
		return &Native{Name: "Array.shift", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(a.Elems) == 0 {
				return Undefined{}, nil
			}
			v := a.Elems[0]
			a.Elems = a.Elems[1:]
			return v, nil
		}}
	case "unshift":
		return &Native{Name: "Array.unshift", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			a.Elems = append(append([]Value{}, args...), a.Elems...)
			return Number(float64(len(a.Elems))), nil
		}}
	case "join":
		return &Native{Name: "Array.join", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			sep := ","
			if len(args) > 0 {
				sep = ToString(args[0])
			}
			parts := make([]string, len(a.Elems))
			for i, e := range a.Elems {
				if IsNullish(e) {
					parts[i] = ""
				} else {
					parts[i] = ToString(e)
				}
			}
			s := strings.Join(parts, sep)
			if err := c.chargeHeap(len(s)); err != nil {
				return nil, err
			}
			return String(s), nil
		}}
	case "indexOf":
		return &Native{Name: "Array.indexOf", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			for i, e := range a.Elems {
				if StrictEquals(e, args[0]) {
					return Number(float64(i)), nil
				}
			}
			return Number(-1), nil
		}}
	case "slice":
		return &Native{Name: "Array.slice", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			start, end := 0, len(a.Elems)
			if len(args) > 0 {
				start = sliceIndex(ToInt(args[0]), len(a.Elems))
			}
			if len(args) > 1 {
				end = sliceIndex(ToInt(args[1]), len(a.Elems))
			}
			if start > end {
				return &Array{}, nil
			}
			out := make([]Value, end-start)
			copy(out, a.Elems[start:end])
			return &Array{Elems: out}, nil
		}}
	case "splice":
		return &Native{Name: "Array.splice", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			start := 0
			if len(args) > 0 {
				start = sliceIndex(ToInt(args[0]), len(a.Elems))
			}
			deleteCount := len(a.Elems) - start
			if len(args) > 1 {
				deleteCount = clamp(ToInt(args[1]), 0, len(a.Elems)-start)
			}
			removed := make([]Value, deleteCount)
			copy(removed, a.Elems[start:start+deleteCount])
			var inserted []Value
			if len(args) > 2 {
				inserted = args[2:]
			}
			rest := append([]Value{}, a.Elems[start+deleteCount:]...)
			a.Elems = append(a.Elems[:start], append(inserted, rest...)...)
			return &Array{Elems: removed}, nil
		}}
	case "concat":
		return &Native{Name: "Array.concat", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			out := append([]Value{}, a.Elems...)
			for _, arg := range args {
				if other, ok := arg.(*Array); ok {
					out = append(out, other.Elems...)
				} else {
					out = append(out, arg)
				}
			}
			return &Array{Elems: out}, nil
		}}
	case "reverse":
		return &Native{Name: "Array.reverse", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			for i, j := 0, len(a.Elems)-1; i < j; i, j = i+1, j-1 {
				a.Elems[i], a.Elems[j] = a.Elems[j], a.Elems[i]
			}
			return a, nil
		}}
	case "sort":
		return &Native{Name: "Array.sort", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			var sortErr error
			if len(args) > 0 && Callable(args[0]) {
				sort.SliceStable(a.Elems, func(i, j int) bool {
					if sortErr != nil {
						return false
					}
					r, err := c.callValue(args[0], Undefined{}, []Value{a.Elems[i], a.Elems[j]}, 0, 0)
					if err != nil {
						sortErr = err
						return false
					}
					return ToNumber(r) < 0
				})
			} else {
				sort.SliceStable(a.Elems, func(i, j int) bool {
					return ToString(a.Elems[i]) < ToString(a.Elems[j])
				})
			}
			if sortErr != nil {
				return nil, sortErr
			}
			return a, nil
		}}
	case "map":
		return &Native{Name: "Array.map", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 || !Callable(args[0]) {
				return nil, ThrowString("Array.map: callback is not a function")
			}
			out := &Array{Elems: make([]Value, 0, len(a.Elems))}
			for i, e := range a.Elems {
				r, err := c.callValue(args[0], Undefined{}, []Value{e, Number(float64(i)), a}, 0, 0)
				if err != nil {
					return nil, err
				}
				out.Elems = append(out.Elems, r)
			}
			return out, nil
		}}
	case "filter":
		return &Native{Name: "Array.filter", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 || !Callable(args[0]) {
				return nil, ThrowString("Array.filter: callback is not a function")
			}
			out := &Array{}
			for i, e := range a.Elems {
				r, err := c.callValue(args[0], Undefined{}, []Value{e, Number(float64(i)), a}, 0, 0)
				if err != nil {
					return nil, err
				}
				if Truthy(r) {
					out.Elems = append(out.Elems, e)
				}
			}
			return out, nil
		}}
	case "forEach":
		return &Native{Name: "Array.forEach", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 || !Callable(args[0]) {
				return nil, ThrowString("Array.forEach: callback is not a function")
			}
			for i, e := range a.Elems {
				if _, err := c.callValue(args[0], Undefined{}, []Value{e, Number(float64(i)), a}, 0, 0); err != nil {
					return nil, err
				}
			}
			return Undefined{}, nil
		}}
	case "toString":
		return &Native{Name: "Array.toString", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			return String(ToString(a)), nil
		}}
	}
	return nil
}

// ---------------------------------------------------------------------------
// ByteArray methods
// ---------------------------------------------------------------------------

func byteArrayMethod(b *ByteArray, name string) Value {
	switch name {
	case "append":
		return &Native{Name: "ByteArray.append", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			for _, a := range args {
				var data []byte
				switch v := a.(type) {
				case *ByteArray:
					data = v.Data
				case String:
					data = []byte(v)
				case Number:
					data = []byte{byte(ToInt(v))}
				case Undefined, Null:
					continue
				default:
					data = []byte(ToString(v))
				}
				if err := c.chargeHeap(len(data)); err != nil {
					return nil, err
				}
				b.Append(data)
			}
			return b, nil
		}}
	case "toString":
		return &Native{Name: "ByteArray.toString", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if err := c.chargeHeap(len(b.Data)); err != nil {
				return nil, err
			}
			return String(string(b.Data)), nil
		}}
	case "slice":
		return &Native{Name: "ByteArray.slice", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			start, end := 0, len(b.Data)
			if len(args) > 0 {
				start = sliceIndex(ToInt(args[0]), len(b.Data))
			}
			if len(args) > 1 {
				end = sliceIndex(ToInt(args[1]), len(b.Data))
			}
			if start > end {
				return NewByteArray(nil), nil
			}
			out := make([]byte, end-start)
			copy(out, b.Data[start:end])
			if err := c.chargeHeap(len(out)); err != nil {
				return nil, err
			}
			return NewByteArray(out), nil
		}}
	case "indexOf":
		return &Native{Name: "ByteArray.indexOf", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			needle := []byte(ToString(args[0]))
			idx := strings.Index(string(b.Data), string(needle))
			return Number(float64(idx)), nil
		}}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Number methods
// ---------------------------------------------------------------------------

func numberMethod(n Number, name string) Value {
	switch name {
	case "toFixed":
		return &Native{Name: "Number.toFixed", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			digits := 0
			if len(args) > 0 {
				digits = ToInt(args[0])
			}
			return String(strconv.FormatFloat(float64(n), 'f', digits, 64)), nil
		}}
	case "toString":
		return &Native{Name: "Number.toString", Fn: func(c *Context, this Value, args []Value) (Value, error) {
			if len(args) > 0 {
				base := ToInt(args[0])
				if base >= 2 && base <= 36 {
					return String(strconv.FormatInt(int64(float64(n)), base)), nil
				}
			}
			return String(formatNumber(float64(n))), nil
		}}
	}
	return nil
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

const maxJSONDepth = 64

func jsonStringify(v Value, depth int) (string, error) {
	if depth > maxJSONDepth {
		return "", ThrowString("JSON.stringify: structure too deep (possible cycle)")
	}
	switch t := v.(type) {
	case nil, Undefined:
		return "null", nil
	case Null:
		return "null", nil
	case Bool:
		if t {
			return "true", nil
		}
		return "false", nil
	case Number:
		f := float64(t)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return "null", nil
		}
		return formatNumber(f), nil
	case String:
		return strconv.Quote(string(t)), nil
	case *ByteArray:
		return strconv.Quote(string(t.Data)), nil
	case *Array:
		parts := make([]string, len(t.Elems))
		for i, e := range t.Elems {
			s, err := jsonStringify(e, depth+1)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return "[" + strings.Join(parts, ",") + "]", nil
	case *Object:
		var parts []string
		for _, k := range t.Keys() {
			val, _ := t.Get(k)
			if Callable(val) {
				continue
			}
			s, err := jsonStringify(val, depth+1)
			if err != nil {
				return "", err
			}
			parts = append(parts, strconv.Quote(k)+":"+s)
		}
		return "{" + strings.Join(parts, ",") + "}", nil
	case *Function, *Native:
		return "null", nil
	default:
		return "null", nil
	}
}

type jsonParser struct {
	s   string
	pos int
}

func jsonParse(s string) (Value, error) {
	p := &jsonParser{s: s}
	p.skipSpace()
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("trailing characters at offset %d", p.pos)
	}
	return v, nil
}

func (p *jsonParser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *jsonParser) parseValue() (Value, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return nil, fmt.Errorf("unexpected end of input")
	}
	switch c := p.s[p.pos]; {
	case c == '{':
		return p.parseObject()
	case c == '[':
		return p.parseArray()
	case c == '"':
		s, err := p.parseString()
		if err != nil {
			return nil, err
		}
		return String(s), nil
	case c == 't':
		if strings.HasPrefix(p.s[p.pos:], "true") {
			p.pos += 4
			return Bool(true), nil
		}
	case c == 'f':
		if strings.HasPrefix(p.s[p.pos:], "false") {
			p.pos += 5
			return Bool(false), nil
		}
	case c == 'n':
		if strings.HasPrefix(p.s[p.pos:], "null") {
			p.pos += 4
			return Null{}, nil
		}
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	}
	return nil, fmt.Errorf("unexpected character %q at offset %d", p.s[p.pos], p.pos)
}

func (p *jsonParser) parseObject() (Value, error) {
	p.pos++ // {
	obj := NewObject()
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == '}' {
		p.pos++
		return obj, nil
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != '"' {
			return nil, fmt.Errorf("expected string key at offset %d", p.pos)
		}
		key, err := p.parseString()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != ':' {
			return nil, fmt.Errorf("expected ':' at offset %d", p.pos)
		}
		p.pos++
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		obj.Set(key, v)
		p.skipSpace()
		if p.pos >= len(p.s) {
			return nil, fmt.Errorf("unexpected end of object")
		}
		if p.s[p.pos] == ',' {
			p.pos++
			continue
		}
		if p.s[p.pos] == '}' {
			p.pos++
			return obj, nil
		}
		return nil, fmt.Errorf("expected ',' or '}' at offset %d", p.pos)
	}
}

func (p *jsonParser) parseArray() (Value, error) {
	p.pos++ // [
	arr := &Array{}
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == ']' {
		p.pos++
		return arr, nil
	}
	for {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		arr.Elems = append(arr.Elems, v)
		p.skipSpace()
		if p.pos >= len(p.s) {
			return nil, fmt.Errorf("unexpected end of array")
		}
		if p.s[p.pos] == ',' {
			p.pos++
			continue
		}
		if p.s[p.pos] == ']' {
			p.pos++
			return arr, nil
		}
		return nil, fmt.Errorf("expected ',' or ']' at offset %d", p.pos)
	}
}

func (p *jsonParser) parseString() (string, error) {
	// p.s[p.pos] == '"'
	end := p.pos + 1
	for end < len(p.s) {
		if p.s[end] == '\\' {
			end += 2
			continue
		}
		if p.s[end] == '"' {
			break
		}
		end++
	}
	if end >= len(p.s) {
		return "", fmt.Errorf("unterminated string")
	}
	raw := p.s[p.pos : end+1]
	p.pos = end + 1
	s, err := strconv.Unquote(raw)
	if err != nil {
		return "", fmt.Errorf("invalid string literal %s", raw)
	}
	return s, nil
}

func (p *jsonParser) parseNumber() (Value, error) {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			p.pos++
			continue
		}
		break
	}
	f, err := strconv.ParseFloat(p.s[start:p.pos], 64)
	if err != nil {
		return nil, fmt.Errorf("invalid number %q", p.s[start:p.pos])
	}
	return Number(f), nil
}
