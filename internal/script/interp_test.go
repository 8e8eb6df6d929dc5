package script

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// runSrc is a test helper that runs src in a fresh context and returns the
// value of the last expression statement.
func runSrc(t *testing.T, src string) Value {
	t.Helper()
	ctx := NewContext(Limits{})
	v, err := ctx.RunSource(src, "test.js")
	if err != nil {
		t.Fatalf("RunSource(%q) failed: %v", src, err)
	}
	return v
}

func expectNumber(t *testing.T, src string, want float64) {
	t.Helper()
	v := runSrc(t, src)
	n, ok := v.(Number)
	if !ok {
		t.Fatalf("%q: got %T (%v), want number %v", src, v, v, want)
	}
	if float64(n) != want {
		t.Fatalf("%q = %v, want %v", src, float64(n), want)
	}
}

func expectString(t *testing.T, src string, want string) {
	t.Helper()
	v := runSrc(t, src)
	if got := ToString(v); got != want {
		t.Fatalf("%q = %q, want %q", src, got, want)
	}
}

func expectBool(t *testing.T, src string, want bool) {
	t.Helper()
	v := runSrc(t, src)
	b, ok := v.(Bool)
	if !ok {
		t.Fatalf("%q: got %T, want bool", src, v)
	}
	if bool(b) != want {
		t.Fatalf("%q = %v, want %v", src, bool(b), want)
	}
}

func TestArithmetic(t *testing.T) {
	expectNumber(t, "1 + 2 * 3", 7)
	expectNumber(t, "(1 + 2) * 3", 9)
	expectNumber(t, "10 / 4", 2.5)
	expectNumber(t, "10 % 3", 1)
	expectNumber(t, "-5 + 3", -2)
	expectNumber(t, "2 * 2 * 2 * 2", 16)
	expectNumber(t, "1e3 + 1", 1001)
	expectNumber(t, "0x10 + 1", 17)
	expectNumber(t, "7 & 3", 3)
	expectNumber(t, "4 | 1", 5)
	expectNumber(t, "5 ^ 1", 4)
	expectNumber(t, "1 << 4", 16)
	expectNumber(t, "16 >> 2", 4)
}

func TestStringOps(t *testing.T) {
	expectString(t, `"hello" + " " + "world"`, "hello world")
	expectString(t, `"a" + 1`, "a1")
	expectString(t, `1 + "a"`, "1a")
	expectString(t, `"abc".toUpperCase()`, "ABC")
	expectString(t, `"ABC".toLowerCase()`, "abc")
	expectString(t, `"hello world".substring(0, 5)`, "hello")
	expectString(t, `"hello".charAt(1)`, "e")
	expectNumber(t, `"hello".indexOf("llo")`, 2)
	expectNumber(t, `"hello".length`, 5)
	expectString(t, `"a,b,c".split(",")[1]`, "b")
	expectString(t, `"  pad  ".trim()`, "pad")
	expectString(t, `"foo.bar".replace(".", "-")`, "foo-bar")
	expectString(t, `"hello".slice(1, 3)`, "el")
	expectString(t, `"hello".slice(-3)`, "llo")
	expectBool(t, `"medschool.pitt.edu".startsWith("med")`, true)
	expectBool(t, `"file.jpeg".endsWith(".jpeg")`, true)
}

func TestComparisons(t *testing.T) {
	expectBool(t, "1 < 2", true)
	expectBool(t, "2 <= 2", true)
	expectBool(t, "3 > 4", false)
	expectBool(t, `"abc" < "abd"`, true)
	expectBool(t, "1 == 1", true)
	expectBool(t, `1 == "1"`, true)
	expectBool(t, `1 === "1"`, false)
	expectBool(t, "null == undefined", true)
	expectBool(t, "null === undefined", false)
	expectBool(t, "1 != 2", true)
	expectBool(t, "1 !== 1", false)
	expectBool(t, "!false", true)
}

func TestVariablesAndScope(t *testing.T) {
	expectNumber(t, "var x = 5; var y = x * 2; y", 10)
	expectNumber(t, "var x = 1, y = 2, z; x + y", 3)
	expectNumber(t, `
		var x = 1;
		function f() { var x = 2; return x; }
		f() + x
	`, 3)
	// Undeclared assignment lands in the global scope.
	expectNumber(t, `
		function f() { g = 42; }
		f();
		g
	`, 42)
}

func TestClosures(t *testing.T) {
	expectNumber(t, `
		function makeCounter() {
			var n = 0;
			return function() { n = n + 1; return n; };
		}
		var c = makeCounter();
		c(); c(); c()
	`, 3)
	expectNumber(t, `
		function adder(x) { return function(y) { return x + y; }; }
		adder(10)(5)
	`, 15)
}

func TestControlFlow(t *testing.T) {
	expectNumber(t, `
		var total = 0;
		for (var i = 1; i <= 10; i++) { total += i; }
		total
	`, 55)
	expectNumber(t, `
		var n = 0;
		while (n < 100) { n += 7; }
		n
	`, 105)
	expectNumber(t, `
		var n = 0;
		do { n++; } while (n < 5);
		n
	`, 5)
	expectNumber(t, `
		var x = 0;
		if (1 < 2) { x = 10; } else { x = 20; }
		x
	`, 10)
	expectNumber(t, `
		var x = 0;
		if (false) x = 1; else if (false) x = 2; else x = 3;
		x
	`, 3)
	expectNumber(t, `
		var total = 0;
		for (var i = 0; i < 10; i++) {
			if (i == 3) continue;
			if (i == 6) break;
			total += i;
		}
		total
	`, 0+1+2+4+5)
	expectString(t, `
		var out = "";
		switch (2) {
			case 1: out = "one"; break;
			case 2: out = "two"; break;
			default: out = "other";
		}
		out
	`, "two")
	expectString(t, `
		var out = "";
		switch (9) {
			case 1: out = "one"; break;
			default: out = "other";
		}
		out
	`, "other")
	// Fallthrough.
	expectString(t, `
		var out = "";
		switch (1) {
			case 1: out += "a";
			case 2: out += "b"; break;
			case 3: out += "c";
		}
		out
	`, "ab")
}

func TestObjectsAndArrays(t *testing.T) {
	expectNumber(t, `var o = { a: 1, b: 2 }; o.a + o.b`, 3)
	expectNumber(t, `var o = { a: 1 }; o.b = 5; o["c"] = 7; o.a + o.b + o.c`, 13)
	expectNumber(t, `var a = [1, 2, 3]; a[0] + a[2]`, 4)
	expectNumber(t, `var a = [1, 2, 3]; a.length`, 3)
	expectNumber(t, `var a = []; a.push(4); a.push(5); a[0] + a[1]`, 9)
	expectNumber(t, `var a = [1, 2, 3]; a.pop()`, 3)
	expectString(t, `[1, 2, 3].join("-")`, "1-2-3")
	expectNumber(t, `[5, 1, 4].sort()[0]`, 1)
	expectNumber(t, `[1, 2, 3, 4].filter(function(x) { return x % 2 == 0; }).length`, 2)
	expectNumber(t, `[1, 2, 3].map(function(x) { return x * 10; })[2]`, 30)
	expectNumber(t, `
		var total = 0;
		[1, 2, 3, 4].forEach(function(x) { total += x; });
		total
	`, 10)
	expectNumber(t, `["a", "b", "c"].indexOf("b")`, 1)
	expectNumber(t, `[1,2,3,4,5].slice(1, 3).length`, 2)
	expectBool(t, `var o = { url: "x" }; "url" in o`, true)
	expectBool(t, `var o = { url: "x" }; "client" in o`, false)
	expectNumber(t, `
		var o = { a: 1, b: 2, c: 3 };
		var count = 0;
		for (var k in o) { count++; }
		count
	`, 3)
	expectNumber(t, `var o = {a: 1, b: 2}; delete o.a; var n = 0; for (var k in o) n++; n`, 1)
	// Nested data structures.
	expectString(t, `
		var p = { urls: ["med.nyu.edu", "medschool.pitt.edu"], handler: { name: "resize" } };
		p.urls[1] + ":" + p.handler.name
	`, "medschool.pitt.edu:resize")
}

func TestFunctions(t *testing.T) {
	expectNumber(t, `function add(a, b) { return a + b; } add(2, 3)`, 5)
	expectNumber(t, `var f = function(x) { return x * x; }; f(6)`, 36)
	expectNumber(t, `function f() { return arguments.length; } f(1, 2, 3)`, 3)
	// Missing arguments become undefined.
	expectBool(t, `function f(a, b) { return b === undefined; } f(1)`, true)
	// Recursion.
	expectNumber(t, `
		function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
		fib(12)
	`, 144)
	// Named function expressions and this binding via object methods.
	expectNumber(t, `
		var obj = { value: 41, get: function() { return this.value + 1; } };
		obj.get()
	`, 42)
}

func TestConstructors(t *testing.T) {
	expectNumber(t, `
		function Point(x, y) { this.x = x; this.y = y; }
		var p = new Point(3, 4);
		p.x * p.y
	`, 12)
	expectNumber(t, `new ByteArray(10).length`, 10)
	expectString(t, `new ByteArray("abc").toString()`, "abc")
	expectNumber(t, `var a = new Array(5); a.length`, 5)
	expectString(t, `var e = new Error("boom"); e.message`, "boom")
}

func TestByteArray(t *testing.T) {
	expectNumber(t, `
		var b = new ByteArray();
		b.append("hello");
		b.append(" world");
		b.length
	`, 11)
	expectString(t, `
		var b = new ByteArray();
		b.append("na");
		b.append("kika");
		b.toString()
	`, "nakika")
	expectNumber(t, `var b = new ByteArray("abc"); b[1]`, 98)
	expectString(t, `var b = new ByteArray("abc"); b[0] = 120; b.toString()`, "xbc")
	expectString(t, `new ByteArray("hello world").slice(6).toString()`, "world")
	expectNumber(t, `new ByteArray("hello world").indexOf("world")`, 6)
	// Concatenation with + coerces to string.
	expectString(t, `"x-" + new ByteArray("yz")`, "x-yz")
}

func TestTernaryAndLogical(t *testing.T) {
	expectNumber(t, `true ? 1 : 2`, 1)
	expectNumber(t, `false ? 1 : 2`, 2)
	expectNumber(t, `var x = 5; x > 3 ? x * 2 : 0`, 10)
	expectNumber(t, `null || 7`, 7)
	expectNumber(t, `0 || 3`, 3)
	expectNumber(t, `2 && 3`, 3)
	expectBool(t, `false && undefinedVariableNeverEvaluated`, false)
	expectBool(t, `true || undefinedVariableNeverEvaluated`, true)
}

func TestUpdateAndCompoundAssign(t *testing.T) {
	expectNumber(t, `var x = 1; x++; x`, 2)
	expectNumber(t, `var x = 1; x++`, 1)
	expectNumber(t, `var x = 1; ++x`, 2)
	expectNumber(t, `var x = 10; x--; --x; x`, 8)
	expectNumber(t, `var x = 4; x += 6; x`, 10)
	expectNumber(t, `var x = 4; x -= 1; x *= 3; x /= 9; x`, 1)
	expectString(t, `var s = "a"; s += "b"; s += "c"; s`, "abc")
	expectNumber(t, `var o = { n: 1 }; o.n += 4; o.n`, 5)
	expectNumber(t, `var a = [1]; a[0] += 9; a[0]`, 10)
}

func TestExceptions(t *testing.T) {
	expectString(t, `
		var msg = "";
		try { throw "boom"; } catch (e) { msg = e; }
		msg
	`, "boom")
	expectString(t, `
		var log = "";
		try { log += "a"; throw "x"; log += "never"; }
		catch (e) { log += "b"; }
		finally { log += "c"; }
		log
	`, "abc")
	expectString(t, `
		var r = "";
		function f() { throw { code: 42 }; }
		try { f(); } catch (e) { r = "code=" + e.code; }
		r
	`, "code=42")
	// Runtime errors (calling a non-function) are catchable.
	expectBool(t, `
		var caught = false;
		try { var x = null; x(); } catch (e) { caught = true; }
		caught
	`, true)
	// Uncaught exceptions surface as ThrowError.
	ctx := NewContext(Limits{})
	_, err := ctx.RunSource(`throw "unhandled";`, "t.js")
	var te *ThrowError
	if !errors.As(err, &te) {
		t.Fatalf("expected ThrowError, got %v", err)
	}
	if ToString(te.Value) != "unhandled" {
		t.Fatalf("ThrowError value = %q, want %q", ToString(te.Value), "unhandled")
	}
}

func TestTypeof(t *testing.T) {
	expectString(t, `typeof 1`, "number")
	expectString(t, `typeof "x"`, "string")
	expectString(t, `typeof true`, "boolean")
	expectString(t, `typeof undefined`, "undefined")
	expectString(t, `typeof neverDeclared`, "undefined")
	expectString(t, `typeof {}`, "object")
	expectString(t, `typeof function(){}`, "function")
	expectString(t, `typeof null`, "object")
}

func TestBuiltins(t *testing.T) {
	expectNumber(t, `Math.floor(3.7)`, 3)
	expectNumber(t, `Math.ceil(3.2)`, 4)
	expectNumber(t, `Math.round(3.5)`, 4)
	expectNumber(t, `Math.abs(-4)`, 4)
	expectNumber(t, `Math.max(1, 9, 3)`, 9)
	expectNumber(t, `Math.min(5, 2, 8)`, 2)
	expectNumber(t, `Math.pow(2, 10)`, 1024)
	expectNumber(t, `parseInt("42")`, 42)
	expectNumber(t, `parseInt("42px")`, 42)
	expectNumber(t, `parseInt("ff", 16)`, 255)
	expectNumber(t, `parseFloat("3.14 radians")`, 3.14)
	expectBool(t, `isNaN(parseInt("abc"))`, true)
	expectBool(t, `isFinite(1/0)`, false)
	expectString(t, `String(42)`, "42")
	expectNumber(t, `Number("17")`, 17)
	expectBool(t, `Boolean("")`, false)
}

func TestJSON(t *testing.T) {
	expectString(t, `JSON.stringify({ a: 1, b: "x", c: [true, null] })`, `{"a":1,"b":"x","c":[true,null]}`)
	expectNumber(t, `JSON.parse("{\"n\": 42}").n`, 42)
	expectNumber(t, `JSON.parse("[1, 2, 3]")[2]`, 3)
	expectString(t, `JSON.parse("\"hello\"")`, "hello")
	expectBool(t, `JSON.parse("true")`, true)
	expectNumber(t, `JSON.parse(JSON.stringify({ deep: { nested: { value: 99 } } })).deep.nested.value`, 99)
	// Functions are dropped from stringify output.
	expectString(t, `JSON.stringify({ a: 1, f: function() {} })`, `{"a":1}`)
}

func TestRegExp(t *testing.T) {
	expectBool(t, `new RegExp("^/cgi/").test("/cgi/reprint")`, true)
	expectBool(t, `new RegExp("^/cgi/").test("/static/x")`, false)
	expectBool(t, `new RegExp("nokia", "i").test("User-Agent: NOKIA 6600")`, true)
	expectString(t, `new RegExp("([a-z]+)@([a-z]+)").exec("user@host")[1]`, "user")
	expectString(t, `"hello world".match("w(or)ld")[1]`, "or")
	expectString(t, `new RegExp("o", "g").replace("foo", "0")`, "f00")
}

func TestPaperImageTranscodeScript(t *testing.T) {
	// The structure of Figure 2's onResponse handler: loop reading chunks,
	// compute dimensions, conditionally transform. Exercised here with stub
	// vocabularies to validate the language surface the paper relies on.
	src := `
		var chunks = ["aaaa", "bbbb", null];
		var chunkIndex = 0;
		Response = {
			read: function() { var c = chunks[chunkIndex]; chunkIndex++; return c; },
			contentType: "image/png",
			headers: {},
			setHeader: function(k, v) { this.headers[k] = v; },
			write: function(data) { this.body = data; }
		};
		ImageTransformer = {
			type: function(ct) { return ct.split("/")[1]; },
			dimensions: function(body, type) { return { x: 640, y: 480 }; },
			transform: function(body, type, outType, w, h) { return "transformed:" + w + "x" + Math.floor(h); }
		};
		onResponse = function() {
			var buff = null, body = new ByteArray();
			while (buff = Response.read()) {
				body.append(buff);
			}
			var type = ImageTransformer.type(Response.contentType);
			var dim = ImageTransformer.dimensions(body, type);
			if (dim.x > 176 || dim.y > 208) {
				var img;
				if (dim.x/176 > dim.y/208) {
					img = ImageTransformer.transform(body, type, "jpeg", 176, dim.y/dim.x*208);
				} else {
					img = ImageTransformer.transform(body, type, "jpeg", dim.x/dim.y*176, 208);
				}
				Response.setHeader("Content-Type", "image/jpeg");
				Response.setHeader("Content-Length", img.length);
				Response.write(img);
			}
		};
		onResponse();
		Response.headers["Content-Type"] + "|" + Response.body
	`
	expectString(t, src, "image/jpeg|transformed:176x156")
}

func TestPaperPolicyObjectScript(t *testing.T) {
	// The structure of Figure 3 / Figure 5: instantiate a Policy, assign
	// predicate properties and handlers, call register().
	src := `
		var registered = [];
		function Policy() {
			this.register = function() { registered.push(this); };
		}
		var bmj = "bmj.bmjjournals.com/cgi/reprint";
		var nejm = "content.nejm.org/cgi/reprint";
		var p = new Policy();
		p.url = [ bmj, nejm ];
		p.onRequest = function() { return "terminate 401"; };
		p.register();
		registered.length + ":" + registered[0].url[1] + ":" + registered[0].onRequest()
	`
	expectString(t, src, "1:content.nejm.org/cgi/reprint:terminate 401")
}

func TestStepLimit(t *testing.T) {
	ctx := NewContext(Limits{MaxSteps: 10000})
	_, err := ctx.RunSource(`var i = 0; while (true) { i++; }`, "loop.js")
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("expected ErrStepLimit, got %v", err)
	}
}

func TestMemoryLimit(t *testing.T) {
	// The misbehaving script from Section 5.1: repeatedly doubling a string.
	ctx := NewContext(Limits{MaxHeapBytes: 1 << 20})
	_, err := ctx.RunSource(`
		var s = "xxxxxxxxxxxxxxxx";
		while (true) { s = s + s; }
	`, "hog.js")
	if !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("expected ErrMemoryLimit, got %v", err)
	}
}

func TestTerminate(t *testing.T) {
	ctx := NewContext(Limits{})
	ctx.Terminate()
	_, err := ctx.RunSource(`var i = 0; while (true) { i++; }`, "loop.js")
	if !errors.Is(err, ErrTerminated) {
		t.Fatalf("expected ErrTerminated, got %v", err)
	}
	// After Reset the context runs again.
	ctx.Reset()
	if _, err := ctx.RunSource(`1 + 1`, "ok.js"); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

func TestContextReuseAndStats(t *testing.T) {
	ctx := NewContext(Limits{})
	if _, err := ctx.RunSource(`var counter = 0;`, "a.js"); err != nil {
		t.Fatal(err)
	}
	// Globals persist across runs in the same context.
	if _, err := ctx.RunSource(`counter = counter + 1;`, "b.js"); err != nil {
		t.Fatal(err)
	}
	v, err := ctx.RunSource(`counter`, "c.js")
	if err != nil {
		t.Fatal(err)
	}
	if ToNumber(v) != 1 {
		t.Fatalf("counter = %v, want 1", ToNumber(v))
	}
	if ctx.Steps() == 0 {
		t.Fatal("expected non-zero step count")
	}
}

func TestCallHostToScript(t *testing.T) {
	ctx := NewContext(Limits{})
	_, err := ctx.RunSource(`function handler(req) { return req.method + " " + req.url; }`, "h.js")
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := ctx.Global("handler")
	if !ok {
		t.Fatal("handler not defined")
	}
	req := NewObject()
	req.Set("method", String("GET"))
	req.Set("url", String("/index.html"))
	out, err := ctx.Call(fn, Undefined{}, req)
	if err != nil {
		t.Fatal(err)
	}
	if ToString(out) != "GET /index.html" {
		t.Fatalf("got %q", ToString(out))
	}
}

func TestNativeFunctionErrors(t *testing.T) {
	ctx := NewContext(Limits{})
	ctx.DefineGlobal("fail", &Native{Name: "fail", Fn: func(c *Context, this Value, args []Value) (Value, error) {
		return nil, ThrowString("native failure")
	}})
	// Script can catch native throws.
	v, err := ctx.RunSource(`
		var msg = "none";
		try { fail(); } catch (e) { msg = e; }
		msg
	`, "n.js")
	if err != nil {
		t.Fatal(err)
	}
	if ToString(v) != "native failure" {
		t.Fatalf("got %q", ToString(v))
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		`var = 3;`,
		`function () {`,
		`if (x`,
		`"unterminated`,
		`var x = {a: };`,
		`foo(1,`,
		`/* unclosed comment`,
		`try { }`,
	}
	for _, src := range bad {
		if _, err := Parse(src, "bad.js"); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("var x = 1;\nvar y = ;\n", "pos.js")
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("expected SyntaxError, got %v", err)
	}
	if se.Line != 2 {
		t.Fatalf("error line = %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "pos.js") {
		t.Fatalf("error should contain file name: %v", se)
	}
}

func TestNumberFormatting(t *testing.T) {
	expectString(t, `String(1.5)`, "1.5")
	expectString(t, `String(100)`, "100")
	expectString(t, `String(-0.25)`, "-0.25")
	expectString(t, `String(1/0)`, "Infinity")
	expectString(t, `String(0/0)`, "NaN")
	expectString(t, `(3.14159).toFixed(2)`, "3.14")
	expectString(t, `(255).toString(16)`, "ff")
}

func TestObjectInsertionOrder(t *testing.T) {
	v := runSrc(t, `var o = {}; o.z = 1; o.a = 2; o.m = 3; o`)
	obj := v.(*Object)
	keys := obj.Keys()
	want := []string{"z", "a", "m"}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

// Property-based tests on core value conversions and data structures.

func TestPropertyNumberRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		ctx := NewContext(Limits{})
		v, err := ctx.RunSource("var x = "+formatNumber(float64(n))+"; x", "p.js")
		if err != nil {
			return false
		}
		return ToNumber(v) == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyStringConcatLength(t *testing.T) {
	f := func(a, b string) bool {
		// Only use strings without quote/backslash characters to keep the
		// literal well-formed; correctness of escaping is tested elsewhere.
		clean := func(s string) string {
			out := make([]rune, 0, len(s))
			for _, r := range s {
				if r == '"' || r == '\\' || r == '\n' || r == '\r' || r < 32 || r > 126 {
					continue
				}
				out = append(out, r)
			}
			return string(out)
		}
		a, b = clean(a), clean(b)
		ctx := NewContext(Limits{})
		v, err := ctx.RunSource(`"`+a+`" + "`+b+`"`, "p.js")
		if err != nil {
			return false
		}
		return ToString(v) == a+b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyArrayPushLength(t *testing.T) {
	f := func(vals []float64) bool {
		arr := NewArray()
		for _, v := range vals {
			arr.Elems = append(arr.Elems, Number(v))
		}
		return arr.Len() == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyObjectSetGet(t *testing.T) {
	f := func(keys []string, val float64) bool {
		o := NewObject()
		for _, k := range keys {
			o.Set(k, Number(val))
		}
		for _, k := range keys {
			v, ok := o.Get(k)
			if !ok || ToNumber(v) != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyLooseEqualsReflexiveForNumbers(t *testing.T) {
	f := func(n float64) bool {
		if math.IsNaN(n) {
			// NaN != NaN by definition.
			return !LooseEquals(Number(n), Number(n))
		}
		return LooseEquals(Number(n), Number(n)) && StrictEquals(Number(n), Number(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(n int32, s string, b bool) bool {
		clean := make([]rune, 0, len(s))
		for _, r := range s {
			if r >= 32 && r < 127 && r != '"' && r != '\\' {
				clean = append(clean, r)
			}
		}
		obj := NewObject()
		obj.Set("n", Number(float64(n)))
		obj.Set("s", String(string(clean)))
		obj.Set("b", Bool(b))
		text, err := jsonStringify(obj, 0)
		if err != nil {
			return false
		}
		back, err := jsonParse(text)
		if err != nil {
			return false
		}
		ro := back.(*Object)
		nv, _ := ro.Get("n")
		sv, _ := ro.Get("s")
		bv, _ := ro.Get("b")
		return ToNumber(nv) == float64(n) && ToString(sv) == string(clean) && bool(bv.(Bool)) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyByteArrayAppend(t *testing.T) {
	f := func(chunks [][]byte) bool {
		b := NewByteArray(nil)
		total := 0
		for _, c := range chunks {
			b.Append(c)
			total += len(c)
		}
		return b.Len() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeepRecursionDoesNotCrash(t *testing.T) {
	ctx := NewContext(Limits{MaxSteps: 50_000_000})
	// Deep but bounded recursion should complete.
	v, err := ctx.RunSource(`
		function depth(n) { if (n == 0) return 0; return 1 + depth(n - 1); }
		depth(500)
	`, "rec.js")
	if err != nil {
		t.Fatal(err)
	}
	if ToNumber(v) != 500 {
		t.Fatalf("depth = %v", ToNumber(v))
	}
}

func TestComments(t *testing.T) {
	expectNumber(t, `
		// line comment
		var x = 1; /* inline */ var y = 2;
		/* multi
		   line */
		x + y
	`, 3)
}

func TestSequenceExpression(t *testing.T) {
	expectNumber(t, `var x = (1, 2, 3); x`, 3)
}

func TestForInOverArrayAndString(t *testing.T) {
	expectString(t, `
		var out = "";
		var a = ["x", "y", "z"];
		for (var i in a) { out += a[i]; }
		out
	`, "xyz")
	expectNumber(t, `
		var count = 0;
		for (var i in "hello") { count++; }
		count
	`, 5)
}
