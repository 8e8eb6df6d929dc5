package script

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// lexAll drains the lexer, bounding the token count so a lexer bug that
// stops making progress fails fast instead of hanging the fuzzer.
func lexAll(t *testing.T, src string) {
	t.Helper()
	lex := NewLexer(src, "fuzz")
	for i := 0; i <= len(src)+1; i++ {
		tok, err := lex.Next()
		if err != nil {
			return
		}
		if tok.Type == TokenEOF {
			return
		}
	}
	t.Fatalf("lexer did not reach EOF within %d tokens", len(src)+1)
}

// FuzzLex feeds arbitrary input to the NKScript lexer: it must terminate
// (error or EOF) without panicking and without emitting more tokens than
// input bytes.
func FuzzLex(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add("var x = 1.5e3; // comment\n/* block */ y = \"str\\n\";")
	f.Add("p.headers = { \"User-Agent\": [ \"(?i)nokia\" ] };")
	f.Add("\"unterminated")
	f.Add("/* unterminated block")
	f.Add("\x00\xff\xfe binary ⚡ unicode")
	f.Fuzz(func(t *testing.T, src string) {
		lexAll(t, src)
	})
}

// FuzzParse feeds arbitrary input to the NKScript parser: malformed source
// must produce an error, never a panic, and accepted source must re-parse
// successfully (parsing is stable).
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add("var p = new Policy(); p.onRequest = function() { Request.terminate(403); }; p.register();")
	f.Add("for (var i = 0; i < 10; i++) { t += i; }")
	f.Add("if (x) { y(); } else { z(); }")
	f.Add("function f(a, b) { return a + b; } f(1, 2);")
	f.Add("var o = { a: [1, 2, 3], b: { c: null } };")
	f.Add("while (")
	f.Add("}}}}")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			return // keep adversarial deep-nesting inputs fast enough for CI smoke
		}
		prog, err := Parse(src, "fuzz")
		if err != nil {
			return
		}
		if prog == nil {
			t.Fatal("nil program without error")
		}
		if _, err := Parse(src, "fuzz-again"); err != nil {
			t.Fatalf("accepted source failed to re-parse: %v", err)
		}
	})
}

// scriptLiteral matches backquoted raw strings in the example programs and
// the applications, which hold their embedded NKScript site scripts.
var scriptLiteral = regexp.MustCompile("(?s)`([^`]*)`")

// fuzzSeeds extracts the NKScript sources embedded in examples/ and
// internal/apps/ as the seed corpus.
func fuzzSeeds(f *testing.F) []string {
	f.Helper()
	paths, _ := filepath.Glob("../../examples/*/main.go")
	apps, _ := filepath.Glob("../apps/*/*.go")
	paths = append(paths, apps...)
	var out []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		for _, m := range scriptLiteral.FindAllStringSubmatch(string(b), -1) {
			if len(m[1]) > 0 {
				out = append(out, m[1])
			}
		}
	}
	return out
}
