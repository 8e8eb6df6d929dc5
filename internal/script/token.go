// Package script implements NKScript, the scripting language used by the Na
// Kika reproduction to express event handlers, policy objects, and
// vocabularies.
//
// NKScript is a subset of JavaScript: C-like syntax, first-class functions
// with closures, object and array literals, prototype-free objects,
// constructor invocation via new, and a ByteArray core type for zero-copy
// body handling (Section 3.1 and 4 of the paper). The interpreter is a
// tree-walking evaluator with per-context heaps, step/cost accounting, and
// cooperative termination so the resource manager can kill runaway scripts.
package script

import "fmt"

// TokenType identifies the lexical class of a token.
type TokenType int

// Token types produced by the Lexer.
const (
	TokenEOF TokenType = iota
	TokenIdent
	TokenNumber
	TokenString
	TokenPunct
	TokenKeyword
)

// Keywords recognized by the lexer. NKScript reserves the JavaScript keywords
// it implements plus a handful reserved for future use so scripts written for
// full JavaScript fail early rather than silently misparse.
var keywords = map[string]bool{
	"var": true, "function": true, "return": true, "if": true, "else": true,
	"while": true, "for": true, "do": true, "break": true, "continue": true,
	"new": true, "delete": true, "typeof": true, "in": true, "instanceof": true,
	"null": true, "true": true, "false": true, "undefined": true,
	"this": true, "throw": true, "try": true, "catch": true, "finally": true,
	"switch": true, "case": true, "default": true,
}

// Token is a single lexical token with its source position.
type Token struct {
	Type    TokenType
	Literal string
	Num     float64
	Line    int
	Col     int
}

func (t Token) String() string {
	switch t.Type {
	case TokenEOF:
		return "EOF"
	case TokenNumber:
		return fmt.Sprintf("number(%v)", t.Num)
	case TokenString:
		return fmt.Sprintf("string(%q)", t.Literal)
	default:
		return t.Literal
	}
}

// isKeyword reports whether the identifier s is a reserved word.
func isKeyword(s string) bool { return keywords[s] }
