// Package parser implements the textual form of the lang IR: a lexer, a
// recursive-descent parser, a semantic builder producing *lang.Program,
// and a printer whose output round-trips through the parser.
//
// The format (see testdata and the README) looks like:
//
//	class A extends B implements I {
//	  field f: A
//	  static field CACHE: A[]
//	  method foo(p: A): A {
//	    var x: A
//	    x = new A
//	    x.f = p
//	    x = p.foo(x)
//	    return x
//	  }
//	}
//	entry Main.main/0
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokColon
	tokComma
	tokAssign
	tokDot
	tokArr   // the two-character token "[]"
	tokSlash // used in entry arity: Main.main/0
	tokInt
)

var tokenNames = map[tokenKind]string{
	tokEOF: "end of file", tokIdent: "identifier", tokLBrace: "'{'",
	tokRBrace: "'}'", tokLParen: "'('", tokRParen: "')'", tokColon: "':'",
	tokComma: "','", tokAssign: "'='", tokDot: "'.'", tokArr: "'[]'",
	tokSlash: "'/'", tokInt: "integer",
}

type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokIdent || t.kind == tokInt {
		return fmt.Sprintf("%q", t.text)
	}
	return tokenNames[t.kind]
}

// lexer produces the tokens of src one at a time, so a parse holds only
// its two-token window, never the whole stream. Comments run from "//"
// to end of line. A lex error is recorded in err and ends the stream:
// from then on next returns EOF.
type lexer struct {
	src  string
	pos  int
	line int
	err  error
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

// punct maps each one-byte punctuation character to its token kind
// (tokEOF: not punctuation).
var punct = [256]tokenKind{
	'{': tokLBrace, '}': tokRBrace, '(': tokLParen, ')': tokRParen,
	':': tokColon, ',': tokComma, '=': tokAssign, '.': tokDot, '/': tokSlash,
}

// next returns the next token, or EOF at the end of input or after an
// error.
func (lx *lexer) next() token {
	src, n := lx.src, len(lx.src)
	for lx.err == nil && lx.pos < n {
		i, c := lx.pos, src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for lx.pos < n && src[lx.pos] != '\n' {
				lx.pos++
			}
		case punct[c] != tokEOF:
			lx.pos++
			return token{punct[c], src[i:lx.pos], lx.line}
		case c == '[':
			if i+1 == n || src[i+1] != ']' {
				lx.err = fmt.Errorf("line %d: '[' must be followed by ']'", lx.line)
				break
			}
			lx.pos += 2
			return token{tokArr, src[i:lx.pos], lx.line}
		case isIdentStart(rune(c)):
			for lx.pos < n && isIdentPart(rune(src[lx.pos])) {
				lx.pos++
			}
			return token{tokIdent, src[i:lx.pos], lx.line}
		case c >= '0' && c <= '9':
			for lx.pos < n && src[lx.pos] >= '0' && src[lx.pos] <= '9' {
				lx.pos++
			}
			return token{tokInt, src[i:lx.pos], lx.line}
		default:
			lx.err = fmt.Errorf("line %d: unexpected character %q", lx.line, rune(c))
		}
	}
	return token{tokEOF, "", lx.line}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '$'
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}

// keywords of the top-level and statement grammar. They are contextual:
// an identifier is a keyword only where the grammar expects one, so
// variables named e.g. "field" still lex as identifiers.
const (
	kwClass      = "class"
	kwInterface  = "interface"
	kwExtends    = "extends"
	kwImplements = "implements"
	kwField      = "field"
	kwStatic     = "static"
	kwMethod     = "method"
	kwAbstract   = "abstract"
	kwVar        = "var"
	kwNew        = "new"
	kwReturn     = "return"
	kwEntry      = "entry"
	kwSpecial    = "special"
	kwVoid       = "void"
	kwThrow      = "throw"
	kwCatch      = "catch"
)

// dotted joins name parts for error messages.
func dotted(parts []string) string { return strings.Join(parts, ".") }
