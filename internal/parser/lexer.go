// Package parser implements the textual form of the lang IR: a lexer, a
// two-pass recursive-descent parser that builds a *lang.Program as it
// goes, and a printer whose output round-trips through the parser.
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
	pos  int // byte offset of text in the source
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
			return token{punct[c], src[i:lx.pos], lx.line, i}
		case c == '[':
			if i+1 == n || src[i+1] != ']' {
				lx.err = fmt.Errorf("line %d: '[' must be followed by ']'", lx.line)
				break
			}
			lx.pos += 2
			return token{tokArr, src[i:lx.pos], lx.line, i}
		case identStart[c]:
			for lx.pos < n && identPart[src[lx.pos]] {
				lx.pos++
			}
			return token{tokIdent, src[i:lx.pos], lx.line, i}
		case c >= '0' && c <= '9':
			for lx.pos < n && src[lx.pos] >= '0' && src[lx.pos] <= '9' {
				lx.pos++
			}
			return token{tokInt, src[i:lx.pos], lx.line, i}
		default:
			lx.err = fmt.Errorf("line %d: unexpected character %q", lx.line, rune(c))
		}
	}
	return token{tokEOF, "", lx.line, lx.pos}
}

// identStart and identPart classify bytes, each read as a Latin-1
// rune: letters, '_' and '$' start an identifier, digits may continue
// one.
var identStart, identPart [256]bool

func init() {
	for c := range identStart {
		r := rune(c)
		identStart[c] = unicode.IsLetter(r) || r == '_' || r == '$'
		identPart[c] = identStart[c] || unicode.IsDigit(r)
	}
}

// skipBody moves the lexer to the '}' that closes a method body, as
// lexing up to it would, and reports whether it found one. It stops
// early, returning false, at anything a body cannot hold or lexing
// would reject: '{', a '[' without its ']', a bad character, or the end
// of input.
func (lx *lexer) skipBody() bool {
	src := lx.src
	for ; lx.pos < len(src); lx.pos++ {
		switch c := src[lx.pos]; {
		case c == '}':
			return true
		case c == '\n':
			lx.line++
		case c == '/' && lx.pos+1 < len(src) && src[lx.pos+1] == '/':
			for lx.pos+1 < len(src) && src[lx.pos+1] != '\n' {
				lx.pos++
			}
		case c == '[' && lx.pos+1 < len(src) && src[lx.pos+1] == ']':
			lx.pos++
		case c == '{' || c == '[':
			return false
		case !identPart[c] && punct[c] == tokEOF && c != ' ' && c != '\t' && c != '\r':
			return false
		}
	}
	return false
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
