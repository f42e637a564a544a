package parser

import (
	"fmt"

	"mahjong/internal/lang"
)

// Parse parses the textual IR in src and returns the resolved program.
// name is used in error messages (typically a file name). A lex error
// is reported whenever the parse reached it, even if the tokens before
// it formed a complete file.
//
// Parsing takes two passes over the source. The first parses the
// declarations (classes, fields, method signatures, entry) and skips
// each method body, noting where it starts. Once every class and member
// is declared, the second pass restarts the lexer at each body and
// builds its statements straight into the program. Declaration order in
// the source therefore does not matter.
func Parse(name, src string) (*lang.Program, error) {
	p := &parser{name: name, lx: newLexer(src)}
	p.seek(0, 1)
	err := p.file()
	if p.lx.err != nil {
		return nil, fmt.Errorf("%s: %w", name, p.lx.err)
	}
	if err != nil {
		return nil, err
	}
	return p.build()
}

// parser is a recursive-descent parser over a two-token window: cur and
// peek are its only lookahead, pulled from the lexer on demand.
type parser struct {
	name      string
	lx        lexer
	cur, peek token

	// Declarations collected by the first pass.
	classes    []*classDecl
	entryClass string
	entryName  string
	entryArity int
	entryLine  int

	// Second-pass state (build.go, stmt.go). m is the method whose body
	// is being parsed; while it is nil a body is only checked for syntax.
	prog  *lang.Program
	m     *lang.Method
	vars  map[string]*lang.Var // m's variables by name
	args  []string             // the current call's argument names
	types []*lang.Class        // scratch for method parameter types
}

// Declaration records kept by the first pass. Names are kept as strings
// and resolved once every class is known.

type classDecl struct {
	line        int
	name        string
	isInterface bool
	super       string   // "" for none / Object
	interfaces  []string // implements (classes) or extends (interfaces)
	fields      []fieldDecl
	methods     []methodDecl
}

type fieldDecl struct {
	line   int
	name   string
	typ    typeRef
	static bool
}

type methodDecl struct {
	line     int
	name     string
	static   bool
	abstract bool
	params   []paramDecl
	ret      typeRef // zero value means void
	bodyPos  int     // source offset of the body's first token
	bodyLine int     // and its line
}

type paramDecl struct {
	name string
	typ  typeRef
}

// typeRef is a source-level type: a dotted class name plus array depth.
type typeRef struct {
	name string // "" means void
	dims int
}

func (t typeRef) isVoid() bool { return t.name == "" }

// seek restarts the lexer at byte offset pos of the source, which lies
// on the given line, and refills the token window.
func (p *parser) seek(pos, line int) {
	p.lx = lexer{src: p.lx.src, pos: pos, line: line}
	p.cur = p.lx.next()
	p.peek = p.lx.next()
}

func (p *parser) next() token {
	t := p.cur
	if t.kind != tokEOF {
		p.cur = p.peek
		p.peek = p.lx.next()
	}
	return t
}

func (p *parser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", p.name, line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur
	if t.kind != k {
		return t, p.errf(t.line, "expected %s, found %s", tokenNames[k], t)
	}
	return p.next(), nil
}

// atKeyword reports whether the current token is the given contextual keyword.
func (p *parser) atKeyword(kw string) bool {
	t := p.cur
	return t.kind == tokIdent && t.text == kw
}

// file is the first pass: it collects the class declarations and the
// entry point.
func (p *parser) file() error {
	for {
		t := p.cur
		switch {
		case t.kind == tokEOF:
			if p.entryName == "" {
				return p.errf(t.line, "missing 'entry' declaration")
			}
			return nil
		case p.atKeyword(kwClass), p.atKeyword(kwInterface):
			cd, err := p.classDecl()
			if err != nil {
				return err
			}
			p.classes = append(p.classes, cd)
		case p.atKeyword(kwEntry):
			p.next()
			name, err := p.dottedName()
			if err != nil {
				return err
			}
			cls, meth, ok := splitLast(name)
			if !ok {
				return p.errf(t.line, "entry must be Class.method, found %q", name)
			}
			p.entryClass, p.entryName, p.entryLine = cls, meth, t.line
			if p.cur.kind == tokSlash {
				p.next()
				it, err := p.expect(tokInt)
				if err != nil {
					return err
				}
				for _, c := range it.text {
					p.entryArity = p.entryArity*10 + int(c-'0')
				}
			}
		default:
			return p.errf(t.line, "expected 'class', 'interface' or 'entry', found %s", t)
		}
	}
}

// dottedName parses ident (. ident)* and returns the parts joined by
// dots. When the name is written without spaces or comments inside it,
// the result is a slice of the source and costs no allocation.
func (p *parser) dottedName() (string, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	name, start, end := t.text, t.pos, t.pos+len(t.text)
	// Only continue when an identifier follows: "x.f = y" must not
	// swallow the '=' position.
	for p.cur.kind == tokDot && p.peek.kind == tokIdent {
		dot, id := p.next(), p.next()
		if start >= 0 && dot.pos == end && id.pos == end+1 {
			name = p.lx.src[start : id.pos+len(id.text)]
		} else {
			start = -1
			name += "." + id.text
		}
		end = id.pos + len(id.text)
	}
	return name, nil
}

// splitLast splits a dotted name at its last dot; ok is false for a
// name without one.
func splitLast(name string) (prefix, last string, ok bool) {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[:i], name[i+1:], true
		}
	}
	return "", name, false
}

// typeRef parses a dotted type name with optional [] suffixes.
func (p *parser) typeRef() (typeRef, error) {
	if p.atKeyword(kwVoid) {
		p.next()
		return typeRef{}, nil
	}
	name, err := p.dottedName()
	if err != nil {
		return typeRef{}, err
	}
	tr := typeRef{name: name}
	for p.cur.kind == tokArr {
		p.next()
		tr.dims++
	}
	return tr, nil
}

func (p *parser) classDecl() (*classDecl, error) {
	t := p.next() // class | interface
	cd := &classDecl{line: t.line, isInterface: t.text == kwInterface}
	var err error
	if cd.name, err = p.dottedName(); err != nil {
		return nil, err
	}
	if p.atKeyword(kwExtends) {
		p.next()
		sup, err := p.dottedName()
		if err != nil {
			return nil, err
		}
		if cd.isInterface {
			cd.interfaces = append(cd.interfaces, sup)
			for p.cur.kind == tokComma {
				p.next()
				more, err := p.dottedName()
				if err != nil {
					return nil, err
				}
				cd.interfaces = append(cd.interfaces, more)
			}
		} else {
			cd.super = sup
		}
	}
	if p.atKeyword(kwImplements) {
		if cd.isInterface {
			return nil, p.errf(p.cur.line, "interface %s cannot use 'implements'", cd.name)
		}
		p.next()
		for {
			in, err := p.dottedName()
			if err != nil {
				return nil, err
			}
			cd.interfaces = append(cd.interfaces, in)
			if p.cur.kind != tokComma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.cur.kind != tokRBrace {
		if p.cur.kind == tokEOF {
			return nil, p.errf(cd.line, "unterminated class %s", cd.name)
		}
		static := false
		if p.atKeyword(kwStatic) {
			p.next()
			static = true
		}
		abstract := false
		if p.atKeyword(kwAbstract) {
			p.next()
			abstract = true
		}
		switch {
		case p.atKeyword(kwField):
			if abstract {
				return nil, p.errf(p.cur.line, "field cannot be abstract")
			}
			fd, err := p.fieldDecl(static)
			if err != nil {
				return nil, err
			}
			cd.fields = append(cd.fields, fd)
		case p.atKeyword(kwMethod):
			md, err := p.methodDecl(static, abstract || cd.isInterface)
			if err != nil {
				return nil, err
			}
			cd.methods = append(cd.methods, md)
		default:
			return nil, p.errf(p.cur.line, "expected 'field' or 'method' in class %s, found %s", cd.name, p.cur)
		}
	}
	p.next() // }
	return cd, nil
}

func (p *parser) fieldDecl(static bool) (fieldDecl, error) {
	t := p.next() // field
	name, err := p.expect(tokIdent)
	if err != nil {
		return fieldDecl{}, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return fieldDecl{}, err
	}
	tr, err := p.typeRef()
	if err != nil {
		return fieldDecl{}, err
	}
	if tr.isVoid() {
		return fieldDecl{}, p.errf(t.line, "field %s cannot be void", name.text)
	}
	return fieldDecl{line: t.line, name: name.text, typ: tr, static: static}, nil
}

// methodDecl parses a method signature. A concrete method's body is
// skipped, not parsed: the second pass comes back to it.
func (p *parser) methodDecl(static, abstract bool) (methodDecl, error) {
	t := p.next() // method
	name, err := p.expect(tokIdent)
	if err != nil {
		return methodDecl{}, err
	}
	md := methodDecl{line: t.line, name: name.text, static: static, abstract: abstract}
	if _, err := p.expect(tokLParen); err != nil {
		return md, err
	}
	for p.cur.kind != tokRParen {
		pn, err := p.expect(tokIdent)
		if err != nil {
			return md, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return md, err
		}
		tr, err := p.typeRef()
		if err != nil {
			return md, err
		}
		if tr.isVoid() {
			return md, p.errf(pn.line, "parameter %s cannot be void", pn.text)
		}
		md.params = append(md.params, paramDecl{name: pn.text, typ: tr})
		if p.cur.kind == tokComma {
			p.next()
		}
	}
	p.next() // )
	if _, err := p.expect(tokColon); err != nil {
		return md, err
	}
	if md.ret, err = p.typeRef(); err != nil || md.abstract {
		return md, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return md, err
	}
	md.bodyPos, md.bodyLine = p.cur.pos, p.cur.line
	// No statement contains a brace, so the body ends at the next '}'.
	lx := lexer{src: p.lx.src, pos: md.bodyPos, line: md.bodyLine}
	if !lx.skipBody() {
		// The body has a syntax or lex error: parse it to report that error.
		p.seek(md.bodyPos, md.bodyLine)
		return md, p.body(&md)
	}
	p.seek(lx.pos+1, lx.line)
	return md, nil
}
