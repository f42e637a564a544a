package parser

import (
	"fmt"

	"mahjong/internal/lang"
)

// Parse parses the textual IR in src and returns the resolved program.
// name is used in error messages (typically a file name). A lex error
// is reported whenever the parse reached it, even if the tokens before
// it formed a complete file.
func Parse(name, src string) (*lang.Program, error) {
	p := &parser{name: name, lx: newLexer(src)}
	p.cur = p.lx.next()
	p.peek = p.lx.next()
	ast, err := p.file()
	if p.lx.err != nil {
		return nil, fmt.Errorf("%s: %w", name, p.lx.err)
	}
	if err != nil {
		return nil, err
	}
	return build(name, ast)
}

// parser is a recursive-descent parser over a two-token window: cur and
// peek are its only lookahead, pulled from the lexer on demand.
type parser struct {
	name      string
	lx        lexer
	cur, peek token
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

func (p *parser) file() (*fileAST, error) {
	f := &fileAST{}
	for {
		t := p.cur
		switch {
		case t.kind == tokEOF:
			if f.entryName == "" {
				return nil, p.errf(t.line, "missing 'entry' declaration")
			}
			return f, nil
		case p.atKeyword(kwClass), p.atKeyword(kwInterface):
			cd, err := p.classDecl()
			if err != nil {
				return nil, err
			}
			f.classes = append(f.classes, cd)
		case p.atKeyword(kwEntry):
			p.next()
			cls, err := p.dottedName()
			if err != nil {
				return nil, err
			}
			if len(cls) < 2 {
				return nil, p.errf(t.line, "entry must be Class.method, found %q", dotted(cls))
			}
			f.entryClass = dotted(cls[:len(cls)-1])
			f.entryName = cls[len(cls)-1]
			f.entryLine = t.line
			if p.cur.kind == tokSlash {
				p.next()
				it, err := p.expect(tokInt)
				if err != nil {
					return nil, err
				}
				for _, c := range it.text {
					f.entryArity = f.entryArity*10 + int(c-'0')
				}
			}
		default:
			return nil, p.errf(t.line, "expected 'class', 'interface' or 'entry', found %s", t)
		}
	}
}

// dottedName parses ident (. ident)* and returns the parts.
func (p *parser) dottedName() ([]string, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	parts := []string{t.text}
	for p.cur.kind == tokDot {
		// Only continue when an identifier follows: "x.f = y" must not
		// swallow the '=' position.
		if p.peek.kind != tokIdent {
			break
		}
		p.next()
		t, err = p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		parts = append(parts, t.text)
	}
	return parts, nil
}

// typeRefAfter parses a dotted type name with optional [] suffixes.
func (p *parser) typeRef() (typeRef, error) {
	if p.atKeyword(kwVoid) {
		p.next()
		return typeRef{}, nil
	}
	parts, err := p.dottedName()
	if err != nil {
		return typeRef{}, err
	}
	tr := typeRef{name: dotted(parts)}
	for p.cur.kind == tokArr {
		p.next()
		tr.dims++
	}
	return tr, nil
}

func (p *parser) classDecl() (*classDecl, error) {
	t := p.next() // class | interface
	cd := &classDecl{line: t.line, isInterface: t.text == kwInterface}
	nameParts, err := p.dottedName()
	if err != nil {
		return nil, err
	}
	cd.name = dotted(nameParts)
	if p.atKeyword(kwExtends) {
		p.next()
		sup, err := p.dottedName()
		if err != nil {
			return nil, err
		}
		if cd.isInterface {
			cd.interfaces = append(cd.interfaces, dotted(sup))
			for p.cur.kind == tokComma {
				p.next()
				more, err := p.dottedName()
				if err != nil {
					return nil, err
				}
				cd.interfaces = append(cd.interfaces, dotted(more))
			}
		} else {
			cd.super = dotted(sup)
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
			cd.interfaces = append(cd.interfaces, dotted(in))
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

func (p *parser) fieldDecl(static bool) (*fieldDecl, error) {
	t := p.next() // field
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	tr, err := p.typeRef()
	if err != nil {
		return nil, err
	}
	if tr.isVoid() {
		return nil, p.errf(t.line, "field %s cannot be void", name.text)
	}
	return &fieldDecl{line: t.line, name: name.text, typ: tr, static: static}, nil
}

func (p *parser) methodDecl(static, abstract bool) (*methodDecl, error) {
	t := p.next() // method
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	md := &methodDecl{line: t.line, name: name.text, static: static, abstract: abstract}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	for p.cur.kind != tokRParen {
		pn, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		tr, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		if tr.isVoid() {
			return nil, p.errf(pn.line, "parameter %s cannot be void", pn.text)
		}
		md.params = append(md.params, paramDecl{name: pn.text, typ: tr})
		if p.cur.kind == tokComma {
			p.next()
		}
	}
	p.next() // )
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	md.ret, err = p.typeRef()
	if err != nil {
		return nil, err
	}
	if md.abstract {
		return md, nil
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.cur.kind != tokRBrace {
		if p.cur.kind == tokEOF {
			return nil, p.errf(md.line, "unterminated method %s", md.name)
		}
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		md.body = append(md.body, st)
	}
	p.next() // }
	return md, nil
}

func (p *parser) argList() ([]string, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var args []string
	for p.cur.kind != tokRParen {
		a, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		args = append(args, a.text)
		if p.cur.kind == tokComma {
			p.next()
		}
	}
	p.next() // )
	return args, nil
}

func (p *parser) stmt() (*stmtAST, error) {
	t := p.cur
	switch {
	case p.atKeyword(kwVar):
		p.next()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		tr, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		if tr.isVoid() {
			return nil, p.errf(t.line, "variable %s cannot be void", name.text)
		}
		return &stmtAST{kind: sVarDecl, line: t.line, lhs: name.text, typ: tr}, nil

	case p.atKeyword(kwReturn):
		p.next()
		st := &stmtAST{kind: sReturn, line: t.line}
		if p.cur.kind == tokIdent && !p.startsStmt() {
			st.rhs = p.next().text
		}
		return st, nil

	case p.atKeyword(kwThrow):
		p.next()
		v, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		return &stmtAST{kind: sThrow, line: t.line, rhs: v.text}, nil

	case p.atKeyword(kwSpecial):
		return p.specialCall(t.line, "")

	case t.kind == tokIdent:
		return p.assignOrCall()

	default:
		return nil, p.errf(t.line, "expected statement, found %s", t)
	}
}

// startsStmt reports whether the current identifier begins a new
// statement keyword, used to disambiguate a bare `return` followed by
// another statement.
func (p *parser) startsStmt() bool {
	switch p.cur.text {
	case kwVar, kwReturn, kwSpecial, kwThrow:
		return true
	}
	// `x = ...`, `x.f = ...`, `x.m(...)`, `x[] = ...` all continue with
	// '=', '.', '(' or '[]'; a lone identifier at end of body is a return value.
	switch p.peek.kind {
	case tokAssign, tokDot, tokLParen, tokArr:
		return true
	}
	return false
}

func (p *parser) specialCall(line int, lhs string) (*stmtAST, error) {
	p.next() // special
	recv, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	parts, err := p.dottedName()
	if err != nil {
		return nil, err
	}
	if len(parts) < 2 {
		return nil, p.errf(line, "special call needs Class.method after receiver")
	}
	args, err := p.argList()
	if err != nil {
		return nil, err
	}
	return &stmtAST{
		kind: sSpecial, line: line, lhs: lhs,
		base: []string{recv.text},
		typ:  typeRef{name: dotted(parts[:len(parts)-1])},
		sel:  parts[len(parts)-1],
		args: args,
	}, nil
}

// assignOrCall parses statements that begin with an identifier.
func (p *parser) assignOrCall() (*stmtAST, error) {
	line := p.cur.line
	first, err := p.dottedName()
	if err != nil {
		return nil, err
	}
	switch p.cur.kind {
	case tokArr: // x[] = y
		p.next()
		if len(first) != 1 {
			return nil, p.errf(line, "array store base must be a variable, found %q", dotted(first))
		}
		if _, err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		rhs, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		return &stmtAST{kind: sSetElem, line: line, lhs: first[0], rhs: rhs.text}, nil

	case tokLParen: // base.m(args) with no lhs
		if len(first) < 2 {
			return nil, p.errf(line, "call needs a receiver or class qualifier: %q", dotted(first))
		}
		args, err := p.argList()
		if err != nil {
			return nil, err
		}
		return &stmtAST{kind: sCall, line: line, base: first[:len(first)-1], sel: first[len(first)-1], args: args}, nil

	case tokAssign:
		p.next()
		if len(first) > 1 { // base.f = rhs  (instance or static store)
			rhs, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			return &stmtAST{kind: sSetField, line: line, base: first[:len(first)-1], sel: first[len(first)-1], rhs: rhs.text}, nil
		}
		return p.assignRHS(line, first[0])

	default:
		return nil, p.errf(line, "expected '=', '(' or '[]' after %q, found %s", dotted(first), p.cur)
	}
}

// assignRHS parses the right-hand side of `lhs = ...`.
func (p *parser) assignRHS(line int, lhs string) (*stmtAST, error) {
	switch {
	case p.atKeyword(kwCatch):
		p.next()
		tr, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		if tr.isVoid() {
			return nil, p.errf(line, "cannot catch void")
		}
		return &stmtAST{kind: sCatch, line: line, lhs: lhs, typ: tr}, nil

	case p.atKeyword(kwNew):
		p.next()
		tr, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		if tr.isVoid() {
			return nil, p.errf(line, "cannot allocate void")
		}
		return &stmtAST{kind: sNew, line: line, lhs: lhs, typ: tr}, nil

	case p.atKeyword(kwSpecial):
		return p.specialCall(line, lhs)

	case p.cur.kind == tokLParen: // cast: lhs = (T) rhs
		p.next()
		tr, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		if tr.isVoid() {
			return nil, p.errf(line, "cannot cast to void")
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		rhs, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		return &stmtAST{kind: sCast, line: line, lhs: lhs, typ: tr, rhs: rhs.text}, nil

	case p.cur.kind == tokIdent:
		parts, err := p.dottedName()
		if err != nil {
			return nil, err
		}
		switch p.cur.kind {
		case tokLParen: // lhs = base.m(args)
			if len(parts) < 2 {
				return nil, p.errf(line, "call needs a receiver or class qualifier: %q", dotted(parts))
			}
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			return &stmtAST{kind: sCall, line: line, lhs: lhs, base: parts[:len(parts)-1], sel: parts[len(parts)-1], args: args}, nil
		case tokArr: // lhs = rhs[]
			p.next()
			if len(parts) != 1 {
				return nil, p.errf(line, "array load base must be a variable, found %q", dotted(parts))
			}
			return &stmtAST{kind: sGetElem, line: line, lhs: lhs, rhs: parts[0]}, nil
		default:
			if len(parts) == 1 { // lhs = rhs
				return &stmtAST{kind: sCopy, line: line, lhs: lhs, rhs: parts[0]}, nil
			}
			// lhs = base.f (instance or static load)
			return &stmtAST{kind: sGetField, line: line, lhs: lhs, base: parts[:len(parts)-1], sel: parts[len(parts)-1]}, nil
		}

	default:
		return nil, p.errf(line, "unexpected %s after '='", p.cur)
	}
}
