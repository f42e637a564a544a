package parser

import "mahjong/internal/lang"

// Statements are parsed and resolved in one step: each form parses its
// tokens, returns early when only syntax is being checked (p.m == nil),
// then resolves its names and adds itself to p.m.

func (p *parser) stmt() error {
	t := p.cur
	switch {
	case p.atKeyword(kwVar):
		p.next()
		name, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tokColon); err != nil {
			return err
		}
		tr, err := p.typeRef()
		if err != nil {
			return err
		}
		if tr.isVoid() {
			return p.errf(t.line, "variable %s cannot be void", name.text)
		}
		if p.m == nil {
			return nil
		}
		if _, dup := p.vars[name.text]; dup {
			return p.errf(t.line, "variable %q redeclared", name.text)
		}
		typ, err := p.resolveType(t.line, tr)
		if err != nil {
			return err
		}
		p.vars[name.text] = p.m.NewVar(name.text, typ)
		return nil

	case p.atKeyword(kwReturn):
		p.next()
		var rhs string
		if p.cur.kind == tokIdent && !p.startsStmt() {
			rhs = p.next().text
		}
		if p.m == nil {
			return nil
		}
		v, err := p.lookup(t.line, rhs)
		if err != nil {
			return err
		}
		if v != nil && p.m.RetVar == nil {
			return p.errf(t.line, "value return from void method %s", p.m)
		}
		p.m.AddReturn(v)
		return nil

	case p.atKeyword(kwThrow):
		p.next()
		rhs, err := p.expect(tokIdent)
		if err != nil || p.m == nil {
			return err
		}
		v, err := p.lookup(t.line, rhs.text)
		if err != nil {
			return err
		}
		p.m.AddThrow(v)
		return nil

	case p.atKeyword(kwSpecial):
		return p.specialCall(t.line, "")

	case t.kind == tokIdent:
		return p.assignOrCall()

	default:
		return p.errf(t.line, "expected statement, found %s", t)
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

// argList parses a parenthesised argument list into p.args.
func (p *parser) argList() error {
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	p.args = p.args[:0]
	for p.cur.kind != tokRParen {
		a, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		p.args = append(p.args, a.text)
		if p.cur.kind == tokComma {
			p.next()
		}
	}
	p.next() // )
	return nil
}

// specialCall parses `special recv.Class.m(args)`; lhs is "" when the
// result is unused.
func (p *parser) specialCall(line int, lhs string) error {
	p.next() // special
	recv, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	name, err := p.dottedName()
	if err != nil {
		return err
	}
	clsName, sel, ok := splitLast(name)
	if !ok {
		return p.errf(line, "special call needs Class.method after receiver")
	}
	if err := p.argList(); err != nil || p.m == nil {
		return err
	}
	out, base, err := p.lookup2(line, lhs, recv.text)
	if err != nil {
		return err
	}
	cls := p.prog.Class(clsName)
	if cls == nil {
		return p.errf(line, "unknown class %q in special call", clsName)
	}
	args, err := p.lookupArgs(line)
	if err != nil {
		return err
	}
	callee := cls.DeclaredMethod(lang.Sig{Name: sel, Arity: len(args)})
	if callee == nil || callee.IsStatic || callee.IsAbstract {
		return p.errf(line, "no concrete instance method %s/%d on %s", sel, len(args), cls)
	}
	p.m.AddSpecialCall(out, base, callee, args...)
	return nil
}

// call parses the argument list of `[lhs =] base.sel(args)`, where name
// is the dotted base.sel, and adds a virtual call when base is a
// variable or a static call when it is a class.
func (p *parser) call(line int, lhs, name string) error {
	baseName, sel, ok := splitLast(name)
	if !ok {
		return p.errf(line, "call needs a receiver or class qualifier: %q", name)
	}
	if err := p.argList(); err != nil || p.m == nil {
		return err
	}
	out, err := p.lookup(line, lhs)
	if err != nil {
		return err
	}
	args, err := p.lookupArgs(line)
	if err != nil {
		return err
	}
	base, cls, err := p.resolveBase(line, baseName)
	if err != nil {
		return err
	}
	sig := lang.Sig{Name: sel, Arity: len(args)}
	if base != nil {
		if base.Type.LookupMethod(sig) == nil {
			return p.errf(line, "no method %s on %s", sig, base.Type)
		}
		p.m.AddVirtualCall(out, base, sel, args...)
		return nil
	}
	callee := cls.DeclaredMethod(sig)
	if callee == nil || !callee.IsStatic {
		return p.errf(line, "no static method %s/%d on %s", sel, len(args), cls)
	}
	p.m.AddStaticCall(out, callee, args...)
	return nil
}

// assignOrCall parses statements that begin with an identifier.
func (p *parser) assignOrCall() error {
	line := p.cur.line
	first, err := p.dottedName()
	if err != nil {
		return err
	}
	_, _, dotted := splitLast(first)
	switch p.cur.kind {
	case tokArr: // x[] = y
		p.next()
		if dotted {
			return p.errf(line, "array store base must be a variable, found %q", first)
		}
		if _, err := p.expect(tokAssign); err != nil {
			return err
		}
		rhs, err := p.expect(tokIdent)
		if err != nil || p.m == nil {
			return err
		}
		arr, v, err := p.lookup2(line, first, rhs.text)
		if err != nil {
			return err
		}
		f, err := p.elemField(line, arr)
		if err != nil {
			return err
		}
		p.m.AddStore(arr, f, v)
		return nil

	case tokLParen: // base.m(args) with no lhs
		return p.call(line, "", first)

	case tokAssign:
		p.next()
		if !dotted {
			return p.assignRHS(line, first)
		}
		// base.f = rhs (instance or static store)
		rhs, err := p.expect(tokIdent)
		if err != nil || p.m == nil {
			return err
		}
		v, err := p.lookup(line, rhs.text)
		if err != nil {
			return err
		}
		base, f, err := p.field(line, first)
		if err != nil {
			return err
		}
		if base != nil {
			p.m.AddStore(base, f, v)
		} else {
			p.m.AddStaticStore(f, v)
		}
		return nil

	default:
		return p.errf(line, "expected '=', '(' or '[]' after %q, found %s", first, p.cur)
	}
}

// assignRHS parses the right-hand side of `lhs = ...`.
func (p *parser) assignRHS(line int, lhs string) error {
	switch {
	case p.atKeyword(kwCatch), p.atKeyword(kwNew):
		catch := p.next().text == kwCatch
		tr, err := p.typeRef()
		if err != nil {
			return err
		}
		if tr.isVoid() {
			if catch {
				return p.errf(line, "cannot catch void")
			}
			return p.errf(line, "cannot allocate void")
		}
		if p.m == nil {
			return nil
		}
		v, err := p.lookup(line, lhs)
		if err != nil {
			return err
		}
		typ, err := p.resolveType(line, tr)
		if err != nil {
			return err
		}
		switch {
		case catch:
			p.m.AddCatch(v, typ)
		case typ.IsInterface:
			return p.errf(line, "cannot allocate interface %s", typ)
		default:
			p.m.AddAlloc(v, typ)
		}
		return nil

	case p.atKeyword(kwSpecial):
		return p.specialCall(line, lhs)

	case p.cur.kind == tokLParen: // cast: lhs = (T) rhs
		p.next()
		tr, err := p.typeRef()
		if err != nil {
			return err
		}
		if tr.isVoid() {
			return p.errf(line, "cannot cast to void")
		}
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
		rhs, err := p.expect(tokIdent)
		if err != nil || p.m == nil {
			return err
		}
		v, src, err := p.lookup2(line, lhs, rhs.text)
		if err != nil {
			return err
		}
		typ, err := p.resolveType(line, tr)
		if err != nil {
			return err
		}
		p.m.AddCast(v, typ, src)
		return nil

	case p.cur.kind == tokIdent:
		name, err := p.dottedName()
		if err != nil {
			return err
		}
		_, _, dotted := splitLast(name)
		switch {
		case p.cur.kind == tokLParen: // lhs = base.m(args)
			return p.call(line, lhs, name)
		case p.cur.kind == tokArr: // lhs = rhs[]
			p.next()
			if dotted {
				return p.errf(line, "array load base must be a variable, found %q", name)
			}
			if p.m == nil {
				return nil
			}
			v, arr, err := p.lookup2(line, lhs, name)
			if err != nil {
				return err
			}
			f, err := p.elemField(line, arr)
			if err != nil {
				return err
			}
			p.m.AddLoad(v, arr, f)
			return nil
		case p.m == nil:
			return nil
		}
		if !dotted { // lhs = rhs
			v, src, err := p.lookup2(line, lhs, name)
			if err == nil {
				p.m.AddCopy(v, src)
			}
			return err
		}
		v, err := p.lookup(line, lhs)
		if err != nil {
			return err
		}
		// lhs = base.f (instance or static load)
		base, f, err := p.field(line, name)
		if err != nil {
			return err
		}
		if base != nil {
			p.m.AddLoad(v, base, f)
		} else {
			p.m.AddStaticLoad(v, f)
		}
		return nil

	default:
		return p.errf(line, "unexpected %s after '='", p.cur)
	}
}
