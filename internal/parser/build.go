package parser

import (
	"fmt"

	"mahjong/internal/lang"
)

// build resolves the first pass's declarations into a lang.Program:
// classes are created in topological extends-order, then fields and
// method signatures are declared, then the second pass parses each
// method body into its method, then the entry point is resolved.
func (p *parser) build() (*lang.Program, error) {
	p.prog = lang.NewProgram()
	if err := p.declareClasses(); err != nil {
		return nil, err
	}
	if err := p.declareMembers(); err != nil {
		return nil, err
	}
	if err := p.buildBodies(); err != nil {
		return nil, err
	}
	entry := p.prog.Class(p.entryClass)
	if entry == nil {
		return nil, p.errf(p.entryLine, "entry class %q not declared", p.entryClass)
	}
	m := entry.DeclaredMethod(lang.Sig{Name: p.entryName, Arity: p.entryArity})
	if m == nil {
		return nil, p.errf(p.entryLine, "entry method %s.%s/%d not declared", p.entryClass, p.entryName, p.entryArity)
	}
	if !m.IsStatic {
		return nil, p.errf(p.entryLine, "entry method %s must be static", m)
	}
	p.prog.SetEntry(m)
	if err := p.prog.Validate(); err != nil {
		return nil, fmt.Errorf("%s: validation failed: %w", p.name, err)
	}
	return p.prog, nil
}

// declareClasses creates all classes in an order compatible with the
// extends/implements relation.
func (p *parser) declareClasses() error {
	byName := make(map[string]*classDecl, len(p.classes))
	for _, d := range p.classes {
		if _, dup := byName[d.name]; dup {
			return p.errf(d.line, "duplicate class %q", d.name)
		}
		if d.name == "java.lang.Object" {
			return p.errf(d.line, "java.lang.Object is built in and cannot be redeclared")
		}
		byName[d.name] = d
	}
	// Topological order over super + interface dependencies.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make(map[string]int, len(p.classes))
	var visit func(d *classDecl) error
	visit = func(d *classDecl) error {
		switch state[d.name] {
		case black:
			return nil
		case grey:
			return p.errf(d.line, "inheritance cycle through %q", d.name)
		}
		state[d.name] = grey
		deps := d.interfaces
		if d.super != "" {
			deps = append([]string{d.super}, deps...)
		}
		for _, dep := range deps {
			if dd, ok := byName[dep]; ok {
				if err := visit(dd); err != nil {
					return err
				}
			} else if dep != "java.lang.Object" {
				return p.errf(d.line, "class %q depends on undeclared %q", d.name, dep)
			}
		}
		state[d.name] = black

		var super *lang.Class
		if d.super != "" {
			super = p.prog.Class(d.super)
			if super.IsInterface {
				return p.errf(d.line, "class %q extends interface %q", d.name, d.super)
			}
		}
		ifaces := make([]*lang.Class, 0, len(d.interfaces))
		for _, in := range d.interfaces {
			ic := p.prog.Class(in)
			if !ic.IsInterface {
				return p.errf(d.line, "%q is not an interface", in)
			}
			ifaces = append(ifaces, ic)
		}
		if d.isInterface {
			p.prog.NewInterface(d.name, ifaces...)
		} else {
			p.prog.NewClass(d.name, super, ifaces...)
		}
		return nil
	}
	for _, d := range p.classes {
		if err := visit(d); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) resolveType(line int, tr typeRef) (*lang.Class, error) {
	c := p.prog.Class(tr.name)
	if c == nil {
		return nil, p.errf(line, "unknown type %q", tr.name)
	}
	for i := 0; i < tr.dims; i++ {
		c = p.prog.ArrayOf(c)
	}
	return c, nil
}

func (p *parser) declareMembers() error {
	for _, d := range p.classes {
		c := p.prog.Class(d.name)
		for _, fd := range d.fields {
			ft, err := p.resolveType(fd.line, fd.typ)
			if err != nil {
				return err
			}
			// The IR forbids shadowing inherited fields to keep field
			// resolution unambiguous.
			if f := c.Field(fd.name); f != nil {
				if f.Owner != c {
					return p.errf(fd.line, "field %s shadows %s", fd.name, f)
				}
				return p.errf(fd.line, "duplicate field %s", f)
			}
			if fd.static {
				c.NewStaticField(fd.name, ft)
			} else {
				c.NewField(fd.name, ft)
			}
		}
		for _, md := range d.methods {
			params := p.types[:0]
			for _, pd := range md.params {
				pt, err := p.resolveType(md.line, pd.typ)
				if err != nil {
					return err
				}
				params = append(params, pt)
			}
			p.types = params
			var ret *lang.Class
			if !md.ret.isVoid() {
				var err error
				ret, err = p.resolveType(md.line, md.ret)
				if err != nil {
					return err
				}
			}
			if c.DeclaredMethod(lang.Sig{Name: md.name, Arity: len(params)}) != nil {
				return p.errf(md.line, "duplicate method %s.%s/%d", c, md.name, len(params))
			}
			var m *lang.Method
			if md.abstract {
				m = c.NewAbstractMethod(md.name, params, ret)
			} else {
				m = c.NewMethod(md.name, md.static, params, ret)
			}
			for i, pd := range md.params {
				m.Params[i].Name = pd.name
			}
		}
	}
	return nil
}

// buildBodies is the second pass: it parses every concrete method's
// body, in source order, straight into the declared method.
func (p *parser) buildBodies() error {
	p.vars = make(map[string]*lang.Var)
	for _, d := range p.classes {
		c := p.prog.Class(d.name)
		for i := range d.methods {
			md := &d.methods[i]
			if md.abstract {
				continue
			}
			p.m = c.DeclaredMethod(lang.Sig{Name: md.name, Arity: len(md.params)})
			clear(p.vars)
			if p.m.This != nil {
				p.vars["this"] = p.m.This
			}
			for _, pv := range p.m.Params {
				p.vars[pv.Name] = pv
			}
			p.seek(md.bodyPos, md.bodyLine)
			if err := p.body(md); err != nil {
				return err
			}
		}
	}
	return nil
}

// body parses the statements of a method body up to and including its
// closing '}'. Each statement is added to p.m as soon as it is parsed;
// with p.m nil the body is only checked for syntax.
func (p *parser) body(md *methodDecl) error {
	for p.cur.kind != tokRBrace {
		if p.cur.kind == tokEOF {
			return p.errf(md.line, "unterminated method %s", md.name)
		}
		if err := p.stmt(); err != nil {
			return err
		}
	}
	p.next() // }
	return nil
}

// lookup resolves a variable of the method being built. An empty name
// (an absent left-hand side) resolves to nil.
func (p *parser) lookup(line int, name string) (*lang.Var, error) {
	if v, ok := p.vars[name]; ok || name == "" {
		return v, nil
	}
	return nil, p.errf(line, "undeclared variable %q in %s", name, p.m)
}

// lookup2 resolves two variables, a first.
func (p *parser) lookup2(line int, a, b string) (*lang.Var, *lang.Var, error) {
	va, err := p.lookup(line, a)
	if err != nil {
		return nil, nil, err
	}
	vb, err := p.lookup(line, b)
	return va, vb, err
}

// resolveBase resolves the dotted base of a field access or call: a
// name that is a local variable wins; otherwise the whole dotted name
// must be a class.
func (p *parser) resolveBase(line int, name string) (*lang.Var, *lang.Class, error) {
	if v, ok := p.vars[name]; ok {
		return v, nil, nil
	}
	if c := p.prog.Class(name); c != nil {
		return nil, c, nil
	}
	return nil, nil, p.errf(line, "%q is neither a variable nor a class", name)
}

// field resolves base.sel: an instance field of a variable's type, with
// that variable, or a static field of a class, with a nil variable.
func (p *parser) field(line int, name string) (*lang.Var, *lang.Field, error) {
	base, sel, _ := splitLast(name)
	v, cls, err := p.resolveBase(line, base)
	if err != nil {
		return nil, nil, err
	}
	if v != nil {
		f := v.Type.Field(sel)
		if f == nil || f.IsStatic {
			return nil, nil, p.errf(line, "type %s has no instance field %q", v.Type, sel)
		}
		return v, f, nil
	}
	f := cls.Field(sel)
	if f == nil || !f.IsStatic {
		return nil, nil, p.errf(line, "class %s has no static field %q", cls, sel)
	}
	return nil, f, nil
}

// elemField returns the element pseudo-field of arr's array type.
func (p *parser) elemField(line int, arr *lang.Var) (*lang.Field, error) {
	if f := arr.Type.Field(lang.ElemField); f != nil {
		return f, nil
	}
	return nil, p.errf(line, "%s is not an array type", arr.Type)
}

// lookupArgs resolves the argument names argList collected.
func (p *parser) lookupArgs(line int) ([]*lang.Var, error) {
	args := make([]*lang.Var, 0, len(p.args))
	for _, a := range p.args {
		v, err := p.lookup(line, a)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}
