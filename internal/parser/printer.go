package parser

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"mahjong/internal/lang"
)

// flushAt is the buffered text size at which a streaming printer hands
// its buffer to the writer. Lines are short, so the buffer stays near
// this size however large the program is.
const flushAt = 4 << 10

// Print renders a program in the textual IR format accepted by Parse.
// Array classes are omitted (they are created on demand by the parser)
// and synthetic variables (this, parameters, $ret) are not re-declared.
// Print(Parse(s)) is semantically idempotent; see the round-trip tests.
func Print(p *lang.Program) string {
	var b strings.Builder
	WriteProgram(&b, p) // a strings.Builder never fails
	return b.String()
}

// WriteProgram streams Print's text to w through one reused buffer, so
// the whole text never exists at once. It returns the first write error.
func WriteProgram(w io.Writer, p *lang.Program) error {
	pr := printer{buf: make([]byte, 0, 2*flushAt), w: w}
	for _, c := range p.Classes {
		if c == p.Object() || c.IsArray() {
			continue
		}
		pr.class(p, c)
		pr.line()
	}
	if e := p.Entry; e != nil {
		pr.str("entry ", e.Owner.Name, ".", e.Name, "/")
		pr.line(strconv.Itoa(len(e.Params)))
	}
	pr.flush()
	return pr.err
}

// printer appends canonical IR text to buf. With a writer, it hands buf
// to w at the end of every line that fills it to flushAt and keeps the
// first write error; without one, the text accumulates in buf.
type printer struct {
	buf []byte
	w   io.Writer
	err error
}

func (p *printer) str(ss ...string) {
	for _, s := range ss {
		p.buf = append(p.buf, s...)
	}
}

// sep separates the items of a comma-separated list.
func (p *printer) sep(i int) {
	if i > 0 {
		p.str(", ")
	}
}

// line writes ss and ends the line, handing a full buffer to the writer.
func (p *printer) line(ss ...string) {
	p.str(ss...)
	p.buf = append(p.buf, '\n')
	if p.w != nil && len(p.buf) >= flushAt {
		p.flush()
	}
}

func (p *printer) flush() {
	if p.err == nil {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// ret closes a method's parameter list and writes its return type.
func (p *printer) ret(m *lang.Method) {
	p.str("): ")
	if m.Ret == nil {
		p.str("void")
	} else {
		p.str(m.Ret.Name)
	}
}

func (p *printer) class(prog *lang.Program, c *lang.Class) {
	if c.IsInterface {
		p.str("interface ", c.Name)
		if len(c.Interfaces) > 0 {
			p.str(" extends ")
		}
	} else {
		p.str("class ", c.Name)
		if c.Super != nil && c.Super != prog.Object() {
			p.str(" extends ", c.Super.Name)
		}
		if len(c.Interfaces) > 0 {
			p.str(" implements ")
		}
	}
	for i, it := range c.Interfaces {
		p.sep(i)
		p.str(it.Name)
	}
	p.line(" {")
	for _, f := range c.DeclaredFields {
		p.str("  ")
		if f.IsStatic {
			p.str("static ")
		}
		p.line("field ", f.Name, ": ", f.Type.Name)
	}
	for _, m := range c.DeclaredMethods {
		p.method(m)
	}
	p.line("}")
}

func (p *printer) method(m *lang.Method) {
	p.str("  ")
	if m.IsStatic {
		p.str("static ")
	}
	if m.IsAbstract && !m.Owner.IsInterface {
		p.str("abstract ")
	}
	p.str("method ", m.Name, "(")
	for i, pv := range m.Params {
		p.sep(i)
		p.str(pv.Name, ": ", pv.Type.Name)
	}
	p.ret(m)
	if m.IsAbstract {
		p.line()
		return
	}
	p.line(" {")
	for _, v := range m.Locals {
		// $exc is synthetic; throw/catch/calls recreate it on demand.
		if v.Name == "$exc" || v == m.This || v == m.RetVar || slices.Contains(m.Params, v) {
			continue
		}
		p.line("    var ", v.Name, ": ", v.Type.Name)
	}
	for _, st := range m.Stmts {
		p.str("    ")
		p.stmt(st)
		p.line()
	}
	p.line("  }")
}

func (p *printer) stmt(st lang.Stmt) {
	switch s := st.(type) {
	case *lang.Alloc:
		p.str(s.LHS.Name, " = new ", s.Site.Type.Name)
	case *lang.Copy:
		p.str(s.LHS.Name, " = ", s.RHS.Name)
	case *lang.Load:
		if s.Field.Name == lang.ElemField {
			p.str(s.LHS.Name, " = ", s.Base.Name, "[]")
		} else {
			p.str(s.LHS.Name, " = ", s.Base.Name, ".", s.Field.Name)
		}
	case *lang.Store:
		if s.Field.Name == lang.ElemField {
			p.str(s.Base.Name, "[] = ", s.RHS.Name)
		} else {
			p.str(s.Base.Name, ".", s.Field.Name, " = ", s.RHS.Name)
		}
	case *lang.StaticLoad:
		p.str(s.LHS.Name, " = ", s.Field.Owner.Name, ".", s.Field.Name)
	case *lang.StaticStore:
		p.str(s.Field.Owner.Name, ".", s.Field.Name, " = ", s.RHS.Name)
	case *lang.Cast:
		p.str(s.LHS.Name, " = (", s.Type.Name, ") ", s.RHS.Name)
	case *lang.Invoke:
		if s.LHS != nil {
			p.str(s.LHS.Name, " = ")
		}
		switch s.Kind {
		case lang.VirtualCall:
			p.str(s.Base.Name, ".", s.Callee.Name)
		case lang.StaticCall:
			p.str(s.Callee.Owner.Name, ".", s.Callee.Name)
		case lang.SpecialCall:
			p.str("special ", s.Base.Name, ".", s.Callee.Owner.Name, ".", s.Callee.Name)
		}
		p.str("(")
		for i, a := range s.Args {
			p.sep(i)
			p.str(a.Name)
		}
		p.str(")")
	case *lang.Return:
		p.str("return")
		if s.Value != nil {
			p.str(" ", s.Value.Name)
		}
	case *lang.Throw:
		p.str("throw ", s.Value.Name)
	case *lang.Catch:
		p.str(s.LHS.Name, " = catch ", s.Type.Name)
	default:
		p.buf = fmt.Appendf(p.buf, "// unknown stmt %T", st)
	}
}

// shape writes ClassShape's text.
func (p *printer) shape(c *lang.Class) {
	if c.IsInterface {
		p.str("interface ", c.Name)
	} else {
		p.str("class ", c.Name)
	}
	if c.Super != nil {
		p.str(" extends ", c.Super.Name)
	}
	for _, it := range c.Interfaces {
		p.str(" implements ", it.Name)
	}
	p.line()
	for _, f := range c.DeclaredFields {
		if f.IsStatic {
			p.str("  static")
		}
		p.line("  field ", f.Name, ": ", f.Type.Name)
	}
	for _, m := range c.DeclaredMethods {
		if m.IsStatic {
			p.str("  static")
		}
		if m.IsAbstract {
			p.str("  abstract")
		}
		p.str("  method ", m.Name, "(")
		for i, pv := range m.Params {
			p.sep(i)
			p.str(pv.Type.Name)
		}
		p.ret(m)
		p.line()
	}
}
