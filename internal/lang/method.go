package lang

import (
	"fmt"
	"strconv"
)

// Method is a method with an optional body (abstract methods have none).
type Method struct {
	ID         int
	Owner      *Class
	Name       string
	IsStatic   bool
	IsAbstract bool

	This   *Var // nil for static methods
	Params []*Var
	Ret    *Class // nil for void
	RetVar *Var   // nil for void; every `return v` copies into it

	Locals []*Var // all variables, including this/params/RetVar
	Stmts  []Stmt

	prog   *Program
	excVar *Var // synthetic $exc; see exceptions.go
}

// Sig returns the method's dispatch signature.
func (m *Method) Sig() Sig { return Sig{Name: m.Name, Arity: len(m.Params)} }

func (m *Method) String() string {
	return m.Owner.Name + "." + m.Name + "/" + strconv.Itoa(len(m.Params))
}

// NewVar declares a local variable in m.
func (m *Method) NewVar(name string, typ *Class) *Var {
	if typ == nil {
		panic(fmt.Sprintf("lang: var %s in %s has nil type", name, m.Name))
	}
	v := &Var{Index: len(m.Locals), Name: name, Type: typ, Method: m}
	m.Locals = append(m.Locals, v)
	return v
}

// Var is a method-local variable (including this, parameters and the
// synthetic return variable).
type Var struct {
	Index  int // position within Method.Locals
	Name   string
	Type   *Class
	Method *Method
}

func (v *Var) String() string {
	if v.Method == nil {
		return v.Name
	}
	return v.Method.String() + "#" + v.Name
}

// AllocSite is a `new T` occurrence; the unit of the allocation-site
// heap abstraction.
type AllocSite struct {
	ID     int
	Type   *Class
	Method *Method
	Label  string // stable human-readable tag, e.g. "Main.main/new A#0"
}

func (s *AllocSite) String() string { return s.Label }

func (m *Method) addStmt(s Stmt) {
	if m.IsAbstract {
		panic("lang: adding statement to abstract method " + m.String())
	}
	m.Stmts = append(m.Stmts, s)
}

// AddAlloc appends `lhs = new typ` and returns its allocation site.
func (m *Method) AddAlloc(lhs *Var, typ *Class) *AllocSite {
	if typ.IsInterface {
		panic("lang: cannot allocate interface " + typ.Name)
	}
	id := len(m.prog.Sites)
	site := &AllocSite{
		ID:     id,
		Type:   typ,
		Method: m,
		// Concatenated rather than formatted: a label is built for every
		// site on every parse.
		Label: m.Owner.Name + "." + m.Name + "/" + strconv.Itoa(len(m.Params)) +
			"/new " + typ.Name + "#" + strconv.Itoa(id),
	}
	m.prog.Sites = append(m.prog.Sites, site)
	m.addStmt(&Alloc{LHS: lhs, Site: site})
	return site
}

// AddCopy appends `lhs = rhs`.
func (m *Method) AddCopy(lhs, rhs *Var) { m.addStmt(&Copy{LHS: lhs, RHS: rhs}) }

// AddLoad appends `lhs = base.field`.
func (m *Method) AddLoad(lhs, base *Var, field *Field) {
	if field.IsStatic {
		panic("lang: instance load of static field " + field.String())
	}
	m.addStmt(&Load{LHS: lhs, Base: base, Field: field})
}

// AddStore appends `base.field = rhs`.
func (m *Method) AddStore(base *Var, field *Field, rhs *Var) {
	if field.IsStatic {
		panic("lang: instance store of static field " + field.String())
	}
	m.addStmt(&Store{Base: base, Field: field, RHS: rhs})
}

// AddStaticLoad appends `lhs = Owner.field`.
func (m *Method) AddStaticLoad(lhs *Var, field *Field) {
	if !field.IsStatic {
		panic("lang: static load of instance field " + field.String())
	}
	m.addStmt(&StaticLoad{LHS: lhs, Field: field})
}

// AddStaticStore appends `Owner.field = rhs`.
func (m *Method) AddStaticStore(field *Field, rhs *Var) {
	if !field.IsStatic {
		panic("lang: static store of instance field " + field.String())
	}
	m.addStmt(&StaticStore{Field: field, RHS: rhs})
}

// AddCast appends `lhs = (typ) rhs`.
func (m *Method) AddCast(lhs *Var, typ *Class, rhs *Var) {
	m.addStmt(&Cast{LHS: lhs, Type: typ, RHS: rhs})
}

// AddVirtualCall appends `lhs = base.name(args...)`; lhs may be nil.
// The callee signature must resolve against base's static type.
func (m *Method) AddVirtualCall(lhs, base *Var, name string, args ...*Var) *Invoke {
	sig := Sig{Name: name, Arity: len(args)}
	decl := base.Type.LookupMethod(sig)
	if decl == nil {
		panic(fmt.Sprintf("lang: virtual call %s.%s unresolved in %s", base.Type.Name, sig, m))
	}
	return m.addInvoke(&Invoke{Kind: VirtualCall, LHS: lhs, Base: base, Callee: decl, Args: args})
}

// AddStaticCall appends `lhs = callee(args...)` for a static callee.
func (m *Method) AddStaticCall(lhs *Var, callee *Method, args ...*Var) *Invoke {
	if !callee.IsStatic {
		panic("lang: static call to instance method " + callee.String())
	}
	return m.addInvoke(&Invoke{Kind: StaticCall, LHS: lhs, Callee: callee, Args: args})
}

// AddSpecialCall appends a non-virtual instance call (constructor,
// private or super call): the callee is fixed, not dispatched.
func (m *Method) AddSpecialCall(lhs, base *Var, callee *Method, args ...*Var) *Invoke {
	if callee.IsStatic || callee.IsAbstract {
		panic("lang: special call must target a concrete instance method: " + callee.String())
	}
	return m.addInvoke(&Invoke{Kind: SpecialCall, LHS: lhs, Base: base, Callee: callee, Args: args})
}

func (m *Method) addInvoke(inv *Invoke) *Invoke {
	if len(inv.Args) != len(inv.Callee.Params) {
		panic(fmt.Sprintf("lang: arity mismatch calling %s from %s", inv.Callee, m))
	}
	inv.ID = m.prog.nextInvokeID()
	inv.In = m
	m.addStmt(inv)
	return inv
}

// AddReturn appends `return v` (v nil for a bare return).
func (m *Method) AddReturn(v *Var) {
	if v != nil && m.RetVar == nil {
		panic("lang: value return from void method " + m.String())
	}
	m.addStmt(&Return{Value: v})
}
