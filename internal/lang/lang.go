// Package lang defines the object-oriented intermediate representation
// analyzed by this repository.
//
// The IR is a compact stand-in for the Java bytecode that the Mahjong
// paper analyzes through Doop/Soot: classes with single inheritance plus
// interfaces, instance and static fields, virtual/static/special calls,
// casts, allocation sites, and arrays (modeled as classes with a single
// element pseudo-field named "[]"). It deliberately exercises exactly the
// language features points-to analysis and the Mahjong heap abstraction
// care about: field-access paths, subtyping, dynamic dispatch and casts.
//
// A Program is built either programmatically (see the New* and Add*
// methods, used by the synthetic benchmark generator) or from the textual
// format understood by package parser.
package lang

import "fmt"

// ElemField is the name of the pseudo-field that models array element
// access: a load `x = a[i]` is represented as a Load of field "[]".
const ElemField = "[]"

// Program is a closed world of classes plus a designated entry method.
type Program struct {
	classes map[string]*Class

	Classes []*Class     // in creation order; arrays included
	Fields  []*Field     // all fields, instance and static
	Methods []*Method    // all methods
	Sites   []*AllocSite // all allocation sites
	Entry   *Method      // analysis root; must be static

	objectClass *Class
	invokeCount int
}

// NewProgram returns a program containing only the root class
// "java.lang.Object".
func NewProgram() *Program {
	p := &Program{classes: make(map[string]*Class)}
	p.objectClass = p.NewClass("java.lang.Object", nil)
	return p
}

// NumInvokes returns the number of call sites created so far; Invoke
// IDs lie below it.
func (p *Program) NumInvokes() int { return p.invokeCount }

// Object returns the root class of the hierarchy.
func (p *Program) Object() *Class { return p.objectClass }

// Class returns the class with the given name, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// ConcreteSubtypes returns the allocatable classes conforming to t: every
// non-interface class c with c.SubtypeOf(t), in declaration order. When t
// itself is concrete it is included; for an interface with no implementors
// the result is empty (such a type has no valid allocation).
func (p *Program) ConcreteSubtypes(t *Class) []*Class {
	var out []*Class
	for _, c := range p.Classes {
		if !c.IsInterface && c.SubtypeOf(t) {
			out = append(out, c)
		}
	}
	return out
}

// NewClass creates a (non-interface) class. A nil super means the class
// extends java.lang.Object, except for Object itself. It panics if the
// name is already taken; IR construction errors are programming errors.
func (p *Program) NewClass(name string, super *Class, interfaces ...*Class) *Class {
	return p.newClass(name, super, false, interfaces)
}

// NewInterface creates an interface type. Interfaces have Object as
// super for subtyping purposes and may extend other interfaces.
func (p *Program) NewInterface(name string, extends ...*Class) *Class {
	return p.newClass(name, nil, true, extends)
}

func (p *Program) newClass(name string, super *Class, isInterface bool, interfaces []*Class) *Class {
	if _, dup := p.classes[name]; dup {
		panic(fmt.Sprintf("lang: duplicate class %q", name))
	}
	if super == nil && p.objectClass != nil {
		super = p.objectClass
	}
	for _, it := range interfaces {
		if it == nil || !it.IsInterface {
			panic(fmt.Sprintf("lang: class %q implements non-interface", name))
		}
	}
	c := &Class{
		ID:          len(p.Classes),
		Name:        name,
		Super:       super,
		Interfaces:  interfaces,
		IsInterface: isInterface,
		prog:        p,
		fieldByName: make(map[string]*Field),
		methodBySig: make(map[Sig]*Method),
	}
	p.classes[name] = c
	p.Classes = append(p.Classes, c)
	return c
}

// ArrayOf returns the array class with the given element type, creating
// it on first use. The array class subtypes Object and carries a single
// instance pseudo-field named "[]" typed at the element type.
func (p *Program) ArrayOf(elem *Class) *Class {
	name := elem.Name + "[]"
	if c, ok := p.classes[name]; ok {
		return c
	}
	c := p.NewClass(name, p.objectClass)
	c.Elem = elem
	c.NewField(ElemField, elem)
	return c
}

// SetEntry designates the analysis entry point; it must be static.
func (p *Program) SetEntry(m *Method) {
	if m == nil || !m.IsStatic {
		panic("lang: entry method must be a static method")
	}
	p.Entry = m
}

// Stats summarises program size.
type Stats struct {
	Classes    int
	Interfaces int
	Methods    int
	Fields     int
	Stmts      int
	AllocSites int
	CallSites  int
}

// Stats returns size counters for the program.
func (p *Program) Stats() Stats {
	var s Stats
	for _, c := range p.Classes {
		if c.IsInterface {
			s.Interfaces++
		} else {
			s.Classes++
		}
	}
	s.Methods = len(p.Methods)
	s.Fields = len(p.Fields)
	s.AllocSites = len(p.Sites)
	for _, m := range p.Methods {
		s.Stmts += len(m.Stmts)
		for _, st := range m.Stmts {
			if _, ok := st.(*Invoke); ok {
				s.CallSites++
			}
		}
	}
	return s
}
