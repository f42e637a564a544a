package lang

import (
	"fmt"
	"strconv"
)

// Class is a class, interface or array type. Array types have Elem set
// and a single instance pseudo-field named "[]".
type Class struct {
	ID          int
	Name        string
	Super       *Class   // nil only for java.lang.Object
	Interfaces  []*Class // directly implemented/extended interfaces
	IsInterface bool
	Elem        *Class // element type when this is an array class

	DeclaredFields  []*Field
	DeclaredMethods []*Method

	prog        *Program
	fieldByName map[string]*Field
	methodBySig map[Sig]*Method
	allFields   []*Field // cache: declared + inherited instance fields
}

// Sig identifies a method within a class by name and arity. The IR does
// not model parameter-type overloading; name+arity is the dispatch key.
type Sig struct {
	Name  string
	Arity int
}

func (s Sig) String() string { return s.Name + "/" + strconv.Itoa(s.Arity) }

func (c *Class) String() string { return c.Name }

// IsArray reports whether c is an array type.
func (c *Class) IsArray() bool { return c.Elem != nil }

// NewField declares an instance field on c.
func (c *Class) NewField(name string, typ *Class) *Field {
	return c.newField(name, typ, false)
}

// NewStaticField declares a static field on c.
func (c *Class) NewStaticField(name string, typ *Class) *Field {
	return c.newField(name, typ, true)
}

func (c *Class) newField(name string, typ *Class, static bool) *Field {
	if _, dup := c.fieldByName[name]; dup {
		panic(fmt.Sprintf("lang: duplicate field %s.%s", c.Name, name))
	}
	if typ == nil {
		panic(fmt.Sprintf("lang: field %s.%s has nil type", c.Name, name))
	}
	f := &Field{
		ID:       len(c.prog.Fields),
		Name:     name,
		Owner:    c,
		Type:     typ,
		IsStatic: static,
	}
	c.fieldByName[name] = f
	c.DeclaredFields = append(c.DeclaredFields, f)
	c.prog.Fields = append(c.prog.Fields, f)
	c.allFields = nil // invalidate cache up-front; subclasses cache lazily
	return f
}

// Field resolves an instance or static field by name, searching c and
// then its superclasses. Returns nil when absent.
func (c *Class) Field(name string) *Field {
	for k := c; k != nil; k = k.Super {
		if f, ok := k.fieldByName[name]; ok {
			return f
		}
	}
	return nil
}

// InstanceFields returns the instance fields of c including inherited
// ones, superclass fields first. The result is cached and must not be
// mutated.
func (c *Class) InstanceFields() []*Field {
	if c.allFields != nil {
		return c.allFields
	}
	var out []*Field
	if c.Super != nil {
		out = append(out, c.Super.InstanceFields()...)
	}
	for _, f := range c.DeclaredFields {
		if !f.IsStatic {
			out = append(out, f)
		}
	}
	c.allFields = out
	return out
}

// NewMethod declares a method on c. paramTypes excludes the receiver;
// ret may be nil for void. Non-static, non-abstract methods get a `this`
// variable automatically.
func (c *Class) NewMethod(name string, static bool, paramTypes []*Class, ret *Class) *Method {
	return c.newMethod(name, static, false, paramTypes, ret)
}

// NewAbstractMethod declares an abstract (or interface) method: it has a
// signature but no body and never becomes a dispatch target itself.
func (c *Class) NewAbstractMethod(name string, paramTypes []*Class, ret *Class) *Method {
	return c.newMethod(name, false, true, paramTypes, ret)
}

func (c *Class) newMethod(name string, static, abstract bool, paramTypes []*Class, ret *Class) *Method {
	sig := Sig{Name: name, Arity: len(paramTypes)}
	if _, dup := c.methodBySig[sig]; dup {
		panic(fmt.Sprintf("lang: duplicate method %s.%s", c.Name, sig))
	}
	m := &Method{
		ID:         len(c.prog.Methods),
		Owner:      c,
		Name:       name,
		IsStatic:   static,
		IsAbstract: abstract,
		Ret:        ret,
		prog:       c.prog,
	}
	if !static {
		m.This = m.NewVar("this", c)
	}
	for i, pt := range paramTypes {
		m.Params = append(m.Params, m.NewVar(fmt.Sprintf("p%d", i), pt))
	}
	if ret != nil {
		m.RetVar = m.NewVar("$ret", ret)
	}
	c.methodBySig[sig] = m
	c.DeclaredMethods = append(c.DeclaredMethods, m)
	c.prog.Methods = append(c.prog.Methods, m)
	return m
}

// DeclaredMethod returns the method declared directly on c with the
// given signature, or nil.
func (c *Class) DeclaredMethod(sig Sig) *Method { return c.methodBySig[sig] }

// LookupMethod resolves sig against c and its superclasses (the static
// resolution used at call sites). It also searches interfaces so that
// interface calls type-check. Returns nil when absent.
func (c *Class) LookupMethod(sig Sig) *Method {
	for k := c; k != nil; k = k.Super {
		if m, ok := k.methodBySig[sig]; ok {
			return m
		}
	}
	var searchIfaces func(k *Class) *Method
	searchIfaces = func(k *Class) *Method {
		for _, it := range k.Interfaces {
			if m, ok := it.methodBySig[sig]; ok {
				return m
			}
			if m := searchIfaces(it); m != nil {
				return m
			}
		}
		if k.Super != nil {
			return searchIfaces(k.Super)
		}
		return nil
	}
	return searchIfaces(c)
}

// Dispatch performs dynamic dispatch: it resolves sig against the runtime
// class c, walking up superclasses, and returns the first concrete
// implementation, or nil if none exists.
func (c *Class) Dispatch(sig Sig) *Method {
	for k := c; k != nil; k = k.Super {
		if m, ok := k.methodBySig[sig]; ok && !m.IsAbstract {
			return m
		}
	}
	return nil
}

// SubtypeOf reports whether c <: other under the IR's rules: reflexivity,
// superclass chain, transitive interface implementation, array
// covariance (T[] <: U[] iff T <: U) and T[] <: Object.
func (c *Class) SubtypeOf(other *Class) bool {
	if c == other {
		return true
	}
	if other == nil {
		return false
	}
	if c.IsArray() {
		if other == c.prog.objectClass {
			return true
		}
		if other.IsArray() {
			return c.Elem.SubtypeOf(other.Elem)
		}
		return false
	}
	for k := c; k != nil; k = k.Super {
		if k == other {
			return true
		}
		for _, it := range k.Interfaces {
			if it.subIface(other) {
				return true
			}
		}
	}
	return false
}

func (c *Class) subIface(other *Class) bool {
	if c == other {
		return true
	}
	for _, it := range c.Interfaces {
		if it.subIface(other) {
			return true
		}
	}
	return false
}

// Field is an instance or static field.
type Field struct {
	ID       int
	Name     string
	Owner    *Class
	Type     *Class
	IsStatic bool
}

func (f *Field) String() string { return f.Owner.Name + "." + f.Name }
