package flow

import (
	"go/ast"
	"go/types"
	"strings"
)

// The ownership lattice. Every value an analyzer tracks sits somewhere
// on a five-point escape ladder, ordered by how far the value has
// escaped the current function's control:
//
//	Local < Borrowed < Sent < SharedGuarded < SharedAtomic
//
// Local values were produced here and are exclusively ours (a pool
// grab, a fresh allocation). Borrowed values belong to a caller for the
// duration of the call (parameters). Sent values have been moved away —
// into a structure whose owner adopts what is stored in it — and must
// not be touched again. The two Shared states
// describe struct fields accessed concurrently: SharedGuarded under a
// mutex, SharedAtomic through sync/atomic. Join takes the maximum:
// merging control-flow paths keeps the most-escaped state, which is the
// sound direction for every rule built on the lattice.
type Ownership uint8

const (
	// Local: produced in this function from an owned source.
	Local Ownership = iota
	// Borrowed: a caller's value, lent for the duration of the call.
	Borrowed
	// Sent: moved into a queue or adopting structure; later use is a
	// use-after-move.
	Sent
	// SharedGuarded: a field accessed under a mutex.
	SharedGuarded
	// SharedAtomic: a field accessed through sync/atomic; every access
	// must be.
	SharedAtomic
)

func (o Ownership) String() string {
	switch o {
	case Local:
		return "local"
	case Borrowed:
		return "borrowed"
	case Sent:
		return "sent"
	case SharedGuarded:
		return "shared-guarded"
	case SharedAtomic:
		return "shared-atomic"
	}
	return "unknown"
}

// Join merges two lattice points, keeping the most-escaped state.
func Join(a, b Ownership) Ownership {
	if b > a {
		return b
	}
	return a
}

// OwnerOf classifies the ownership of the value a local variable holds
// at one of its uses, by joining the classification of every reaching
// definition: a parameter is Borrowed; a fresh allocation (new, a
// composite-literal address, or a call to an owner-returning function
// named in owners, e.g. "grabSet") is Local; a copy of another local
// follows that local one step. Anything unresolvable is Borrowed — the
// conservative point for the retain/move rules built on this.
func OwnerOf(r *ReachingDefs, use *ast.Ident, owners map[string]bool) Ownership {
	return ownerOf(r, use, owners, 0)
}

func ownerOf(r *ReachingDefs, use *ast.Ident, owners map[string]bool, depth int) Ownership {
	if depth > 4 {
		return Borrowed
	}
	defs := r.At(use)
	if len(defs) == 0 {
		return Borrowed
	}
	o := Local
	for _, d := range defs {
		o = Join(o, classifyDef(r, d, owners, depth))
	}
	return o
}

func classifyDef(r *ReachingDefs, d Def, owners map[string]bool, depth int) Ownership {
	if d.RHS == nil {
		// Parameter, named result, zero-value declaration, or range
		// binding: not produced here.
		if id, ok := d.Node.(*ast.Ident); ok {
			if _, isParam := r.info.Defs[id].(*types.Var); isParam && d.RHS == nil {
				return Borrowed
			}
		}
		return Borrowed
	}
	switch rhs := ast.Unparen(d.RHS).(type) {
	case *ast.CallExpr:
		name := ""
		switch fun := ast.Unparen(rhs.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if owners[name] || name == "new" {
			return Local
		}
		return Borrowed
	case *ast.UnaryExpr:
		if _, ok := ast.Unparen(rhs.X).(*ast.CompositeLit); ok {
			return Local
		}
	case *ast.CompositeLit:
		return Local
	case *ast.Ident:
		return ownerOf(r, rhs, owners, depth+1)
	}
	return Borrowed
}

// PathOf renders the access path of expression e: the root object (a
// local variable, parameter, or package-level var) and the dotted field
// chain from it, with index operations erased ("s.pending[i]" is the
// path s.pending — ownership discipline attaches to the field, not the
// element). ok is false for expressions that are not access paths
// (calls, literals, arithmetic).
func PathOf(info *types.Info, e ast.Expr) (root types.Object, path string, ok bool) {
	var parts []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if obj == nil {
				return nil, "", false
			}
			parts = append(parts, x.Name)
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return obj, strings.Join(parts, "."), true
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, "", false
		}
	}
}

// FieldOf resolves a selector expression to the struct field it reads
// or writes, unwrapping index and dereference operations around it
// ("&f.sets", "s.pending[i]"). nil when e does not end at a field.
func FieldOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if f, ok := sel.Obj().(*types.Var); ok {
					return f
				}
			}
			return nil
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
