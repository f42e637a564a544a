package flow

import (
	"go/ast"
	"go/types"
)

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
