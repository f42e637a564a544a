package lint

import (
	"go/ast"
	"go/types"
)

// BitsetAlias enforces the borrowed-bitset discipline that PR 2's delta-set
// pooling made load-bearing in the solver hot path.
//
// The solver recycles *bitset.Set delta sets through a free list (grabSet /
// releaseSet). Two aliasing mistakes turn that optimization into silent
// unsoundness — a released set is re-grabbed, Cleared, and refilled for an
// unrelated pointer node, so a stale alias reads (or corrupts) another
// node's points-to facts:
//
//   - retention: a function that receives a *bitset.Set as a parameter
//     borrows it for the duration of the call. Storing it in a struct
//     field, a map/slice element, or returning it extends the alias past
//     the borrow, beyond the caller's releaseSet.
//
//   - use-after-release: touching a set after passing it to releaseSet —
//     the set may already be another node's live delta.
//
// The pool accessors themselves (grabSet, releaseSet) are exempt: they are
// the ownership boundary the rule protects. Package bitset is exempt too —
// its methods legitimately return and retain sets they own.
var BitsetAlias = &Analyzer{
	Name: "bitsetalias",
	Doc: "a borrowed *bitset.Set (parameter or pooled delta) must not be retained in a field, " +
		"returned, or touched after releaseSet",
	Run: runBitsetAlias,
}

func runBitsetAlias(pass *Pass) {
	if pass.Name == "bitset" {
		return
	}
	// Only packages that use the bitset package can hold one of its sets.
	usesBitset := false
	for _, imp := range pass.Types.Imports() {
		if imp.Name() == "bitset" {
			usesBitset = true
		}
	}
	if !usesBitset {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name != "releaseSet" && fn.Name.Name != "grabSet" {
				checkBorrowedParams(pass, fn)
			}
			checkUseAfterRelease(pass, fn)
		}
	}
}

// checkBorrowedParams flags escapes of *bitset.Set parameters.
func checkBorrowedParams(pass *Pass, fn *ast.FuncDecl) {
	borrowed := make(map[types.Object]bool)
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.Defs[name]
			if obj != nil && isPtrToNamed(obj.Type(), "bitset", "Set") {
				borrowed[obj] = true
			}
		}
	}
	if len(borrowed) == 0 {
		return
	}
	isBorrowedIdent := func(e ast.Expr) types.Object {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && borrowed[obj] {
				return obj
			}
		}
		return nil
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := isBorrowedIdent(res); obj != nil {
					pass.Reportf(res.Pos(), "borrowed *bitset.Set parameter %s is returned: the alias outlives the borrow and will dangle once the caller releases the set back to the pool", obj.Name())
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch {
				case len(n.Rhs) == len(n.Lhs):
					rhs = n.Rhs[i]
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				default:
					continue
				}
				// Retention is a store through a field or element — a
				// destination that persists after the call returns.
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
				default:
					continue
				}
				obj := isBorrowedIdent(rhs)
				if obj == nil {
					// x.f = append(x.f, p) and friends: look one call deep.
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
						for _, arg := range call.Args {
							if o := isBorrowedIdent(arg); o != nil {
								obj = o
							}
						}
					}
				}
				if obj != nil {
					pass.Reportf(n.Pos(), "borrowed *bitset.Set parameter %s is retained in %s: the pool may hand the same set to an unrelated pointer node, corrupting its points-to facts", obj.Name(), types.ExprString(lhs))
				}
			}
		}
		return true
	})
}

// checkUseAfterRelease flags statements that touch a set after it was passed
// to releaseSet earlier in the same statement list.
func checkUseAfterRelease(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			scanStmtList(pass, n.List)
		case *ast.CaseClause:
			scanStmtList(pass, n.Body)
		case *ast.CommClause:
			scanStmtList(pass, n.Body)
		}
		return true
	})
}

// scanStmtList walks one straight-line statement list. A release inside a
// nested block (an if-branch that usually continues or returns, a loop body,
// a deferred closure) is deliberately NOT propagated to the statements after
// it — whether it executed is flow-dependent, and the nested list gets its
// own scan. The analyzer trades those flow-dependent cases for zero false
// positives on the solver's release-and-continue idiom.
func scanStmtList(pass *Pass, list []ast.Stmt) {
	released := make(map[types.Object]bool)
	for _, stmt := range list {
		// A fresh binding ends the released state of that variable.
		if asg, ok := stmt.(*ast.AssignStmt); ok {
			for _, lhs := range asg.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil {
						delete(released, obj)
					} else if obj := pass.Info.Uses[id]; obj != nil {
						delete(released, obj)
					}
				}
			}
		}
		for obj := range released {
			if usesObject(pass.Info, stmt, obj) {
				pass.Reportf(stmt.Pos(), "%s is used after releaseSet(%s): the set may already be another node's live delta (release it on the last use instead)", obj.Name(), obj.Name())
				delete(released, obj) // one report per release
			}
		}
		ast.Inspect(stmt, func(m ast.Node) bool {
			switch m.(type) {
			// Releases in nested statement lists or deferred/spawned
			// closures are conditional or later-executed; they do not mark
			// the set released for the remainder of THIS list.
			case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause,
				*ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if name != "releaseSet" || len(call.Args) != 1 {
				return true
			}
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && isPtrToNamed(obj.Type(), "bitset", "Set") {
					released[obj] = true
				}
			}
			return true
		})
	}
}
