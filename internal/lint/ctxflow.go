package lint

import (
	"go/ast"
	"go/token"
)

// CtxFlow enforces threaded cancellation in library code.
//
// PR 1 threaded context.Context from the daemon down through every pipeline
// stage (the solver worklist and the heap modeler's merge loop poll
// it); that chain only cancels if no link manufactures a fresh root context.
// A context.Background()/TODO() inside internal/ detaches everything below
// it from the caller's deadline and from graceful shutdown — exactly the bug
// this PR fixed in the mahjongd job runner. The documented compat shims
// (pta.Solve, fpg.Build, core.Build, nil-context normalization) carry
// //lint:allow justifications.
//
// Comparing contexts with == or != is flagged too: context identity is not
// a semantic property (context.WithValue(context.Background(), …) is
// semantically background but compares unequal) and the comparison panics
// outright on uncomparable Context implementations. Ask ctx.Done() == nil —
// "can this context ever be cancelled?" — instead.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "forbid context.Background/TODO and context identity comparison in internal library code; " +
		"contexts must be threaded from the caller so deadlines and shutdown propagate",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	if !pass.UnderInternal() {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeOf(pass.Info, n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
					return true
				}
				if name := fn.Name(); name == "Background" || name == "TODO" {
					pass.Reportf(n.Pos(), "context.%s() in internal library code detaches callees from the caller's deadline and from graceful shutdown; thread the caller's context (a documented compat shim needs a //lint:allow ctxflow justification)", name)
				}
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isContextType(pass.Info, n.X) && isContextType(pass.Info, n.Y) {
					pass.Reportf(n.Pos(), "contexts compared with %s: context identity is not a semantic property (a value-carrying child of context.Background is still background, and the comparison panics on uncomparable implementations); check ctx.Done() == nil or pass an explicit option", n.Op)
				}
			}
			return true
		})
	}
}
