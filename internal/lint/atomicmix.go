package lint

import (
	"go/ast"
	"go/types"

	"mahjong/internal/lint/flow"
)

// AtomicMix flags fields that are accessed through sync/atomic in one
// place and by plain loads or stores in another. Mixed access is a data
// race even when the plain side "only reads": the atomic users
// establish no happens-before with it, so the reader can observe torn
// or stale values — and the race detector only catches the schedules
// that actually collide.
//
// This is exactly the race mahjong shipped before the parallel-solver
// hardening pass: unionfind.Forest kept a plain int `sets` counter that
// Union updated with atomic.AddInt64 while Sets() read it bare. The fix
// (an atomic.Int64 field) is the pattern this analyzer enforces
// module-wide: once any access site of a field goes through
// sync/atomic, every access must.
//
// Mutex-guarded plain access is flagged too, with its own message: a
// mutex synchronizes only with other critical sections on the same
// mutex, never with sync/atomic users of the field, so guarded and
// atomic access to one field do not mix. The
// durable fix is the atomic.Int64/Uint64/Pointer wrapper types, which
// make plain access unrepresentable.
//
// The analyzer runs module-wide (RunModule): the atomic site and the
// plain site of the pre-fix race could as easily have lived in
// different packages if the counter had been exported.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "a field accessed via sync/atomic anywhere must be accessed via sync/atomic everywhere; " +
		"plain (even mutex-guarded) reads and writes of the same field race with the atomic users",
	RunModule: runAtomicMix,
}

func runAtomicMix(mp *ModulePass) {
	// Pass 1: every field that is the &-target of a sync/atomic function
	// call anywhere in the load, plus the selector nodes inside those
	// calls (exempt from pass 2).
	atomicFields := make(map[*types.Var]bool)
	inAtomicCall := make(map[*ast.SelectorExpr]bool)
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok {
						continue
					}
					field := flow.FieldOf(pkg.Info, un.X)
					if field == nil {
						continue
					}
					atomicFields[field] = true
					markSelectors(inAtomicCall, un.X)
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return
	}

	// Pass 2: any other selector resolving to one of those fields is a
	// plain access.
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				guarded := callsLock(pkg.Info, fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || inAtomicCall[sel] {
						return true
					}
					field := flow.FieldOf(pkg.Info, sel)
					if field == nil {
						return true
					}
					if !atomicFields[field] {
						return true
					}
					if guarded {
						mp.Reportf(sel.Pos(), "field %s is accessed via sync/atomic elsewhere; this mutex-guarded plain access still races — a mutex never synchronizes with the atomic users (use the atomic access everywhere, or an atomic.Int64-style typed field)", field.Name())
					} else {
						mp.Reportf(sel.Pos(), "field %s is accessed via sync/atomic elsewhere; this plain access races with the atomic users (torn/stale reads the race detector may never schedule) — use sync/atomic here too, or an atomic.Int64-style typed field", field.Name())
					}
					return true
				})
			}
		}
	}
}

// markSelectors records every selector under e as living inside an
// atomic call's address argument.
func markSelectors(set map[*ast.SelectorExpr]bool, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			set[sel] = true
		}
		return true
	})
}

// callsLock reports whether fd calls a Lock/RLock method anywhere —
// used only to pick the sharper "mutex does not help" message.
func callsLock(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				found = true
			}
		}
		return !found
	})
	return found
}
