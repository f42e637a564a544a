package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the path-query side of the dataflow layer: forward walks
// over the CFG from a given node, with analyzer-supplied kill
// predicates and edge pruning. The analysis built on it — "does any path
// from this acquire reach exit without a release" (slotbalance) — is a
// may-path existence question, which a worklist walk answers exactly on
// the statement-granular graph.

// A Walk visits the nodes reachable after a starting node.
type Walk struct {
	// G is the graph to walk.
	G *Graph
	// Kill stops the current path at a node (the node itself is not
	// visited). Typical kills: a redefinition of the tracked variable,
	// a release of the tracked resource.
	Kill func(ast.Node) bool
	// Prune drops an edge from the walk. Typical use: skipping the
	// branch a boolean guard proves dead for the tracked fact (the
	// `if !ok { return }` after a failed acquire).
	Prune func(Edge) bool
}

// From walks forward from node start (exclusive). visit is called for
// every reachable node until it returns false; reachedExit reports
// whether some un-killed path reached the function exit. Each block is
// entered at most once from its top, which is sound because Kill and
// Prune are path-independent predicates.
func (w *Walk) From(start ast.Node, visit func(ast.Node) bool) (reachedExit bool) {
	blk := w.G.BlockOf(start)
	if blk == nil {
		return false
	}
	// Finish start's own block first, from the node after start.
	idx := 0
	for i, n := range blk.Nodes {
		if n == start {
			idx = i + 1
			break
		}
	}
	seen := make([]bool, len(w.G.Blocks))
	var queue []*Block
	enqueue := func(b *Block) {
		if !seen[b.Index] {
			seen[b.Index] = true
			queue = append(queue, b)
		}
	}
	// scan visits one block's nodes from position from; it reports
	// false when the path was killed inside the block.
	scan := func(b *Block, from int) bool {
		for _, n := range b.Nodes[from:] {
			if w.Kill != nil && w.Kill(n) {
				return false
			}
			if visit != nil && !visit(n) {
				visit = nil // stop visiting, keep computing reachability
			}
		}
		return true
	}
	follow := func(b *Block) {
		for _, e := range b.Out {
			if w.Prune != nil && w.Prune(e) {
				continue
			}
			enqueue(e.To)
		}
	}
	if scan(blk, idx) {
		follow(blk)
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if b == w.G.Exit {
			reachedExit = true
			continue
		}
		if scan(b, 0) {
			follow(b)
		}
	}
	return reachedExit
}

// DefinesObj reports whether node n (re)defines obj: an assignment or
// short declaration with obj on the left-hand side, a var declaration
// of obj, or a range binding of obj (range key/value identifiers are
// placed as loop-head nodes by the builder).
func DefinesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if info.Defs[id] == obj || info.Uses[id] == obj {
					return true
				}
			}
		}
	case *ast.DeclStmt:
		gen, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gen.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if info.Defs[name] == obj {
					return true
				}
			}
		}
	case *ast.Ident:
		// A bare identifier node is a range binding (see the builder).
		return info.Defs[n] == obj || info.Uses[n] == obj
	}
	return false
}

// UsesObj reports whether any identifier under n reads obj. Identifiers
// that are pure (re)definition sites — left-hand sides of the node when
// it is an assignment — do not count.
func UsesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	lhsIdent := map[*ast.Ident]bool{}
	if asg, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range asg.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				lhsIdent[id] = true
			}
		}
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && !lhsIdent[id] && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// EdgeProvesFalse reports whether taking e implies the boolean variable
// obj is false: the edge condition, after stripping negations, is obj
// itself and the polarity works out to false. It is how path walks
// prune the not-acquired branch after a `v, ok := acquire()` pattern
// (`if !ok { return }` — the return path never held the resource).
func EdgeProvesFalse(info *types.Info, e Edge, obj types.Object) bool {
	cond := e.Cond
	neg := e.Neg
	for {
		un, ok := ast.Unparen(cond).(*ast.UnaryExpr)
		if !ok || un.Op != token.NOT {
			break
		}
		cond, neg = un.X, !neg
	}
	id, ok := ast.Unparen(cond).(*ast.Ident)
	if !ok || info.Uses[id] != obj {
		return false
	}
	// The edge is taken when cond evaluates to !neg, and cond is obj —
	// so traversing it proves obj == !neg.
	return neg
}
