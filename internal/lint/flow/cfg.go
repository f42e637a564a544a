// Package flow is the dataflow layer under mahjongvet's analyzers: it
// builds per-function control-flow graphs from go/ast + go/types,
// computes reaching definitions over them, and classifies values on a
// small access-path ownership lattice (local / borrowed / sent /
// shared-atomic / shared-guarded).
//
// The existing analyzer suite (PR 4) is syntactic and type-based; the
// invariants that now carry correctness — the sched queue-slot
// lifecycle, consistent atomic access — are *dataflow* properties:
// whether a release is reached on every path, whether a use follows a
// redefinition. This package gives analyzers the machinery to ask
// those questions, in the same stdlib-only style as the rest of
// internal/lint (no x/tools, no SSA: a statement-granular CFG with
// conditional edges is enough for every rule the suite enforces, and is
// two orders of magnitude less code).
//
// Like the paper's heap abstraction, the analyses here are deliberately
// lightweight flow-sensitive approximations over access paths — precise
// enough to turn the type checker into a bug finder, cheap enough to
// run on every `make lint`.
package flow

import (
	"go/ast"
	"go/token"
)

// A Graph is the control-flow graph of one function body. Blocks hold
// straight-line sequences of atomic nodes (simple statements plus the
// condition expressions of branches); composite statements are
// decomposed into blocks and edges, so walking a block's Nodes never
// descends into a nested body.
type Graph struct {
	Blocks []*Block
	// Entry is the first executed block; Exit is the synthetic block
	// every return, panic, and fall-off-the-end edge targets. Exit
	// holds no nodes.
	Entry, Exit *Block
	// Defers lists the function's defer statements in source order.
	// Deferred calls run on every exit path — normal or panicking — so
	// path analyses treat them as a postlude to Exit rather than as
	// ordinary nodes.
	Defers []*ast.DeferStmt

	blockOf map[ast.Node]*Block
}

// An Edge is one control transfer. When Cond is non-nil the edge is
// taken only if Cond evaluates to !Neg — the true branch of `if c` is
// {Cond: c, Neg: false}, the false branch {Cond: c, Neg: true}.
// Switch-case and select edges carry no condition (Cond nil): they
// over-approximate as always-takable.
type Edge struct {
	To   *Block
	Cond ast.Expr
	Neg  bool
}

// A Block is one straight-line sequence: control enters at the first
// node and leaves through Out after the last. Nodes are "atomic" —
// simple statements, declarations, and branch-condition expressions —
// never composite statements with nested bodies.
type Block struct {
	Index int
	Nodes []ast.Node
	Out   []Edge
}

// Succs returns the successor blocks, conditions stripped.
func (b *Block) Succs() []*Block {
	out := make([]*Block, len(b.Out))
	for i, e := range b.Out {
		out[i] = e.To
	}
	return out
}

// BlockOf returns the block holding node n (a node previously placed by
// the builder: a simple statement or a branch condition), or nil.
func (g *Graph) BlockOf(n ast.Node) *Block { return g.blockOf[n] }

// builder carries the construction state: the current block under
// append, and the branch-target stacks that resolve break, continue,
// goto, and fallthrough.
type builder struct {
	g   *Graph
	cur *Block

	// breakTo/continueTo are the innermost targets for unlabeled
	// branch statements; the labeled maps resolve `break L` etc.
	breakTo    []*Block
	continueTo []*Block
	labelBreak map[string]*Block
	labelCont  map[string]*Block
	gotoTo     map[string]*Block
	// pendingGotos holds forward gotos awaiting their label.
	pendingGotos map[string][]*Block
}

// New builds the CFG of body (a function's *ast.BlockStmt). A nil body
// (declaration without definition) yields a graph whose entry falls
// straight to exit.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{blockOf: make(map[ast.Node]*Block)}
	b := &builder{
		g:            g,
		labelBreak:   make(map[string]*Block),
		labelCont:    make(map[string]*Block),
		gotoTo:       make(map[string]*Block),
		pendingGotos: make(map[string][]*Block),
	}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(g.Exit)
	return g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// add places an atomic node in the current block.
func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.blockOf[n] = b.cur
}

// jump ends the current block with an unconditional edge to to and
// leaves cur pointing at a fresh (unreachable until linked) block.
func (b *builder) jump(to *Block) {
	b.cur.Out = append(b.cur.Out, Edge{To: to})
	b.cur = b.newBlock()
}

// branch ends the current block with a two-way conditional edge.
func (b *builder) branch(cond ast.Expr, then, els *Block) {
	b.cur.Out = append(b.cur.Out,
		Edge{To: then, Cond: cond},
		Edge{To: els, Cond: cond, Neg: true})
	b.cur = b.newBlock()
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		after := b.newBlock()
		then := b.newBlock()
		condBlk.Out = append(condBlk.Out, Edge{To: then, Cond: s.Cond})
		b.cur = then
		b.stmtList(s.Body.List)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock()
			condBlk.Out = append(condBlk.Out, Edge{To: els, Cond: s.Cond, Neg: true})
			b.cur = els
			b.stmt(s.Else)
			b.jump(after)
		} else {
			condBlk.Out = append(condBlk.Out, Edge{To: after, Cond: s.Cond, Neg: true})
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.cur.Out = append(b.cur.Out, Edge{To: head})
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.cur.Out = append(b.cur.Out,
				Edge{To: body, Cond: s.Cond},
				Edge{To: after, Cond: s.Cond, Neg: true})
		} else {
			b.cur.Out = append(b.cur.Out, Edge{To: body})
		}
		b.pushLoop(after, post)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(post)
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.jump(head)
		}
		b.cur = after

	case *ast.RangeStmt:
		// X is evaluated once on entry; the per-iteration key/value
		// bindings live in the loop head so each iteration re-defines
		// them (range bindings are the head's def events — see
		// DefinesObj).
		b.add(s.X)
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.cur.Out = append(b.cur.Out, Edge{To: head})
		b.cur = head
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		b.cur.Out = append(b.cur.Out, Edge{To: body}, Edge{To: after})
		b.pushLoop(after, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(head)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseBodies(s.Body.List, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseBodies(s.Body.List, false)

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.breakTo = append(b.breakTo, after)
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			head.Out = append(head.Out, Edge{To: blk})
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.jump(after)
		}
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		// A select with no default blocks until a case fires, so there
		// is no head→after edge; with a default one of the clause
		// edges is always takable anyway.
		b.cur = after

	case *ast.LabeledStmt:
		name := s.Label.Name
		// Pre-create the break/continue targets so `break L` inside
		// the labeled statement resolves; loops rewire continue below.
		target := b.newBlock()
		b.jump(target)
		b.cur = target
		b.gotoTo[name] = target
		for _, from := range b.pendingGotos[name] {
			from.Out = append(from.Out, Edge{To: target})
		}
		delete(b.pendingGotos, name)
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			after := b.newBlock()
			b.labelBreak[name] = after
			if _, isLoop := inner.(*ast.ForStmt); isLoop {
				b.labelCont[name] = target
			}
			if _, isLoop := inner.(*ast.RangeStmt); isLoop {
				b.labelCont[name] = target
			}
			b.stmt(s.Stmt)
			b.jump(after)
			b.cur = after
		default:
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			to := b.branchTarget(s, b.breakTo, b.labelBreak)
			if to != nil {
				b.jump(to)
			}
		case token.CONTINUE:
			to := b.branchTarget(s, b.continueTo, b.labelCont)
			if to != nil {
				b.jump(to)
			}
		case token.GOTO:
			if s.Label != nil {
				if to, ok := b.gotoTo[s.Label.Name]; ok {
					b.jump(to)
				} else {
					from := b.cur
					b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], from)
					b.cur = b.newBlock()
				}
			}
		case token.FALLTHROUGH:
			// Handled positionally by caseBodies: the clause's jump
			// edge is redirected to the next clause body.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.g.Exit)
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, …
		b.add(s)
	}
}

// caseBodies lowers the clauses of a switch or type switch: the head
// fans out to every clause body (conditions are over-approximated as
// always-takable), falling through when a clause ends in fallthrough,
// and to after when no default clause exists.
func (b *builder) caseBodies(clauses []ast.Stmt, exprCases bool) {
	head := b.cur
	after := b.newBlock()
	b.breakTo = append(b.breakTo, after)
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	for i, cs := range clauses {
		cl := cs.(*ast.CaseClause)
		if cl.List == nil {
			hasDefault = true
		}
		head.Out = append(head.Out, Edge{To: bodies[i]})
		b.cur = bodies[i]
		if exprCases {
			for _, e := range cl.List {
				b.add(e)
			}
		}
		fallsThrough := false
		for _, s := range cl.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(s)
		}
		if fallsThrough && i+1 < len(bodies) {
			b.jump(bodies[i+1])
		} else {
			b.jump(after)
		}
	}
	if !hasDefault {
		head.Out = append(head.Out, Edge{To: after})
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.cur = after
}

func (b *builder) pushLoop(brk, cont *Block) {
	b.breakTo = append(b.breakTo, brk)
	b.continueTo = append(b.continueTo, cont)
}

func (b *builder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

func (b *builder) branchTarget(s *ast.BranchStmt, stack []*Block, labeled map[string]*Block) *Block {
	if s.Label != nil {
		return labeled[s.Label.Name]
	}
	if len(stack) > 0 {
		return stack[len(stack)-1]
	}
	return nil
}

// isPanicCall reports whether e is a call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
